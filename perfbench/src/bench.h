// Shared pieces of the perfbench program: options, the per-run recorder
// every workload fills, and the result it prints.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< worker cap: min(nproc / 2, 2), at least 1
  Clock::time_point start;  ///< process start, for setup_s
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed call a user makes.
struct Request {
  enum Kind { compress, decompress, read };
  Kind kind = read;
  double bytes = 0.0;  ///< original bytes coded (0 for a block read)
  double ms = NAN;     ///< latency; NaN when the call failed
};

/// One timed pass (a whole round of the workload's operations). Every pass
/// holds the same calls in the same order, so request j, read j and
/// stretch j of every pass are the same work.
struct PassTotals {
  double wall_s = 0.0;
  std::vector<Request> requests;
  /// Latency of each single-block read (NaN for a read that failed).
  std::vector<double> read_ms;
  /// Wall time of each stretch of the pass, in order; the stretches cover
  /// the pass. A request run alone is one stretch, and so is a group run
  /// at once (a pass's block reads, an fpsnrd round).
  std::vector<double> stretch_s;

  /// Record a request that ran alone (`ms` < 0 when it failed).
  void add(Request::Kind kind, double bytes, double ms);
};

/// Everything a run measures. An exception in an operation counts as one
/// failed operation and the pass goes on.
struct Recorder {
  Options opt;
  Checker checker;
  std::vector<PassTotals> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  // Output summaries filled by the workload's checks.
  double original_bytes = 0.0;  ///< per pass
  double archive_bytes = 0.0;   ///< per pass
  std::vector<double> psnr_dev_db;
  std::vector<Metric> layer;  ///< per-layer metrics (traced run only)

  /// time_op() that also counts the operation as attempted (and failed).
  double op(const char* name, const std::function<void()>& fn);

  /// Run passes until `seconds` have elapsed, at least 3 passes ran and at
  /// least `min_ops` requests were timed.
  void timed_passes(const std::function<void(PassTotals&)>& pass,
                    std::size_t min_ops = 1000);

  /// Each request's latency in ms, as its median over the timed passes
  /// (NaN for a request that failed in every pass).
  std::vector<double> request_ms() const;
  /// The time one pass spends in requests of `kind`: the sum of their
  /// request_ms().
  double pass_ms(Request::Kind kind) const;

  std::vector<Metric> end_to_end() const;
};

/// Run `fn` as one timed operation (a trace span named `name`); returns its
/// latency in ms, or -1 when it threw (the error goes to stderr).
double time_op(const char* name, const std::function<void()>& fn);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p);
std::uint64_t fnv1a(const void* data, std::size_t bytes);

void run_fields(Recorder& r);
void run_roi(Recorder& r);
void run_series(Recorder& r);
void run_fpsnrd(Recorder& r);

}  // namespace perfbench
