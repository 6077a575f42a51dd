// perfbench: the fpsnr end-to-end benchmark program.
//
//   perfbench --workload fields|roi|series|fpsnrd --seed N --seconds S
//             --trace 0|1
//
// Builds its inputs from the seed, runs a warm-up pass (part of setup_s),
// then whole timed passes of the workload for S seconds, checks every
// output apart from the program, and prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the spans are written as a Chrome trace to
// .bench_out/trace-<workload>-<seed>.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/dispatch.h"

namespace perfbench {

double time_op(const char* name, const std::function<void()>& fn) {
  trace_new_op();
  Span span(name);
  try {
    fn();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", name, e.what());
    return -1.0;
  }
  return span.stop();
}

double Recorder::op(const char* name, const std::function<void()>& fn) {
  ++attempted;
  const double ms = time_op(name, fn);
  if (ms < 0) ++failed;
  return ms;
}

void PassTotals::add(Request::Kind kind, double bytes, double ms) {
  requests.push_back({kind, bytes, ms < 0 ? NAN : ms});
  stretch_s.push_back(ms < 0 ? NAN : ms / 1e3);
}

void Recorder::timed_passes(const std::function<void(PassTotals&)>& pass,
                            std::size_t min_ops) {
  const auto t0 = Clock::now();
  std::size_t ops = 0;
  while (passes.size() < 3 || ops < min_ops ||
         seconds_since(t0) < opt.seconds) {
    PassTotals p;
    const auto pass_start = Clock::now();
    pass(p);
    p.wall_s = seconds_since(pass_start);
    double bytes[2] = {0, 0}, ms[2] = {0, 0};
    for (const Request& q : p.requests) {
      if (std::isnan(q.ms)) continue;
      ++ops;
      if (q.kind == Request::read) continue;
      bytes[q.kind] += q.bytes;
      ms[q.kind] += q.ms;
    }
    passes.push_back(std::move(p));
    std::fprintf(stderr,
                 "perfbench: pass %zu: %.3f s, compress %.2f MB/s, "
                 "decompress %.2f MB/s\n",
                 passes.size(), passes.back().wall_s,
                 bytes[Request::compress] / ms[Request::compress] / 1e3,
                 bytes[Request::decompress] / ms[Request::decompress] / 1e3);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

namespace {

/// Column j's median over the rows (one row per pass), for each column j
/// of the first row; NaN where no row has a finite value.
std::vector<double> column_medians(
    const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  for (std::size_t j = 0; j < rows.front().size(); ++j) {
    std::vector<double> v;
    for (const std::vector<double>& row : rows)
      if (j < row.size() && std::isfinite(row[j])) v.push_back(row[j]);
    out.push_back(median(std::move(v)));
  }
  return out;
}

}  // namespace

// Request j is the same call in every pass. A slowdown of the host that
// lasts a few seconds lands on whichever requests ran then, so a figure
// over every timed request, or over each whole pass, swings with it: a
// p99 over all requests moved 0.2-0.8 of its median between runs of the
// same code, and per-pass throughput 0.12-0.13 on series (0.06 this way).
// Each request is therefore taken at its median over the passes, and the
// metrics are computed from those.
std::vector<double> Recorder::request_ms() const {
  std::vector<std::vector<double>> rows;
  for (const PassTotals& p : passes) {
    rows.emplace_back();
    for (const Request& q : p.requests) rows.back().push_back(q.ms);
  }
  return column_medians(rows);
}

double Recorder::pass_ms(Request::Kind kind) const {
  const std::vector<double> ms = request_ms();
  const std::vector<Request>& reqs = passes.front().requests;
  double sum = 0.0;
  for (std::size_t j = 0; j < reqs.size(); ++j)
    if (reqs[j].kind == kind && std::isfinite(ms[j])) sum += ms[j];
  return sum;
}

std::vector<Metric> Recorder::end_to_end() const {
  const std::vector<double> ms = request_ms();
  const std::vector<Request>& reqs = passes.front().requests;
  std::vector<double> req;
  double bytes[2] = {0, 0};
  for (std::size_t j = 0; j < reqs.size(); ++j) {
    if (!std::isfinite(ms[j])) continue;
    req.push_back(ms[j]);
    if (reqs[j].kind != Request::read) bytes[reqs[j].kind] += reqs[j].bytes;
  }
  const auto mbps = [&](Request::Kind k) {
    return bytes[k] / pass_ms(k) / 1e3;
  };
  // The same for the stretches that cover a pass: requests per second are
  // the requests of a pass over the sum of the stretches' medians.
  std::vector<std::vector<double>> stretches;
  for (const PassTotals& p : passes) stretches.push_back(p.stretch_s);
  double stretch_s = 0.0;
  for (double s : column_medians(stretches))
    if (std::isfinite(s)) stretch_s += s;
  // Every pass reads the same blocks in the same order. Single-block reads
  // are the one operation that swings with the host's memory contention
  // (per-pass means of 0.38-0.70 ms for the same reads within one run), so
  // each read is taken at its least contended pass; the metric is the
  // median over reads of that latency.
  std::vector<double> read;
  for (std::size_t j = 0; j < passes.front().read_ms.size(); ++j) {
    double best = INFINITY;
    for (const PassTotals& p : passes)
      if (j < p.read_ms.size() && p.read_ms[j] < best) best = p.read_ms[j];
    if (std::isfinite(best)) read.push_back(best);
  }
  double dev = 0.0;
  for (double d : psnr_dev_db) dev += d;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_MB", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"compress_MBps", mbps(Request::compress), "MB/s"},
      {"decompress_MBps", mbps(Request::decompress), "MB/s"},
      {"ratio", original_bytes / archive_bytes, "x"},
      {"psnr_abs_dev_db", dev / static_cast<double>(psnr_dev_db.size()), "dB"},
      {"block_read_ms", median(read), "ms"},
      {"req_per_s", static_cast<double>(req.size()) / stretch_s, "1/s"},
      {"req_p50_ms", percentile(req, 0.50), "ms"},
      {"req_p99_ms", percentile(req, 0.99), "ms"},
  };
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fields|roi|series|fpsnrd --seed N --seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        o.workload = val;
        have_workload = true;
        used = val.size();
      } else if (key == "--seed") {
        o.seed = std::stoull(val, &used);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val, &used);
      } else if (key == "--trace") {
        o.trace = std::stoi(val, &used) != 0;
      } else {
        usage("unknown option " + key);
      }
      if (used != val.size()) throw std::invalid_argument(val);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 120.0)
    usage("--seconds must be in (0, 120]");
  // Half the CPUs, at most 2: with a worker per CPU, any other load on the
  // host stalls the slowest worker of every parallel loop, and the fpsnrd
  // clients, handlers and scheduler would compete with the workers.
  const unsigned hw = std::thread::hardware_concurrency();
  o.threads = std::clamp<std::size_t>(hw / 2, 1, 2);
  return o;
}

void print_result(const Recorder& r, const std::vector<Metric>& metrics) {
  bool correct = r.checker.ok();
  for (const std::string& f : r.checker.failures())
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  std::string out = "{\"correct\": ";
  std::string body;
  for (const Metric& m : metrics) {
    char buf[128];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      correct = false;
      std::snprintf(buf, sizeof buf, "null");
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
    }
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
         body + "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  Recorder r;
  r.opt = parse(argc, argv);
  r.opt.start = start;
  trace_enable(r.opt.trace);
  std::fprintf(stderr, "perfbench: %s seed %llu, %zu workers, simd %s, %s build\n",
               r.opt.workload.c_str(),
               static_cast<unsigned long long>(r.opt.seed), r.opt.threads,
               fpsnr::simd::backend_name(fpsnr::simd::active_backend()),
               PERFBENCH_BUILD_TYPE);
  try {
    std::filesystem::create_directories(".bench_out");
    if (r.opt.workload == "fields")
      run_fields(r);
    else if (r.opt.workload == "roi")
      run_roi(r);
    else if (r.opt.workload == "series")
      run_series(r);
    else if (r.opt.workload == "fpsnrd")
      run_fpsnrd(r);
    else
      usage("unknown workload " + r.opt.workload);
    if (r.opt.trace)
      trace_write(".bench_out/trace-" + r.opt.workload + "-" +
                  std::to_string(r.opt.seed) + ".json");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(r, r.opt.trace ? r.layer : r.end_to_end());
  return 0;
}
