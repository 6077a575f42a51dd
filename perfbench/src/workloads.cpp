// The four workloads. Each builds its inputs from the seed, runs one
// warm-up pass (part of setup_s), then whole timed passes of a fixed mix of
// operations, and finally checks the last pass's outputs (and, in fpsnrd,
// every round's) apart from the program.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "core/tile_layout.h"
#include "data/dataset.h"
#include "data/timeseries.h"
#include "fpsnr/service.h"
#include "fpsnr/session.h"
#include "fpsnr/timeseries.h"
#include "io/archive.h"
#include "layers.h"
#include "temporal/temporal.h"

namespace perfbench {
namespace {

using fpsnr::FixedPsnr;
using fpsnr::Session;
using fpsnr::Sink;
using fpsnr::Source;

/// One input field as the benchmark hands it to the program.
struct Input {
  std::string name;
  std::span<const float> values;
  std::vector<std::size_t> dims;
  double bytes() const { return static_cast<double>(values.size_bytes()); }
};

std::vector<Input> inputs_of(const fpsnr::data::Dataset& ds) {
  std::vector<Input> out;
  for (const auto& f : ds.fields)
    out.push_back({ds.name + "." + f.name, f.values, f.dims.extents});
  return out;
}

/// One field through one target, with everything the checks need.
struct Slot {
  Slot(Input i, double t) : in(std::move(i)), target(t) {}
  Input in;
  double target = 0.0;
  std::vector<std::uint8_t> archive;
  double reported_db = NAN;
  std::vector<float> decoded;
  std::uint64_t warm_hash = 0;
  std::vector<std::size_t> tile;  ///< per-axis tile extents of the archive
  std::size_t blocks = 1;         ///< learn() sets it after the warm-up pass
  std::vector<std::uint64_t> read_keys;  ///< seeded; block = key % blocks
  std::vector<std::vector<float>> reads;
  std::size_t block(std::size_t k) const { return read_keys[k] % blocks; }
};

/// The tile region `b` of a C-order field, cut out by the benchmark itself.
std::vector<float> region_of(std::span<const float> field,
                             const std::vector<std::size_t>& dims,
                             const std::vector<std::size_t>& tile,
                             std::size_t b) {
  const std::size_t rank = dims.size();
  std::size_t start[3] = {0, 0, 0}, ext[3] = {1, 1, 1}, stride[3] = {1, 1, 1};
  for (std::size_t a = rank; a-- > 0;) {
    const std::size_t t = std::min(tile[a] == 0 ? dims[a] : tile[a], dims[a]);
    const std::size_t grid = (dims[a] + t - 1) / t;
    start[a] = (b % grid) * t;
    b /= grid;
    ext[a] = std::min(t, dims[a] - start[a]);
    stride[a] = a + 1 < rank ? stride[a + 1] * dims[a + 1] : 1;
  }
  std::vector<float> out;
  for (std::size_t i = 0; i < (rank > 2 ? ext[rank - 3] : 1); ++i)
    for (std::size_t j = 0; j < (rank > 1 ? ext[rank - 2] : 1); ++j) {
      std::size_t off = start[rank - 1];
      if (rank > 2) off += (start[rank - 3] + i) * stride[rank - 3];
      if (rank > 1) off += (start[rank - 2] + j) * stride[rank - 2];
      out.insert(out.end(), field.begin() + off,
                 field.begin() + off + ext[rank - 1]);
    }
  return out;
}

Session make_session(const Options& o, std::vector<std::size_t> tile = {}) {
  fpsnr::SessionOptions so;
  so.threads = o.threads;
  so.engine = "sz-lorenzo";
  so.budget = "uniform";
  so.tile = fpsnr::TileShape(std::move(tile));
  return Session(so);
}

/// The pass's single-block reads, issued by one reader per worker: reader
/// t takes reads t, t + workers, ... of the fixed stream. Reads of one
/// pass spread over every CPU, so one contended CPU does not set the pass.
void read_blocks(Recorder& r, PassTotals& p, const Session& session,
                 const std::vector<Slot*>& slots) {
  std::vector<std::pair<Slot*, std::size_t>> stream;
  for (Slot* s : slots) {
    s->reads.resize(s->read_keys.size());
    for (std::size_t k = 0; k < s->read_keys.size(); ++k)
      stream.emplace_back(s, k);
  }
  std::vector<double> ms(stream.size());
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> readers;
    for (std::size_t t = 0; t < r.opt.threads; ++t)
      readers.emplace_back([&, t] {
        for (std::size_t i = t; i < stream.size(); i += r.opt.threads) {
          auto& [s, k] = stream[i];
          ms[i] = time_op("facade.decompress_block", [&] {
            s->reads[k] = session.decompress_block(Source::memory(s->archive),
                                                   s->block(k)).f32;
          });
        }
      });
  }
  p.stretch_s.push_back(seconds_since(t0));
  for (double v : ms) {
    ++r.attempted;
    if (v < 0) ++r.failed;
    p.read_ms.push_back(v < 0 ? NAN : v);
    p.requests.push_back({Request::read, 0.0, v < 0 ? NAN : v});
  }
}

/// After the warm-up pass: record the archive geometry and its hash.
void learn(const Session& session, Slot& s) {
  const fpsnr::Inspection ins = session.inspect(Source::memory(s.archive));
  s.tile = ins.tile;
  s.blocks = ins.block_count;
  s.warm_hash = fnv1a(s.archive.data(), s.archive.size());
}

/// Every check one decoded field gets. The pointwise bound holds for
/// sz-lorenzo with the uniform budget, which every workload uses;
/// `reference` is the previous reconstruction of a temporal delta frame.
void check_slot(Recorder& r, const Slot& s,
                std::span<const float> reference = {}) {
  const std::string what = s.in.name + "@" + std::to_string(int(s.target));
  Checker& c = r.checker;
  c.expect(check_psnr(s.in.values, s.decoded, s.target, s.reported_db), what);
  c.expect(check_pointwise(s.in.values, s.decoded, s.target, reference), what);
  if (fnv1a(s.archive.data(), s.archive.size()) != s.warm_hash)
    c.expect("archive differs from the warm-up pass's", what);
  for (std::size_t k = 0; k < s.reads.size(); ++k)
    c.expect(check_same_values(region_of(s.decoded, s.in.dims, s.tile,
                                         s.block(k)),
                               s.reads[k]),
             what + " block " + std::to_string(s.block(k)));
  r.psnr_dev_db.push_back(
      std::fabs(recompute_psnr(s.in.values, s.decoded) - s.target));
  r.original_bytes += s.in.bytes();
  r.archive_bytes += static_cast<double>(s.archive.size());
}

std::vector<std::uint64_t> keys(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> k(n);
  for (auto& v : k) v = rng();
  return k;
}

// --- traced-run extras -------------------------------------------------------

struct TemporalTotals {
  double push_ms = 0.0;
  double self_decode_ms = 0.0;
  double feed_ms = 0.0;
  double delta_blocks = 0.0;
  double blocks_in_delta_frames = 0.0;
};

/// What the encoder's closed loop does after each frame: decode its own
/// archive and add the reference back on delta tiles.
double self_decode_ms(std::size_t threads,
                      const std::vector<std::vector<std::uint8_t>>& frames) {
  double ms = 0.0;
  std::vector<float> ref;
  for (const auto& frame : frames) {
    Span s("temporal.self_decode");
    auto d = fpsnr::core::decompress_blocked<float>(frame, threads);
    const auto h = fpsnr::io::block_container_header(frame);
    if (h.is_delta_frame()) {
      const std::vector<std::size_t> tile(h.tile.begin(), h.tile.end());
      const auto layout = fpsnr::core::make_layout(d.dims, tile);
      fpsnr::temporal::apply_reference<float>(d.values, ref, d.dims, layout,
                                              h.block_modes);
    }
    ref = std::move(d.values);
    ms += s.stop();
  }
  return ms;
}

/// A short chain for the traced runs of workloads that run no temporal
/// coding themselves, so every traced run reports every layer.
TemporalTotals temporal_probe(const Options& o) {
  fpsnr::data::TimeSeriesConfig cfg;
  cfg.dims = fpsnr::data::Dims{16, 64, 64};
  cfg.snapshots = 4;
  cfg.dt = 0.02;
  cfg.seed = o.seed;
  const auto series = fpsnr::data::make_advected_series(cfg);
  fpsnr::TimeSeriesOptions topt;
  topt.session.threads = o.threads;
  topt.series = "probe";
  topt.keep_archives = false;
  fpsnr::TimeSeriesSession ts(FixedPsnr{60.0}, topt);
  fpsnr::TimeSeriesDecoder dec(o.threads);
  TemporalTotals t;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& f : series) {
    fpsnr::Field snap{f.dims.extents, f.values, {}};
    Span s("temporal.push");
    auto rec = ts.push(snap);
    t.push_ms += s.stop();
    if (!rec.keyframe) {
      t.delta_blocks += static_cast<double>(rec.temporal_blocks);
      t.blocks_in_delta_frames += static_cast<double>(rec.block_count);
    }
    frames.push_back(std::move(rec.report.archive));
  }
  for (const auto& frame : frames) {
    Span s("temporal.feed");
    (void)dec.feed(frame);
    t.feed_ms += s.stop();
  }
  t.self_decode_ms = self_decode_ms(o.threads, frames);
  return t;
}

/// The fpsnrd daemon on its own thread, listening on a socket path unique
/// to this run. stop() (also run by the destructor, on every exit path)
/// asks it to drain, joins it and removes the socket file.
class Daemon {
 public:
  explicit Daemon(std::size_t threads)
      : path_(".bench_out/fpsnrd-" + std::to_string(::getpid()) + "-" +
              std::to_string(next_id_++) + ".sock"),
        server_(options(path_, threads)) {
    thread_ = std::thread([this] {
      try {
        rc_ = server_.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: fpsnrd: %s\n", e.what());
        rc_ = -1;
      }
    });
  }
  ~Daemon() { (void)stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  fpsnr::service::Endpoint endpoint() const { return {path_, 0}; }

  /// Returns the server's exit code and whether it left its socket file.
  std::pair<int, bool> stop() {
    if (thread_.joinable()) {
      server_.request_shutdown();
      thread_.join();
    }
    std::error_code ec;
    const bool left = std::filesystem::exists(path_, ec);
    std::filesystem::remove(path_, ec);
    return {rc_, left};
  }

 private:
  static fpsnr::service::ServerOptions options(const std::string& path,
                                               std::size_t threads) {
    fpsnr::service::ServerOptions so;
    so.endpoint.socket_path = path;
    so.threads = threads;
    return so;
  }
  static inline std::atomic<int> next_id_{0};
  std::string path_;
  int rc_ = -1;
  fpsnr::service::Server server_;
  std::thread thread_;
};

/// Join the daemon, then check it drained cleanly and removed its socket.
void check_stopped(Recorder& r, Daemon& daemon) {
  const auto [rc, left] = daemon.stop();
  if (rc != 0)
    r.checker.expect("daemon exited with " + std::to_string(rc), "fpsnrd");
  if (left) r.checker.expect("socket file left behind", "fpsnrd");
}

fpsnr::service::CompressSpec spec_for(const Input& in, double target,
                                      const Session& session) {
  fpsnr::service::CompressSpec spec;
  spec.tile = session.options().tile.extents;
  spec.engine = "sz-lorenzo";
  spec.budget = "uniform";
  spec.mode = "fixed-psnr";
  spec.value = target;
  spec.dims = in.dims;
  return spec;
}

struct ServiceTotals {
  double ping_ms = 0.0;
  double overhead_ms = 0.0;
};

/// Sequential single-client replay: the median ping, and the mean of
/// (socket round trip - in-process time) of the same compress job.
ServiceTotals service_probe(const Session& session,
                            fpsnr::service::Client& client,
                            const std::vector<Input>& inputs, double target) {
  std::vector<double> pings;
  for (int i = 0; i < 64; ++i) {
    Span s("service.ping");
    client.ping();
    pings.push_back(s.stop());
  }
  double overhead = 0.0;
  for (const Input& in : inputs) {
    Span rt("service.compress");
    (void)client.compress(in.values, spec_for(in, target, session));
    const double rt_ms = rt.stop();
    Span local("facade.compress");
    (void)session.compress(Source::memory(in.values, in.dims),
                           FixedPsnr{target}, Sink::memory());
    overhead += rt_ms - local.stop();
  }
  return {median(pings), overhead / static_cast<double>(inputs.size())};
}

/// The same against a daemon of its own, drained and checked like the
/// fpsnrd workload's.
ServiceTotals service_probe(Recorder& r, const Session& session,
                            const std::vector<Input>& inputs, double target) {
  Daemon daemon(r.opt.threads);
  ServiceTotals t;
  {
    fpsnr::service::Client client(daemon.endpoint());
    t = service_probe(session, client, inputs, target);
    client.shutdown_server();
  }
  check_stopped(r, daemon);
  return t;
}

/// Session compress + decompress of every input once: the facade spans of
/// workloads whose passes make no Session calls of their own.
std::pair<double, double> facade_replay(const Session& session,
                                        const std::vector<Input>& inputs,
                                        double target) {
  double c = 0.0, d = 0.0;
  for (const Input& in : inputs) {
    Span cs("facade.compress");
    auto rep = session.compress(Source::memory(in.values, in.dims),
                                FixedPsnr{target}, Sink::memory());
    c += cs.stop();
    Span ds("facade.decompress");
    (void)session.decompress(Source::memory(rep.archive));
    d += ds.stop();
  }
  return {c, d};
}

void set_layer_metrics(Recorder& r, double generate_s, double facade_c_ms,
                       double facade_d_ms, double coded_wall_ms,
                       const LayerTotals& l, const TemporalTotals& t,
                       const ServiceTotals& s) {
  const double predict_quant = l.tile_compress_ms - l.huffman_build_ms -
                               l.huffman_pack_ms - l.lossless_compress_ms;
  r.layer = {
      {"data.generate_s", generate_s, "s"},
      {"facade.compress_ms", facade_c_ms, "ms"},
      {"facade.decompress_ms", facade_d_ms, "ms"},
      {"core.tiles", static_cast<double>(l.tiles), "count"},
      {"core.store_demotions", static_cast<double>(l.store_demotions),
       "count"},
      {"core.gather_ms", l.gather_ms, "ms"},
      {"core.scatter_ms", l.scatter_ms, "ms"},
      {"parallel.busy_ratio",
       l.tile_compress_ms /
           (coded_wall_ms * static_cast<double>(r.opt.threads)),
       "ratio"},
      {"sz.predict_quant_ms", predict_quant, "ms"},
      {"sz.tile_compress_ms", l.tile_compress_ms, "ms"},
      {"sz.tile_decompress_ms", l.tile_decompress_ms, "ms"},
      {"huffman.build_ms", l.huffman_build_ms, "ms"},
      {"huffman.used_symbol_ratio", l.used_symbols / l.alphabet, "ratio"},
      {"huffman.pack_ms", l.huffman_pack_ms, "ms"},
      {"huffman.decode_ms", l.huffman_decode_ms, "ms"},
      {"lossless.compress_ms", l.lossless_compress_ms, "ms"},
      {"lossless.decompress_ms", l.lossless_decompress_ms, "ms"},
      {"lossless.saved_ratio",
       (l.inner_bytes - l.lossless_bytes) / l.inner_bytes, "ratio"},
      {"io.index_ms", l.index_ms, "ms"},
      {"io.framing_bytes_ratio",
       (l.archive_bytes - l.payload_bytes) / l.archive_bytes, "ratio"},
      {"temporal.push_ms", t.push_ms, "ms"},
      {"temporal.self_decode_ms", t.self_decode_ms, "ms"},
      {"temporal.feed_ms", t.feed_ms, "ms"},
      {"temporal.delta_block_ratio",
       t.delta_blocks / t.blocks_in_delta_frames, "ratio"},
      {"service.ping_ms", s.ping_ms, "ms"},
      {"service.overhead_ms", s.overhead_ms, "ms"},
  };
}

/// The traced tail shared by the spatial workloads: replay the last pass's
/// archives layer by layer, plus the temporal and service probes.
void spatial_layers(Recorder& r, const Session& session, double generate_s,
                    const std::vector<Slot*>& slots) {
  LayerTotals l;
  for (const Slot* s : slots) replay_archive(s->in.values, s->archive, l);
  const double fc = r.pass_ms(Request::compress);
  std::vector<Input> probe;
  for (std::size_t i = 0; i < slots.size() && probe.size() < 8; ++i)
    probe.push_back(slots[i]->in);
  set_layer_metrics(r, generate_s, fc, r.pass_ms(Request::decompress), fc, l,
                    temporal_probe(r.opt),
                    service_probe(r, session, probe, 80.0));
}

}  // namespace

// --- fields ------------------------------------------------------------------

void run_fields(Recorder& r) {
  const Options& o = r.opt;
  Span gen("data.generate");
  const fpsnr::data::DatasetConfig cfg{1.0, o.seed};
  const auto nyx = fpsnr::data::make_nyx(cfg);
  const auto hur = fpsnr::data::make_hurricane(cfg);
  const auto atm = fpsnr::data::make_atm(cfg);
  const double generate_s = gen.stop() / 1e3;

  const Session session = make_session(o);
  const double targets[] = {60.0, 80.0, 100.0};
  std::vector<Input> singles = inputs_of(nyx);
  for (const Input& in : inputs_of(hur)) singles.push_back(in);
  const std::vector<Input> batch_in = inputs_of(atm);

  struct Group {
    double target;
    std::vector<Slot> singles, batch;
    std::vector<Slot*> all;  ///< singles then batch
    fpsnr::BatchJob job;
  };
  std::mt19937_64 rng(o.seed);
  std::vector<Group> groups;
  for (double t : targets) {
    Group g;
    g.target = t;
    for (const Input& in : singles) g.singles.push_back({in, t});
    for (const Input& in : batch_in) {
      g.batch.push_back({in, t});
      g.job.fields.push_back({in.name, Source::memory(in.values, in.dims)});
    }
    for (auto* list : {&g.singles, &g.batch})
      for (Slot& s : *list) g.all.push_back(&s);
    g.job.target = FixedPsnr{t};
    g.job.verify = false;
    g.job.keep_archives = true;
    for (Slot& s : g.singles) s.read_keys = keys(rng, 1);
    for (Slot& s : g.batch) s.read_keys = keys(rng, 1);
    groups.push_back(std::move(g));
  }
  std::vector<Slot*> all;
  for (const Group& g : groups) all.insert(all.end(), g.all.begin(), g.all.end());

  const auto pass = [&](PassTotals& p) {
    for (Group& g : groups) {
      for (Slot& s : g.singles) {
        const double ms = r.op("facade.compress", [&] {
          auto rep = session.compress(Source::memory(s.in.values, s.in.dims),
                                      FixedPsnr{g.target}, Sink::memory());
          s.archive = std::move(rep.archive);
          s.reported_db = rep.achieved_psnr_db;
        });
        p.add(Request::compress, s.in.bytes(), ms);
      }
      double batch_bytes = 0.0;
      for (const Slot& s : g.batch) batch_bytes += s.in.bytes();
      const double ms = r.op("facade.compress_batch", [&] {
        auto rep = session.compress_batch(g.job);
        for (std::size_t i = 0; i < g.batch.size(); ++i) {
          g.batch[i].archive = std::move(rep.fields.at(i).archive);
          g.batch[i].reported_db = rep.fields[i].actual_psnr_db;
        }
      });
      p.add(Request::compress, batch_bytes, ms);
      for (auto* list : {&g.singles, &g.batch})
        for (Slot& s : *list) {
          const double dms = r.op("facade.decompress", [&] {
            s.decoded = session.decompress(Source::memory(s.archive)).f32;
          });
          p.add(Request::decompress, s.in.bytes(), dms);
        }
      read_blocks(r, p, session, g.all);
    }
  };

  PassTotals warm;
  pass(warm);
  for (Slot* s : all) learn(session, *s);
  r.setup_s = seconds_since(o.start);

  r.timed_passes(pass);
  for (const Slot* s : all) check_slot(r, *s);
  r.checker.self_test(all[0]->in.values, all[0]->decoded, all[0]->archive,
                      all[0]->target);
  if (o.trace) spatial_layers(r, session, generate_s, all);
}

// --- roi ---------------------------------------------------------------------

void run_roi(Recorder& r) {
  const Options& o = r.opt;
  Span gen("data.generate");
  const fpsnr::data::DatasetConfig cfg{1.0, o.seed};
  const auto nyx = fpsnr::data::make_nyx(cfg);
  const auto hur = fpsnr::data::make_hurricane(cfg);
  const double generate_s = gen.stop() / 1e3;

  const Session session = make_session(o, {16, 16, 16});
  constexpr double kTarget = 80.0;
  constexpr std::size_t kReadsPerField = 32;
  std::mt19937_64 rng(o.seed);
  std::vector<Slot> slots;
  for (const auto* ds : {&nyx, &hur})
    for (const Input& in : inputs_of(*ds)) {
      slots.push_back({in, kTarget});
      slots.back().read_keys = keys(rng, kReadsPerField);
    }
  std::vector<Slot*> all;
  for (Slot& s : slots) all.push_back(&s);

  const auto pass = [&](PassTotals& p) {
    for (Slot& s : slots) {
      const double ms = r.op("facade.compress", [&] {
        auto rep = session.compress(Source::memory(s.in.values, s.in.dims),
                                    FixedPsnr{kTarget}, Sink::memory());
        s.archive = std::move(rep.archive);
        s.reported_db = rep.achieved_psnr_db;
      });
      p.add(Request::compress, s.in.bytes(), ms);
    }
    for (Slot& s : slots) {
      const double ms = r.op("facade.decompress", [&] {
        s.decoded = session.decompress(Source::memory(s.archive)).f32;
      });
      p.add(Request::decompress, s.in.bytes(), ms);
    }
    read_blocks(r, p, session, all);
  };

  PassTotals warm;
  pass(warm);
  for (Slot& s : slots) learn(session, s);
  r.setup_s = seconds_since(o.start);

  r.timed_passes(pass);
  for (Slot& s : slots) check_slot(r, s);
  r.checker.self_test(slots[0].in.values, slots[0].decoded, slots[0].archive,
                      kTarget);
  if (o.trace) spatial_layers(r, session, generate_s, all);
}

// --- series ------------------------------------------------------------------

void run_series(Recorder& r) {
  const Options& o = r.opt;
  Span gen("data.generate");
  fpsnr::data::TimeSeriesConfig cfg;
  cfg.dims = fpsnr::data::Dims{16, 64, 64};
  cfg.snapshots = 128;
  cfg.dt = 0.02;  // slow evolution: most tiles code the temporal delta
  cfg.seed = o.seed;
  const auto series = fpsnr::data::make_advected_series(cfg);
  std::vector<fpsnr::Field> snaps;
  for (const auto& f : series) snaps.push_back({f.dims.extents, f.values, {}});
  const double generate_s = gen.stop() / 1e3;

  constexpr double kTarget = 60.0;
  constexpr std::size_t kKeyframeInterval = 8;
  constexpr std::size_t kReadsPerKeyframe = 4;
  const Session session = make_session(o);
  fpsnr::TimeSeriesOptions topt;
  topt.session = session.options();
  topt.series = "perfbench";
  topt.keyframe_interval = kKeyframeInterval;
  topt.keep_archives = false;

  std::mt19937_64 rng(o.seed);
  std::vector<Slot> slots;
  std::vector<std::size_t> delta_blocks(snaps.size()),
      frame_blocks(snaps.size());
  for (std::size_t t = 0; t < snaps.size(); ++t) {
    slots.push_back({{series[t].name, snaps[t].f32, snaps[t].dims}, kTarget});
    if (t % kKeyframeInterval == 0)
      slots.back().read_keys = keys(rng, kReadsPerKeyframe);
  }
  std::vector<Slot*> all;
  for (Slot& s : slots) all.push_back(&s);

  const auto pass = [&](PassTotals& p) {
    fpsnr::TimeSeriesSession ts(FixedPsnr{kTarget}, topt);
    for (std::size_t t = 0; t < snaps.size(); ++t) {
      Slot& s = slots[t];
      const double ms = r.op("timeseries.push", [&] {
        auto rec = ts.push(snaps[t]);
        s.archive = std::move(rec.report.archive);
        s.reported_db = rec.report.achieved_psnr_db;
        delta_blocks[t] = rec.keyframe ? 0 : rec.temporal_blocks;
        frame_blocks[t] = rec.keyframe ? 0 : rec.block_count;
      });
      p.add(Request::compress, s.in.bytes(), ms);
    }
    fpsnr::TimeSeriesDecoder dec(o.threads);
    for (Slot& s : slots) {
      const double ms =
          r.op("timeseries.feed", [&] { s.decoded = dec.feed(s.archive).f32; });
      p.add(Request::decompress, s.in.bytes(), ms);
    }
    read_blocks(r, p, session, all);
  };

  PassTotals warm;
  pass(warm);
  for (Slot& s : slots) learn(session, s);
  r.setup_s = seconds_since(o.start);

  r.timed_passes(pass);
  for (std::size_t t = 0; t < slots.size(); ++t)
    check_slot(r, slots[t],
               t % kKeyframeInterval ? std::span<const float>(slots[t - 1].decoded)
                                     : std::span<const float>());
  r.checker.self_test(slots[0].in.values, slots[0].decoded, slots[0].archive,
                      kTarget);
  if (!o.trace) return;

  // Layer replay over the chain: delta frames replay the composite the
  // planner built against the previous reconstruction.
  LayerTotals l;
  std::vector<std::vector<std::uint8_t>> frames;
  TemporalTotals t;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    frames.push_back(s.archive);
    t.delta_blocks += static_cast<double>(delta_blocks[i]);
    t.blocks_in_delta_frames += static_cast<double>(frame_blocks[i]);
    const auto h = fpsnr::io::block_container_header(s.archive);
    if (!h.is_delta_frame()) {
      replay_archive(s.in.values, s.archive, l);
      continue;
    }
    const fpsnr::data::Dims dims(s.in.dims);
    const std::vector<std::size_t> tile(h.tile.begin(), h.tile.end());
    Span plan("temporal.build_composite");
    const auto composite = fpsnr::temporal::build_composite<float>(
        s.in.values, slots[i - 1].decoded, dims,
        fpsnr::core::make_layout(dims, tile));
    plan.stop();
    replay_archive(composite.values, s.archive, l);
  }
  t.push_ms = r.pass_ms(Request::compress);
  t.feed_ms = r.pass_ms(Request::decompress);
  t.self_decode_ms = self_decode_ms(o.threads, frames);
  std::vector<Input> inputs;
  for (const Slot& s : slots) inputs.push_back(s.in);
  const auto [fc, fd] = facade_replay(session, inputs, kTarget);
  std::vector<Input> probe(inputs.begin(), inputs.begin() + 8);
  set_layer_metrics(r, generate_s, fc, fd, t.push_ms, l, t,
                    service_probe(r, session, probe, kTarget));
}

// --- fpsnrd ------------------------------------------------------------------

void run_fpsnrd(Recorder& r) {
  const Options& o = r.opt;
  Span gen("data.generate");
  const fpsnr::data::DatasetConfig cfg{1.0, o.seed};
  const auto hur = fpsnr::data::make_hurricane(cfg);
  const auto atm = fpsnr::data::make_atm(cfg);
  std::vector<Input> inputs = inputs_of(hur);
  for (const Input& in : inputs_of(atm)) inputs.push_back(in);
  const double generate_s = gen.stop() / 1e3;

  constexpr double kTarget = 80.0;
  constexpr std::size_t kClients = 2;
  const std::size_t n = inputs.size();

  // In-process references: what every served archive and decode must equal.
  const Session session = make_session(o);
  std::vector<Slot> refs;
  std::mt19937_64 rng(o.seed);
  for (const Input& in : inputs) {
    Slot s{in, kTarget};
    auto rep = session.compress(Source::memory(in.values, in.dims),
                                FixedPsnr{kTarget}, Sink::memory());
    s.archive = std::move(rep.archive);
    s.reported_db = rep.achieved_psnr_db;
    s.decoded = session.decompress(Source::memory(s.archive)).f32;
    s.read_keys = keys(rng, 1);
    learn(session, s);
    refs.push_back(std::move(s));
  }

  Daemon daemon(o.threads);
  struct ClientState {
    std::unique_ptr<fpsnr::service::Client> client;
    std::vector<std::vector<std::uint8_t>> archives;
    std::vector<double> reported;
    std::vector<std::vector<float>> decoded;
    std::vector<Request> requests;
    std::uint64_t attempted = 0, failed = 0;
  };
  std::vector<ClientState> clients(kClients);
  for (ClientState& c : clients) {
    c.client = std::make_unique<fpsnr::service::Client>(daemon.endpoint());
    c.archives.resize(n);
    c.reported.assign(n, NAN);
    c.decoded.resize(n);
  }

  // One closed-loop client: every field, Compress then Decompress of the
  // reply, each request sent only after the previous answer arrived. The
  // clients start half a list apart so they do not move in lockstep.
  const auto client_loop = [&](std::size_t ci) {
    ClientState& c = clients[ci];
    c.requests.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + ci * n / kClients) % n;
      const Input& in = inputs[i];
      const auto spec = spec_for(in, kTarget, session);
      for (bool compress : {true, false}) {
        ++c.attempted;
        const double ms =
            compress ? time_op("service.compress",
                               [&] {
                                 auto res = c.client->compress(in.values, spec);
                                 c.archives[i] = std::move(res.archive);
                                 c.reported[i] = res.achieved_psnr_db;
                               })
                     : time_op("service.decompress", [&] {
                         c.decoded[i] = c.client->decompress(c.archives[i]).f32;
                       });
        c.requests.push_back({compress ? Request::compress : Request::decompress,
                              in.bytes(), ms < 0 ? NAN : ms});
        if (ms < 0) ++c.failed;
      }
    }
  };

  // After each round, outside its timing: every reply must equal the
  // in-process reference, then one seeded block read per served archive.
  const auto verify_round = [&](PassTotals& p) {
    for (std::size_t ci = 0; ci < kClients; ++ci) {
      ClientState& c = clients[ci];
      for (std::size_t i = 0; i < n; ++i) {
        const std::string what = "fpsnrd client " + std::to_string(ci) + " " +
                                 inputs[i].name;
        r.checker.expect(check_same_bytes(refs[i].archive, c.archives[i]),
                         what + " archive");
        r.checker.expect(check_same_values(refs[i].decoded, c.decoded[i]),
                         what + " decode");
        if (!(c.reported[i] == refs[i].reported_db))
          r.checker.expect("reported PSNR differs from in-process", what);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = refs[i];
      const std::vector<std::uint8_t>& served = clients[0].archives[i];
      std::vector<float> block;
      const double ms = r.op("facade.decompress_block", [&] {
        block = session.decompress_block(Source::memory(served), s.block(0))
                    .f32;
      });
      p.read_ms.push_back(ms < 0 ? NAN : ms);
      if (ms < 0) continue;
      r.checker.expect(
          check_same_values(region_of(s.decoded, s.in.dims, s.tile, s.block(0)),
                            block),
          "fpsnrd " + s.in.name + " block read");
    }
  };

  const auto round = [&](PassTotals& p) {
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (std::size_t ci = 0; ci < kClients; ++ci)
        threads.emplace_back(client_loop, ci);
    }
    p.stretch_s.push_back(seconds_since(t0));
    for (ClientState& c : clients) {
      p.requests.insert(p.requests.end(), c.requests.begin(),
                        c.requests.end());
      r.attempted += std::exchange(c.attempted, 0);
      r.failed += std::exchange(c.failed, 0);
    }
    verify_round(p);
  };

  PassTotals warm;
  round(warm);
  r.setup_s = seconds_since(o.start);

  r.timed_passes(round);
  // Every round matched the references, so checking them against the
  // served PSNR checks the served outputs.
  for (std::size_t i = 0; i < n; ++i) {
    refs[i].reported_db = clients[0].reported[i];
    check_slot(r, refs[i]);
  }
  r.checker.self_test(refs[0].in.values, refs[0].decoded, refs[0].archive,
                      kTarget);

  ServiceTotals svc;
  if (o.trace)
    svc = service_probe(session, *clients[0].client, inputs, kTarget);
  clients[0].client->shutdown_server();
  clients.clear();
  check_stopped(r, daemon);
  if (!o.trace) return;

  LayerTotals l;
  for (const Slot& s : refs) replay_archive(s.in.values, s.archive, l);
  const auto [fc, fd] = facade_replay(session, inputs, kTarget);
  set_layer_metrics(r, generate_s, fc, fd, fc, l, temporal_probe(o), svc);
}

}  // namespace perfbench
