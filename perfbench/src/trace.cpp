#include "trace.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  std::uint32_t tid;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
const Clock::time_point g_epoch = Clock::now();
std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex

thread_local std::uint64_t t_current = 0;  // innermost open span
thread_local std::uint64_t t_op = 0;
thread_local std::uint32_t t_tid = 0;

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

}  // namespace

void trace_enable(bool on) { g_enabled = on; }

void trace_new_op() { t_op = g_next_id++; }

Span::Span(const char* name) : name_(name), start_(Clock::now()) {
  if (g_enabled) {
    id_ = g_next_id++;
    parent_ = t_current;
    t_current = id_;
  }
}

Span::~Span() { stop(); }

double Span::stop() {
  if (!open_) return ms_;
  open_ = false;
  const auto end = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (id_ != 0) {
    t_current = parent_;
    if (t_tid == 0) t_tid = g_next_tid++;
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_records.push_back({name_, ns_since_epoch(start_), ns_since_epoch(end),
                         id_, parent_, t_op, t_tid});
  }
  return ms_;
}

void trace_write(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Record& r : g_records) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << r.tid << ",\"ts\":" << r.start_ns / 1000.0
        << ",\"dur\":" << (r.end_ns - r.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"op\":" << r.op << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
