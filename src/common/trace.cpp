#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/json_writer.hpp"
#include "common/logging.hpp"

namespace llmpq {

/// Ring buffer owned (written) by exactly one thread. The mutex is only
/// ever contended by the exporter / name-setter; the owning thread's
/// append takes it uncontended (~20 ns), far below the microsecond-scale
/// spans being recorded.
struct TraceSession::ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t head = 0;      ///< next write index
  std::uint64_t total = 0;   ///< events ever appended
  std::uint32_t tid = 0;
  std::string name;
};

struct TraceSession::State {
  mutable std::mutex mu;
  bool started = false;
  std::chrono::steady_clock::time_point base;
  std::size_t capacity = 1 << 16;
  std::uint32_t next_tid = 0;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> track_names;
  std::map<std::uint32_t, std::string> process_names;
};

namespace {

/// Per-thread buffer cache, invalidated when the session generation bumps
/// (start() discards old buffers; the shared_ptr keeps a mid-append buffer
/// alive for any thread still holding it).
struct TlsCache {
  std::shared_ptr<TraceSession::ThreadBuffer> buf;
  std::uint64_t generation = ~std::uint64_t{0};
};

thread_local TlsCache g_tls;

}  // namespace

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

TraceSession::State* TraceSession::state() const {
  State* s = state_.load(std::memory_order_acquire);
  if (s != nullptr) return s;
  State* fresh = new State();
  if (state_.compare_exchange_strong(s, fresh, std::memory_order_acq_rel))
    return fresh;
  delete fresh;
  return s;
}

void TraceSession::start(std::size_t events_per_thread) {
  State* s = state();
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->started = true;
    s->base = std::chrono::steady_clock::now();
    s->capacity = std::max<std::size_t>(16, events_per_thread);
    s->next_tid = 0;
    s->buffers.clear();
    s->track_names.clear();
    s->process_names = {{trace_pids::kRuntime, "runtime"},
                        {trace_pids::kSim, "sim"},
                        {trace_pids::kServe, "serve"}};
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void TraceSession::stop() { enabled_.store(false, std::memory_order_release); }

double TraceSession::now_s() {
  TraceSession& inst = instance();
  State* s = inst.state();
  std::lock_guard<std::mutex> lk(s->mu);
  if (!s->started) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       s->base)
      .count();
}

namespace {

std::uint64_t session_ns(const std::chrono::steady_clock::time_point& base) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base)
          .count());
}

std::uint64_t seconds_to_ns(double s) {
  if (!(s > 0.0)) return 0;  // clamp negatives / NaN to the timeline origin
  return static_cast<std::uint64_t>(s * 1e9);
}

}  // namespace

TraceSession::ThreadBuffer* TraceSession::thread_buffer() {
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (g_tls.buf && g_tls.generation == gen) return g_tls.buf.get();
  State* s = state();
  auto buf = std::make_shared<ThreadBuffer>();
  {
    std::lock_guard<std::mutex> lk(s->mu);
    buf->ring.resize(s->capacity);
    buf->tid = s->next_tid++;
    s->buffers.push_back(buf);
  }
  g_tls.buf = std::move(buf);
  g_tls.generation = gen;
  return g_tls.buf.get();
}

void TraceSession::append(const TraceEvent& event) {
  ThreadBuffer* b = thread_buffer();
  std::lock_guard<std::mutex> lk(b->mu);
  b->ring[b->head] = event;
  b->head = (b->head + 1) % b->ring.size();
  ++b->total;
}

// ---- Wall-clock fast paths. Each returns on one relaxed load when off.

void TraceSession::counter(const char* category, const char* name,
                           double value) {
  if (!enabled()) return;
  TraceSession& inst = instance();
  State* s = inst.state();
  TraceEvent e;
  e.phase = 'C';
  e.category = category;
  e.name = name;
  e.arg_name = name;
  e.arg_value = value;
  e.pid = trace_pids::kRuntime;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    e.ts_ns = session_ns(s->base);
  }
  e.tid = inst.thread_buffer()->tid;
  inst.append(e);
}

void TraceSession::instant(const char* category, const char* name) {
  if (!enabled()) return;
  TraceSession& inst = instance();
  State* s = inst.state();
  TraceEvent e;
  e.phase = 'i';
  e.category = category;
  e.name = name;
  e.pid = trace_pids::kRuntime;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    e.ts_ns = session_ns(s->base);
  }
  e.tid = inst.thread_buffer()->tid;
  inst.append(e);
}

void TraceSession::emit_complete(const char* category, const char* name,
                                 double ts_s, double dur_s, std::uint32_t pid,
                                 std::uint32_t tid, const char* arg_name,
                                 double arg_value) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'X';
  e.category = category;
  e.name = name;
  e.ts_ns = seconds_to_ns(ts_s);
  e.dur_ns = seconds_to_ns(dur_s);
  e.pid = pid;
  e.tid = tid;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  instance().append(e);
}

void TraceSession::emit_async(char phase, const char* category,
                              const char* name, double ts_s, std::uint64_t id,
                              std::uint32_t pid) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = phase;
  e.category = category;
  e.name = name;
  e.ts_ns = seconds_to_ns(ts_s);
  e.id = id;
  e.pid = pid;
  instance().append(e);
}

void TraceSession::set_thread_name(const std::string& name) {
  if (!enabled() || name.empty()) return;
  ThreadBuffer* b = instance().thread_buffer();
  std::lock_guard<std::mutex> lk(b->mu);
  if (b->name.empty()) b->name = name;
}

void TraceSession::set_track_name(std::uint32_t pid, std::uint32_t tid,
                                  const std::string& name) {
  if (!enabled()) return;
  State* s = state();
  std::lock_guard<std::mutex> lk(s->mu);
  s->track_names[{pid, tid}] = name;
}

std::uint64_t TraceSession::dropped() const {
  State* s = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    buffers = s->buffers;
  }
  std::uint64_t dropped = 0;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lk(b->mu);
    if (b->total > b->ring.size()) dropped += b->total - b->ring.size();
  }
  return dropped;
}

std::vector<TraceEvent> TraceSession::snapshot() const {
  State* s = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    buffers = s->buffers;
  }
  std::vector<TraceEvent> events;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lk(b->mu);
    const std::size_t n = b->ring.size();
    const std::size_t kept = static_cast<std::size_t>(
        std::min<std::uint64_t>(b->total, n));
    // Oldest kept event sits at `head` once the ring has wrapped.
    const std::size_t first = b->total > n ? b->head : 0;
    for (std::size_t i = 0; i < kept; ++i)
      events.push_back(b->ring[(first + i) % n]);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.tid < b.tid;
                   });
  return events;
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  State* s = state();
  std::map<std::uint32_t, std::string> process_names;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> track_names;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    process_names = s->process_names;
    track_names = s->track_names;
    for (const auto& b : s->buffers) {
      std::lock_guard<std::mutex> blk(b->mu);
      if (!b->name.empty())
        track_names[{trace_pids::kRuntime, b->tid}] = b->name;
    }
  }

  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  auto metadata = [&](const char* kind, std::uint32_t pid, std::uint32_t tid,
                      const std::string& value) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", kind);
    w.kv("pid", pid);
    w.kv("tid", tid);
    w.key("args");
    w.begin_object();
    w.kv("name", value);
    w.end_object();
    w.end_object();
  };
  for (const auto& [pid, name] : process_names)
    metadata("process_name", pid, 0, name);
  for (const auto& [key, name] : track_names)
    metadata("thread_name", key.first, key.second, name);

  for (const TraceEvent& e : snapshot()) {
    w.begin_object();
    const char phase[2] = {e.phase, '\0'};
    w.kv("ph", phase);
    w.kv("cat", e.category != nullptr ? e.category : "");
    w.kv("name", e.name != nullptr ? e.name : "");
    w.kv("pid", e.pid);
    w.kv("tid", e.tid);
    w.kv("ts", static_cast<double>(e.ts_ns) / 1e3);  // µs
    if (e.phase == 'X') w.kv("dur", static_cast<double>(e.dur_ns) / 1e3);
    if (e.phase == 'b' || e.phase == 'e') {
      char idbuf[24];
      std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                    static_cast<unsigned long long>(e.id));
      w.kv("id", idbuf);
    }
    if (e.phase == 'i') w.kv("s", "t");  // thread-scoped instant
    if (e.arg_name != nullptr) {
      w.key("args");
      w.begin_object();
      w.kv(e.arg_name, e.arg_value);
      w.end_object();
    }
    w.end_object();
  }

  w.end_array();
  w.end_object();
}

bool TraceSession::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    LOG_WARN << "trace: cannot open " << path << " for writing";
    return false;
  }
  write_chrome_trace(os);
  os.flush();
  if (!os) {
    LOG_WARN << "trace: short write to " << path;
    return false;
  }
  return true;
}

// ---- TraceSpan.

TraceSpan::TraceSpan(const char* category, const char* name,
                     const char* arg_name, double arg_value)
    : category_(category),
      name_(name),
      arg_name_(arg_name),
      arg_value_(arg_value),
      start_ns_(0),
      active_(TraceSession::enabled()) {
  if (active_) start_ns_ = seconds_to_ns(TraceSession::now_s());
}

TraceSpan::~TraceSpan() {
  if (!active_ || !TraceSession::enabled()) return;
  const std::uint64_t end_ns = seconds_to_ns(TraceSession::now_s());
  TraceSession& inst = TraceSession::instance();
  TraceEvent e;
  e.phase = 'X';
  e.category = category_;
  e.name = name_;
  e.ts_ns = start_ns_;
  e.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  e.pid = trace_pids::kRuntime;
  e.tid = inst.thread_buffer()->tid;
  e.arg_name = arg_name_;
  e.arg_value = arg_value_;
  inst.append(e);
}

}  // namespace llmpq
