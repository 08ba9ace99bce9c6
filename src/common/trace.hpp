#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace llmpq {

/// Low-overhead span/counter tracer exporting Chrome "trace event" JSON
/// (open the file in chrome://tracing or https://ui.perfetto.dev). This is
/// the machine-readable counterpart to `PipelineEngine::stats()`: where the
/// stats aggregate, the trace keeps the timeline — per-stage busy spans,
/// qgemm/attention sub-spans, mailbox waits, scheduler decisions and
/// per-request queue→prefill→decode lifecycles.
///
/// Design:
///   * One process-wide `TraceSession`. `start()` arms it; until then every
///     recording call is a relaxed atomic load + branch — no clock read, no
///     allocation (pinned by the zero-allocation regression test).
///   * Per-thread ring buffers of POD events, written lock-free by their
///     owning thread (a light per-buffer mutex is only contended by the
///     exporter). A full ring overwrites the oldest events and counts the
///     drops — tracing never blocks the traced code.
///   * Category/name/arg-key strings must be string literals (or otherwise
///     outlive the session): events store the pointers.
///   * Virtual timelines (the discrete-event simulator, the serving
///     scheduler's request lifecycles) are emitted through the explicit-
///     timestamp functions onto their own pid tracks, so a *simulated*
///     schedule and a *measured* runtime schedule of the same plan land in
///     one trace for side-by-side comparison (the Fig. 7 cost-model
///     fidelity check, visually).
///
/// Track layout: pid 0 = runtime (real threads), pid 1 = simulator (one
/// tid per pipeline stage), pid 2 = serving (scheduler decisions +
/// per-request async lifecycle spans keyed by request id).
namespace trace_pids {
constexpr std::uint32_t kRuntime = 0;
constexpr std::uint32_t kSim = 1;
constexpr std::uint32_t kServe = 2;
}  // namespace trace_pids

/// One recorded event (POD; ~64 bytes). `phase` uses the Chrome trace
/// phase letters: 'X' complete, 'C' counter, 'b'/'e' async begin/end,
/// 'i' instant.
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  const char* arg_name = nullptr;  ///< optional numeric arg key
  double arg_value = 0.0;
  std::uint64_t ts_ns = 0;   ///< since session start (or virtual clock)
  std::uint64_t dur_ns = 0;  ///< 'X' only
  std::uint64_t id = 0;      ///< async correlation id ('b'/'e')
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  char phase = 'X';
};

class TraceSession {
 public:
  /// The process-wide session used by the TRACE_* macros.
  static TraceSession& instance();

  /// Arms tracing. Clears previously collected events; per-thread rings
  /// hold `events_per_thread` events each (oldest overwritten when full).
  void start(std::size_t events_per_thread = 1 << 16);

  /// Disarms tracing; collected events stay available for export.
  void stop();

  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  /// Seconds since start() on the session clock (0 when never started).
  /// Back-ends with their own clock use this to align explicit-timestamp
  /// events with wall-clock spans.
  static double now_s();

  // ---- Wall-clock recording (timestamps from the session clock). All are
  // no-ops (one relaxed load) when tracing is off.
  static void counter(const char* category, const char* name, double value);
  static void instant(const char* category, const char* name);

  // ---- Explicit-timestamp recording (virtual clocks: simulator, serving
  // scheduler). `ts_s`/`dur_s` are seconds on the caller's clock; callers
  // that want alignment with the wall-clock tracks add their offset to
  // now_s() themselves.
  static void emit_complete(const char* category, const char* name,
                            double ts_s, double dur_s, std::uint32_t pid,
                            std::uint32_t tid,
                            const char* arg_name = nullptr,
                            double arg_value = 0.0);
  static void emit_async(char phase, const char* category, const char* name,
                         double ts_s, std::uint64_t id, std::uint32_t pid);

  /// Names the calling thread's track (metadata event on export). Safe to
  /// call repeatedly; only the first non-empty name per session sticks.
  static void set_thread_name(const std::string& name);

  /// Names an explicit (pid, tid) track — used by virtual timelines.
  void set_track_name(std::uint32_t pid, std::uint32_t tid,
                      const std::string& name);

  /// Events lost to ring-buffer wrap since start().
  std::uint64_t dropped() const;

  /// All collected events, sorted by (ts, tid). Primarily for tests; the
  /// usual consumer is write_chrome_trace().
  std::vector<TraceEvent> snapshot() const;

  /// Writes the collected events as a Chrome trace-event JSON document
  /// ({"traceEvents": [...]}, timestamps in microseconds).
  void write_chrome_trace(std::ostream& os) const;

  /// write_chrome_trace() to a file; false (with a log line) on I/O error.
  bool write_chrome_trace_file(const std::string& path) const;

  // Internal: called by the recording fast paths.
  struct ThreadBuffer;
  ThreadBuffer* thread_buffer();
  void append(const TraceEvent& event);

 private:
  TraceSession() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};

  struct State;
  State* state() const;
  mutable std::atomic<State*> state_{nullptr};
};

/// RAII wall-clock span on the calling thread's track. Records nothing —
/// and reads no clock — when tracing is off at construction.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name,
            const char* arg_name = nullptr, double arg_value = 0.0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* category_;
  const char* name_;
  const char* arg_name_;
  double arg_value_;
  std::uint64_t start_ns_;
  bool active_;
};

// Define LLMPQ_TRACE_DISABLED to compile every trace macro to nothing (the
// runtime check already costs ~1 ns; this removes even that).
#ifndef LLMPQ_TRACE_DISABLED

#define LLMPQ_TRACE_CAT2(a, b) a##b
#define LLMPQ_TRACE_CAT(a, b) LLMPQ_TRACE_CAT2(a, b)

/// Scoped span: TRACE_SPAN("engine", "prefill");
#define TRACE_SPAN(category, name) \
  ::llmpq::TraceSpan LLMPQ_TRACE_CAT(llmpq_trace_span_, __LINE__)(category, \
                                                                  name)

/// Scoped span with one numeric arg:
/// TRACE_SPAN1("engine", "microbatch", "seq_len", 16);
#define TRACE_SPAN1(category, name, arg_name, arg_value)             \
  ::llmpq::TraceSpan LLMPQ_TRACE_CAT(llmpq_trace_span_, __LINE__)(   \
      category, name, arg_name, static_cast<double>(arg_value))

#define TRACE_COUNTER(category, name, value) \
  ::llmpq::TraceSession::counter(category, name, static_cast<double>(value))

#define TRACE_INSTANT(category, name) \
  ::llmpq::TraceSession::instant(category, name)

#else  // LLMPQ_TRACE_DISABLED

#define TRACE_SPAN(category, name) ((void)0)
#define TRACE_SPAN1(category, name, arg_name, arg_value) ((void)0)
#define TRACE_COUNTER(category, name, value) ((void)0)
#define TRACE_INSTANT(category, name) ((void)0)

#endif  // LLMPQ_TRACE_DISABLED

}  // namespace llmpq
