#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "runtime/microbatch.hpp"
#include "runtime/transformer.hpp"

namespace llmpq {

/// Shared-state cancellation handle: copy it into GenerateOptions, keep a
/// copy, and cancel() from any thread to abort the in-flight generate().
/// Cancellation (like a deadline) leaves micro-batches stranded inside the
/// pipeline, so the engine marks itself broken and requires restart().
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  void reset() { flag_->store(false, std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

struct GenerateOptions {
  /// Wall-clock budget for the whole generate() call. On expiry the master
  /// stops waiting for in-flight micro-batches and throws
  /// PipelineAbortError (needs_restart) — the guard that converts a
  /// dropped message or an unbounded straggler into a recoverable fault.
  double deadline_s = std::numeric_limits<double>::infinity();
  CancelToken cancel;
};

/// generate() was aborted by its deadline or its cancel token. In-flight
/// micro-batches may still be inside the pipeline, so the engine is broken
/// until restart().
class PipelineAbortError : public Error {
 public:
  PipelineAbortError(const std::string& what, bool timed_out)
      : Error(what), timed_out_(timed_out) {}
  bool timed_out() const { return timed_out_; }

 private:
  bool timed_out_;
};

/// What the last failed generate() call lost, for callers (the serving
/// loop) that re-enqueue work: `lost_rows` are the batch row indices whose
/// in-progress round never completed — under the engine's all-or-nothing
/// output contract every row of a failed call loses its output, but
/// lost_rows pinpoints the micro-batches that were actually in flight.
struct EngineFailureInfo {
  bool failed = false;
  bool needs_restart = false;  ///< restart() required before reuse
  std::string what;
  std::vector<int> lost_rows;
};

/// Distributed (multi-threaded) pipeline inference engine — the runtime
/// half of LLM-PQ (paper Sec. 3/5), scaled to CPU threads: one persistent
/// worker thread per pipeline stage, message-passing via bounded mailboxes,
/// a master engine handling embedding, logits and micro-batch sizing, and a
/// paged KV cache (`KvCacheManager`) per stage and layer. Token output is
/// bit-for-bit identical to the single-threaded reference (tests enforce
/// this).
///
/// Two execution surfaces share one pipeline:
///   * generate() — the batch call: ephemeral sessions are created for the
///     prompts, prefilled, decoded `gen_tokens - 1` further rounds, and
///     released. Prompts must share one padded length (legacy contract).
///   * the step-level session API — begin_session / prefill / decode_step /
///     end_session: sessions persist across calls with their KV pages
///     intact, so a serving loop can advance the *active set* one token per
///     iteration with KV reuse instead of replaying full contexts, and
///     sessions of different lengths batch together exactly (ragged
///     passes have no pad tokens to attend to).
///
/// Session calls are master-side: they must come from one thread at a time
/// (the serving loop owns its engine). Failure semantics match generate():
/// an ordinary stage error drains in-flight work, rolls every
/// participating session's KV back to its last committed length, and
/// rethrows with the engine healthy; deadline/cancel marks the engine
/// broken and defers the same rollback to restart(). Tokens are committed
/// to a session only after its pass fully succeeds, so a retried pass
/// never double-advances a session.
///
/// Lifecycle: stage workers and mailboxes are created once in the
/// constructor and joined in the destructor (RAII), so repeated generate()
/// calls reuse threads and KV-cache allocations. generate() is
/// exception-safe: an error in the master (bad token, cache overflow) or in
/// any stage worker drains the in-flight micro-batches, rethrows to the
/// caller, and leaves the engine ready for the next call — no terminate, no
/// hang, no leaked threads.
class PipelineEngine {
 public:
  /// `stage_layers[p]` = [begin, end) layer range of stage p (empty ranges
  /// allowed and skipped). Weights are shared, not copied, and must outlive
  /// the engine. Micro-batch sizes must be >= 1.
  PipelineEngine(const ModelWeights& weights,
                 std::vector<std::pair<int, int>> stage_layers,
                 int prefill_micro_batch, int decode_micro_batch);
  ~PipelineEngine();

  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  /// Generates `gen_tokens` tokens per prompt (greedy). Prompts must be
  /// non-empty and share one padded length. Reusable across calls (caches
  /// reset per call, buffers reused when the shape matches).
  std::vector<std::vector<TokenId>> generate(
      const std::vector<std::vector<TokenId>>& prompts, int gen_tokens);

  /// As above, with a per-call deadline and cancellation token. Deadline
  /// expiry or cancellation throws PipelineAbortError and leaves the
  /// engine broken (healthy() == false) until restart(); ordinary stage
  /// exceptions still drain and rethrow without breaking the engine.
  std::vector<std::vector<TokenId>> generate(
      const std::vector<std::vector<TokenId>>& prompts, int gen_tokens,
      const GenerateOptions& options);

  // ---- Step-level session API (continuous batching). Sessions keep
  // their KV pages across calls and across restart(); only pages a failed
  // pass partially appended are rolled back.

  /// Registers a session holding `prompt` (non-empty) and reserves nothing
  /// yet — pages are reserved by prefill()/decode_step(). Returns the
  /// session id.
  int begin_session(std::vector<TokenId> prompt);

  /// Releases a session and returns its KV pages to the pool (deferred to
  /// restart() while the engine is broken, when stranded workers may still
  /// touch the caches).
  void end_session(int session);

  bool has_session(int session) const;
  /// Tokens the session holds (prompt + sampled): committed KV plus the
  /// one sampled-but-not-yet-fed token after a successful pass.
  std::size_t session_length(int session) const;
  /// Tokens whose KV is materialized (0 until prefill succeeds). Together
  /// with session_length this tells a retrying caller exactly where a
  /// session stands: committed == 0 needs prefill, length == committed + 1
  /// is mid-generation.
  std::size_t session_committed(int session) const;
  /// The session's most recent token (the one decode_step would feed).
  TokenId session_back(int session) const;

  /// Runs each session's full pending prompt through the pipeline (ragged:
  /// sessions need not share a length) and returns one greedily sampled
  /// token per session, in `sessions` order. Sessions must be freshly
  /// begun (nothing committed). On failure no session advances.
  std::vector<TokenId> prefill(const std::vector<int>& sessions,
                               const GenerateOptions& options = {});

  /// Advances each prefilled session by one token: feeds its last token at
  /// its committed position, reusing all cached KV, and returns the next
  /// sampled token per session. On failure no session advances — a retry
  /// repeats the same round exactly.
  std::vector<TokenId> decode_step(const std::vector<int>& sessions,
                                   const GenerateOptions& options = {});

  /// Preempts a live session under memory pressure: releases its KV pages
  /// in every stage/layer manager (snapshotting the committed length via
  /// KvCacheManager::preempt) and resets the session to the un-prefilled
  /// state while keeping its tokens. Resume is exactly prefill() — the
  /// session re-runs its full history (prompt + sampled tokens) and, greedy
  /// sampling being deterministic, continues bit-identically. Returns the
  /// number of KV positions released (0 for a session with nothing
  /// committed — preempting it is a no-op, not an error).
  std::size_t preempt_session(int session);

  /// Bytes held by the paged KV pools across all stages and layers
  /// (monotonic; pages return to the pool, not the OS).
  std::size_t kv_footprint_bytes() const;

  /// False after an abort (deadline/cancel) or a failed drain left
  /// micro-batches stranded in the pipeline; generate() then throws until
  /// restart() is called.
  bool healthy() const;

  /// Details of the most recent failed generate() (cleared by the next
  /// successful call and by restart()).
  EngineFailureInfo last_failure() const;

  /// Tears down the stage workers and mailboxes and rebuilds them,
  /// clearing the broken state. Loaded weights and KV-cache allocations
  /// are reused — recovery does not repeat model load or cache setup.
  void restart();

  int num_stages() const;

  /// The model the engine was built over (the shared weights' spec). Lets
  /// the serving loop validate a replacement engine — same vocab, same
  /// layer count — before swapping it in during a migration.
  const ModelSpec& spec() const;

  /// Cumulative runtime metrics since construction: per-stage busy/idle
  /// split, qgemm/attention breakdown, inbox high-water marks, and
  /// per-phase token throughput. Safe to call concurrently with generate().
  EngineStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace llmpq
