#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace llmpq {

struct KvCacheManagerOptions {
  /// Tokens per KV page. Every page holds page_size K rows and page_size V
  /// rows of `hidden` floats each, so the allocation unit is
  /// 2 * page_size * hidden * sizeof(float) bytes.
  std::size_t page_size = 16;
  /// Pool cap in pages. 0 = unbounded: the pool grows on demand and
  /// reserve() never evicts (the engine's configuration — feasibility was
  /// already checked by the planner's memory model). A positive cap turns
  /// reserve() into alloc-or-evict-LRU-or-throw, the vLLM-style preemption
  /// regime the unit tests exercise.
  std::size_t max_pages = 0;
};

/// Paged key/value cache for one decoder layer: fixed-size pages owned by a
/// shared pool, mapped to sequences through per-sequence page tables —
/// replacing the monolithic [batch, max_seq, hidden] `KvCache` reservation
/// so the serving loop can admit/retire sequences of different lengths
/// without reshaping or copying anything.
///
/// Contract notes:
///   * Pages are stable in memory once allocated (unique_ptr<float[]>), so
///     k_at()/v_at() pointers stay valid across append()s to any sequence.
///   * reserve() is the only allocation choke point. Under a pool cap it
///     evicts least-recently-used unpinned sequences (firing the preempt
///     hook so the owner knows to re-prefill) and throws std::bad_alloc
///     when nothing evictable remains — the signal the serving layer's
///     degradation ladder consumes.
///   * k_at()/v_at() validate like the legacy KvCache: unknown sequence or
///     `pos >= filled()` throws InvalidArgumentError instead of reading
///     stale pool memory.
///   * truncate() rolls `filled` back without releasing pages — the
///     engine's rollback path after a failed pipeline pass, cheap to redo.
///   * Freed pages return to the pool's free list, never to the OS, so
///     footprint_bytes() is monotonic — matching how the planner's
///     `layer_kv_bytes` reserves for the peak, not the instant.
class KvCacheManager {
 public:
  KvCacheManager() = default;
  explicit KvCacheManager(std::size_t hidden,
                          const KvCacheManagerOptions& options = {});

  std::size_t hidden() const { return hidden_; }
  std::size_t page_size() const { return options_.page_size; }

  /// Creates an empty page table for `seq`. Ids are caller-chosen and
  /// single-use while the sequence lives; reusing a live id throws.
  void begin_seq(int seq);
  /// Returns every page of `seq` to the free list and forgets it. Unknown
  /// ids throw (freeing twice is a lifecycle bug worth surfacing).
  void free_seq(int seq);
  bool has_seq(int seq) const { return seqs_.count(seq) != 0; }
  std::size_t num_seqs() const { return seqs_.size(); }

  /// Ensures `seq` owns enough pages for `target_len` tokens, growing the
  /// pool (unbounded) or evicting LRU unpinned sequences (capped) as
  /// needed. Throws std::bad_alloc when the cap is reached and nothing can
  /// be evicted. Never shrinks.
  void reserve(int seq, std::size_t target_len);

  /// Pin/unpin `seq` against eviction (counted: nested pins require
  /// matching unpins). The engine pins every live session.
  void pin(int seq);
  void unpin(int seq);

  /// Number of positions stored for `seq`.
  std::size_t filled(int seq) const;

  /// Appends one position's K/V vectors (hidden() floats each). The
  /// position must already be reserve()d — append never allocates, so the
  /// hot loop cannot hit the eviction machinery mid-pass.
  void append(int seq, const float* k_vec, const float* v_vec);

  /// K/V vector of `seq` at position `pos` (`pos < filled(seq)`).
  const float* k_at(int seq, std::size_t pos) const;
  const float* v_at(int seq, std::size_t pos) const;

  /// Writes k_at(seq, p) / v_at(seq, p) to k_rows[p] / v_rows[p] for every
  /// filled position p, walking the page table once: one sequence lookup
  /// for the whole context instead of one per position. Both spans must
  /// hold exactly filled(seq) entries.
  void gather(int seq, std::span<const float*> k_rows,
              std::span<const float*> v_rows) const;

  /// Rolls `filled` back to `len` (<= filled), keeping the pages — the
  /// rollback primitive for a pipeline pass that died after some layers
  /// already appended.
  void truncate(int seq, std::size_t len);

  /// Voluntary eviction, the serving layer's preemption primitive: snapshots
  /// the committed length (returned, and readable via preempted_len() until
  /// the sequence regrows), returns every page to the free list, and resets
  /// `filled` to zero so the owner can re-prefill exactly. Unlike reserve()'s
  /// LRU eviction this ignores pins (the caller owns the decision) and does
  /// not fire the preempt hook (the caller already knows). Preempting a
  /// sequence that holds no pages — never filled, or already preempted —
  /// throws InvalidArgumentError: double-preempt is a scheduler bug.
  std::size_t preempt(int seq);

  /// Length snapshotted by the last preempt() of `seq`; 0 once reserve()
  /// grows the sequence again (the snapshot is consumed by re-prefill).
  std::size_t preempted_len(int seq) const;

  /// Sequences voluntarily preempted via preempt() since construction.
  std::int64_t preemptions() const { return preemptions_; }

  /// Called with the victim's id whenever reserve() evicts a sequence; the
  /// owner must re-prefill that sequence before using it again (its filled
  /// count is reset to zero, its pages are gone).
  using PreemptHook = std::function<void(int seq)>;
  void set_preempt_hook(PreemptHook hook) { preempt_ = std::move(hook); }

  /// Pages needed to hold `tokens` positions at `page_size` tokens each.
  static std::size_t pages_for(std::size_t tokens, std::size_t page_size) {
    return (tokens + page_size - 1) / page_size;
  }

  /// Pool-level bytes this layer's manager would hold with `batch`
  /// sequences reserved to `max_seq` tokens — the runtime (FP32) mirror of
  /// the planner's FP16 `layer_kv_bytes`: exactly 2x it whenever page_size
  /// divides max_seq, plus page-granularity rounding otherwise (the
  /// reconciliation test in tests/test_session.cpp pins this).
  static std::size_t planned_bytes(std::size_t batch, std::size_t max_seq,
                                   std::size_t hidden,
                                   std::size_t page_size) {
    return batch * pages_for(max_seq, page_size) * 2 * page_size * hidden *
           sizeof(float);
  }

  std::size_t pool_pages() const { return pool_.size(); }
  std::size_t free_pages() const { return free_.size(); }
  /// Bytes the pool holds (allocated pages, in use or free). Monotonic.
  std::size_t footprint_bytes() const { return pool_.size() * page_bytes(); }
  /// Bytes of pages currently mapped to sequences.
  std::size_t used_bytes() const {
    return (pool_.size() - free_.size()) * page_bytes();
  }
  /// Sequences evicted by reserve() since construction.
  std::int64_t evictions() const { return evictions_; }

 private:
  struct Seq {
    std::vector<std::size_t> pages;  ///< indices into pool_
    std::size_t filled = 0;
    std::size_t preempted_len = 0;  ///< snapshot from the last preempt()
    int pinned = 0;
    std::uint64_t last_use = 0;
  };

  std::size_t page_bytes() const {
    return 2 * options_.page_size * hidden_ * sizeof(float);
  }
  std::size_t page_floats() const { return 2 * options_.page_size * hidden_; }
  Seq& seq_at(int seq, const char* who);
  const Seq& seq_at(int seq, const char* who) const;
  const float* at(int seq, std::size_t pos, bool value, const char* who) const;
  /// Evicts the LRU unpinned sequence other than `keep`; false if none.
  bool evict_one(int keep);

  std::size_t hidden_ = 0;
  KvCacheManagerOptions options_;
  std::vector<std::unique_ptr<float[]>> pool_;  ///< stable page storage
  std::vector<std::size_t> free_;               ///< free page indices
  std::unordered_map<int, Seq> seqs_;
  PreemptHook preempt_;
  std::uint64_t tick_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t preemptions_ = 0;
};

}  // namespace llmpq
