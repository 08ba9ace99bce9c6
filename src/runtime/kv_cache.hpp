#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace llmpq {

/// Pre-allocated key/value cache for one decoder layer: [batch, max_seq,
/// hidden] for K and V each, written once per generated position and read
/// by every subsequent attention call — the paper's FasterTransformer-style
/// reservation (Sec. 4.1, "KV Storage Modeling").
class KvCache {
 public:
  KvCache() = default;
  KvCache(std::size_t batch, std::size_t max_seq, std::size_t hidden)
      : batch_(batch),
        max_seq_(max_seq),
        hidden_(hidden),
        k_(batch * max_seq * hidden, 0.0f),
        v_(batch * max_seq * hidden, 0.0f),
        filled_(batch, 0) {}

  std::size_t batch() const { return batch_; }
  std::size_t max_seq() const { return max_seq_; }
  std::size_t hidden() const { return hidden_; }

  // The accessors that index filled_ by sequence id are defined out of
  // line (kv_cache.cpp): inlined into a caller that passes a constant
  // out-of-range id, GCC's -Warray-bounds flags the read that the id check
  // guards.

  /// Number of positions stored for sequence `b`.
  std::size_t filled(std::size_t b) const;

  /// Forgets every cached position while keeping the allocation — lets a
  /// persistent engine reuse its K/V buffers across generate() calls.
  void reset() { std::fill(filled_.begin(), filled_.end(), 0); }

  /// Appends one position's K/V vectors for sequence `b`.
  void append(std::size_t b, const float* k_vec, const float* v_vec);

  /// K/V vector of sequence `b` at position `pos`. Only written positions
  /// are readable (`pos < filled(b)`): an out-of-range read would silently
  /// return zeros (or another sequence's entries), so it is rejected with
  /// the same check_arg contract append()/filled() follow.
  const float* k_at(std::size_t b, std::size_t pos) const;
  const float* v_at(std::size_t b, std::size_t pos) const;

  /// Writes k_at(b, p) / v_at(b, p) to k_rows[p] / v_rows[p] for every
  /// filled position p with one validation for the whole sequence (the
  /// paged manager's gather, for the uniform layout). Both spans must hold
  /// exactly filled(b) entries.
  void gather(std::size_t b, std::span<const float*> k_rows,
              std::span<const float*> v_rows) const;

  std::size_t footprint_bytes() const {
    return (k_.size() + v_.size()) * sizeof(float);
  }

 private:
  std::size_t batch_ = 0, max_seq_ = 0, hidden_ = 0;
  std::vector<float> k_, v_;
  std::vector<std::size_t> filled_;
};

}  // namespace llmpq
