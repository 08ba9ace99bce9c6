#include "runtime/kv_cache_manager.hpp"

#include <algorithm>
#include <limits>
#include <new>

#include "common/error.hpp"

namespace llmpq {

KvCacheManager::KvCacheManager(std::size_t hidden,
                               const KvCacheManagerOptions& options)
    : hidden_(hidden), options_(options) {
  check_arg(hidden_ >= 1, "KvCacheManager: hidden must be >= 1");
  check_arg(options_.page_size >= 1,
            "KvCacheManager: page_size must be >= 1");
}

KvCacheManager::Seq& KvCacheManager::seq_at(int seq, const char* who) {
  auto it = seqs_.find(seq);
  if (it == seqs_.end())
    throw InvalidArgumentError(std::string("KvCacheManager::") + who +
                               ": unknown sequence id");
  return it->second;
}

const KvCacheManager::Seq& KvCacheManager::seq_at(int seq,
                                                  const char* who) const {
  auto it = seqs_.find(seq);
  if (it == seqs_.end())
    throw InvalidArgumentError(std::string("KvCacheManager::") + who +
                               ": unknown sequence id");
  return it->second;
}

void KvCacheManager::begin_seq(int seq) {
  check_arg(seqs_.emplace(seq, Seq{}).second,
            "KvCacheManager::begin_seq: sequence id already live");
  seqs_[seq].last_use = ++tick_;
}

void KvCacheManager::free_seq(int seq) {
  auto it = seqs_.find(seq);
  check_arg(it != seqs_.end(),
            "KvCacheManager::free_seq: unknown sequence id");
  for (std::size_t page : it->second.pages) free_.push_back(page);
  seqs_.erase(it);
}

void KvCacheManager::pin(int seq) { ++seq_at(seq, "pin").pinned; }

void KvCacheManager::unpin(int seq) {
  Seq& s = seq_at(seq, "unpin");
  check_arg(s.pinned > 0, "KvCacheManager::unpin: sequence is not pinned");
  --s.pinned;
}

bool KvCacheManager::evict_one(int keep) {
  int victim = 0;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  bool found = false;
  for (const auto& [id, s] : seqs_) {
    if (id == keep || s.pinned > 0 || s.pages.empty()) continue;
    if (s.last_use < oldest) {
      oldest = s.last_use;
      victim = id;
      found = true;
    }
  }
  if (!found) return false;
  Seq& s = seqs_[victim];
  for (std::size_t page : s.pages) free_.push_back(page);
  s.pages.clear();
  s.filled = 0;
  ++evictions_;
  if (preempt_) preempt_(victim);
  return true;
}

void KvCacheManager::reserve(int seq, std::size_t target_len) {
  Seq& s = seq_at(seq, "reserve");
  s.last_use = ++tick_;
  const std::size_t want = pages_for(target_len, options_.page_size);
  if (want > 0) s.preempted_len = 0;  // snapshot consumed by re-prefill
  while (s.pages.size() < want) {
    if (!free_.empty()) {
      s.pages.push_back(free_.back());
      free_.pop_back();
      continue;
    }
    if (options_.max_pages == 0 || pool_.size() < options_.max_pages) {
      pool_.push_back(std::make_unique<float[]>(page_floats()));
      s.pages.push_back(pool_.size() - 1);
      continue;
    }
    // Pool capped and no free page: preempt the coldest unpinned sequence.
    // `s` itself is protected so a reservation can never cannibalize the
    // sequence it serves.
    if (!evict_one(seq)) throw std::bad_alloc();
  }
}

std::size_t KvCacheManager::filled(int seq) const {
  return seq_at(seq, "filled").filled;
}

void KvCacheManager::append(int seq, const float* k_vec, const float* v_vec) {
  Seq& s = seq_at(seq, "append");
  check_arg(s.filled < s.pages.size() * options_.page_size,
            "KvCacheManager::append: position not reserved (reserve first)");
  float* page = pool_[s.pages[s.filled / options_.page_size]].get();
  const std::size_t slot = s.filled % options_.page_size;
  std::copy(k_vec, k_vec + hidden_, page + slot * hidden_);
  std::copy(v_vec, v_vec + hidden_,
            page + (options_.page_size + slot) * hidden_);
  ++s.filled;
  s.last_use = ++tick_;
}

const float* KvCacheManager::at(int seq, std::size_t pos, bool value,
                                const char* who) const {
  const Seq& s = seq_at(seq, who);
  if (pos >= s.filled)
    throw InvalidArgumentError(std::string("KvCacheManager::") + who +
                               ": position not filled");
  const float* page = pool_[s.pages[pos / options_.page_size]].get();
  const std::size_t slot = pos % options_.page_size;
  return page + (value ? (options_.page_size + slot) : slot) * hidden_;
}

const float* KvCacheManager::k_at(int seq, std::size_t pos) const {
  return at(seq, pos, /*value=*/false, "k_at");
}

const float* KvCacheManager::v_at(int seq, std::size_t pos) const {
  return at(seq, pos, /*value=*/true, "v_at");
}

void KvCacheManager::gather(int seq, std::span<const float*> k_rows,
                            std::span<const float*> v_rows) const {
  const Seq& s = seq_at(seq, "gather");
  check_arg(k_rows.size() == s.filled && v_rows.size() == s.filled,
            "KvCacheManager::gather: spans must hold filled() entries");
  const std::size_t ps = options_.page_size;
  for (std::size_t p0 = 0; p0 < s.filled; p0 += ps) {
    const float* page = pool_[s.pages[p0 / ps]].get();
    const std::size_t n = std::min(ps, s.filled - p0);
    for (std::size_t slot = 0; slot < n; ++slot) {
      k_rows[p0 + slot] = page + slot * hidden_;
      v_rows[p0 + slot] = page + (ps + slot) * hidden_;
    }
  }
}

std::size_t KvCacheManager::preempt(int seq) {
  Seq& s = seq_at(seq, "preempt");
  check_arg(!s.pages.empty(),
            "KvCacheManager::preempt: sequence holds no pages "
            "(double-preempt or never filled)");
  const std::size_t snapshot = s.filled;
  for (std::size_t page : s.pages) free_.push_back(page);
  s.pages.clear();
  s.filled = 0;
  s.preempted_len = snapshot;
  ++preemptions_;
  return snapshot;
}

std::size_t KvCacheManager::preempted_len(int seq) const {
  return seq_at(seq, "preempted_len").preempted_len;
}

void KvCacheManager::truncate(int seq, std::size_t len) {
  Seq& s = seq_at(seq, "truncate");
  check_arg(len <= s.filled,
            "KvCacheManager::truncate: cannot truncate beyond filled");
  s.filled = len;
}

}  // namespace llmpq
