#include "runtime/kv_cache.hpp"

namespace llmpq {

std::size_t KvCache::filled(std::size_t b) const {
  check_arg(b < batch_, "KvCache::filled: sequence id out of range");
  return filled_[b];
}

void KvCache::append(std::size_t b, const float* k_vec, const float* v_vec) {
  check_arg(b < batch_, "KvCache::append: sequence id out of range");
  check_arg(filled_[b] < max_seq_, "KvCache: overflow");
  const auto off =
      static_cast<std::ptrdiff_t>((b * max_seq_ + filled_[b]) * hidden_);
  std::copy(k_vec, k_vec + hidden_, k_.begin() + off);
  std::copy(v_vec, v_vec + hidden_, v_.begin() + off);
  ++filled_[b];
}

const float* KvCache::k_at(std::size_t b, std::size_t pos) const {
  check_arg(b < batch_, "KvCache::k_at: sequence id out of range");
  check_arg(pos < filled_[b], "KvCache::k_at: position not filled");
  return k_.data() + (b * max_seq_ + pos) * hidden_;
}

const float* KvCache::v_at(std::size_t b, std::size_t pos) const {
  check_arg(b < batch_, "KvCache::v_at: sequence id out of range");
  check_arg(pos < filled_[b], "KvCache::v_at: position not filled");
  return v_.data() + (b * max_seq_ + pos) * hidden_;
}

void KvCache::gather(std::size_t b, std::span<const float*> k_rows,
                     std::span<const float*> v_rows) const {
  check_arg(b < batch_, "KvCache::gather: sequence id out of range");
  check_arg(k_rows.size() == filled_[b] && v_rows.size() == filled_[b],
            "KvCache::gather: spans must hold filled() entries");
  const float* k = k_.data() + b * max_seq_ * hidden_;
  const float* v = v_.data() + b * max_seq_ * hidden_;
  for (std::size_t p = 0; p < k_rows.size(); ++p) {
    k_rows[p] = k + p * hidden_;
    v_rows[p] = v + p * hidden_;
  }
}

}  // namespace llmpq
