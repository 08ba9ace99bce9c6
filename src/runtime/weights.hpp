#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "model/model_spec.hpp"
#include "quant/quantize.hpp"

namespace llmpq {

/// Weights of one decoder layer. Linear weights are stored through the
/// quantization layer (16 bits = float pass-through), biases and layer
/// norm parameters stay in float — mirroring weight-only LLM quantization.
struct LayerWeights {
  int bits = 16;
  QuantFormat format = QuantFormat::kPerChannel;
  QuantizedMatrix qkv;  ///< [3h x h]
  QuantizedMatrix out;  ///< [h x h]
  QuantizedMatrix fc1;  ///< [ffn x h]  (the *gate* projection when gated)
  QuantizedMatrix fc2;  ///< [h x ffn]  (the *down* projection when gated)
  QuantizedMatrix fc3;  ///< [ffn x h]  *up* projection, gated MLPs only
  std::vector<float> qkv_bias, out_bias, fc1_bias, fc2_bias, fc3_bias;
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;

  std::size_t footprint_bytes() const;
};

/// Full-model weights: embeddings (FP16-equivalent, stored float) + layers.
struct ModelWeights {
  ModelSpec spec;
  std::vector<float> token_embedding;  ///< [vocab x h]
  std::vector<float> pos_embedding;    ///< [max_pos x h]
  std::vector<float> final_gamma, final_beta;
  std::vector<LayerWeights> layers;
};

/// The float master copy of one layer (pre-quantization). Kept separate so
/// the on-the-fly quantizer can requantize a layer at a different width
/// without reloading.
struct LayerMaster {
  std::vector<float> qkv, out, fc1, fc2, fc3;
  std::vector<float> qkv_bias, out_bias, fc1_bias, fc2_bias, fc3_bias;
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
};

/// Deterministic random master weights for a spec (the checkpoint stand-in).
LayerMaster random_layer_master(const ModelSpec& spec, int layer, Rng& rng);

/// Quantizes a master layer at `bits` in `format` (ignored at 16 bits).
LayerWeights quantize_layer(const ModelSpec& spec, const LayerMaster& master,
                            int bits, Rounding mode, Rng& rng,
                            QuantFormat format = QuantFormat::kPerChannel);

/// Builds a complete model with random weights, quantized per
/// `bits_per_layer` (size = spec.layers) in `format`. The master RNG
/// stream is format-independent, so two builds with the same seed hold
/// the same underlying weights requantized — what a bit-change migration
/// (serve/migration.hpp) relies on to keep the model's identity.
ModelWeights build_random_model(const ModelSpec& spec,
                                const std::vector<int>& bits_per_layer,
                                std::uint64_t seed,
                                QuantFormat format = QuantFormat::kPerChannel);

}  // namespace llmpq
