// The one forward pass (paper Algorithm 1): hash, select the active set,
// then take vectorized dot products over it, layer by layer.
//
// Training (Network::forward), dense and sampled evaluation
// (Network::predict_*) and serving (infer::InferenceEngine) all run
// forward_pass over a sequence of LayerViews, so a change to the hot loop is
// written once.  A LayerView is a non-owning snapshot of what the pass reads
// from one layer; slide::Layer::view() and infer::PackedModel::Layer::view()
// build one.  The per-query state lives in ForwardScratch: the training
// Workspace and the engine's leased scratch both extend it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "data/sparse_batch.h"
#include "lsh/hash_function.h"
#include "lsh/lsh_table.h"
#include "lsh/sampler.h"
#include "util/aligned.h"
#include "util/bf16.h"

namespace slide {

struct LayerView {
  std::size_t input_dim = 0;
  std::size_t dim = 0;
  Activation activation = Activation::ReLU;
  // Picks the weight arena and the kernels: Fp32 and Bf16Activations read
  // `w`, Bf16All reads `w16`, Int8 reads `w8` plus the quantization fields.
  Precision precision = Precision::Fp32;
  const float* w = nullptr;   // dim x input_dim, row-major
  const bf16* w16 = nullptr;  // dim x input_dim, row-major
  // Int8: w_fp32[n][j] ~= w_scale[n] * w8[n][j]; this layer's input
  // quantizes with (in_scale, in_zero); w_rowsum[n] = sum_j w8[n][j].
  const std::int8_t* w8 = nullptr;
  const float* w_scale = nullptr;
  const std::int32_t* w_rowsum = nullptr;
  float in_scale = 1.0f;
  std::int32_t in_zero = 0;
  const float* bias = nullptr;
  const lsh::HashFamily* family = nullptr;  // null for dense layers
  const lsh::LshTables* tables = nullptr;
  lsh::SamplerLimits limits;
};

// One layer's query state: the active set, the activations (fp32 plus the
// bf16 or u8 mirror the next layer reads), the per-table buckets and the
// sampler's dedup scratch.
struct LayerScratch {
  // True when this pass sampled the layer: `act` is then compact over
  // `active` (possibly empty); otherwise `act` is full-width and `active`
  // is empty.
  bool sampled = false;
  std::vector<std::uint32_t> active;
  AlignedVector<float> act;
  AlignedVector<bf16> act16;
  AlignedVector<std::uint8_t> act8;
  std::vector<std::uint32_t> buckets;  // one bucket index per hash table
  lsh::SamplerScratch sampler;

  LayerScratch(const LayerView& layer, std::uint64_t sampler_seed);
};

struct ForwardScratch {
  std::vector<LayerScratch> layers;  // one per model layer
  AlignedVector<std::uint8_t> qin;   // Int8: the query's quantized values
  AlignedVector<std::int32_t> acc32; // Int8: raw dot accumulators
};

// Runs `layers` on the sparse input x, leaving each layer's activations in
// s.layers[i].  With use_tables, every hashed layer computes only its
// LSH-selected active set, and `forced` (training labels) leads the output
// layer's set; without, every layer runs full-width.  Hidden ReLU layers are
// clamped; the output layer's values are raw pre-activations, so the caller
// applies any output nonlinearity.  Returns false when a sampled layer's
// active set came up empty; the pass still completes, and an empty layer
// passes only the next layer's biases on.
bool forward_pass(std::span<const LayerView> layers, data::SparseVectorView x,
                  bool use_tables, std::span<const std::uint32_t> forced, ForwardScratch& s);

}  // namespace slide
