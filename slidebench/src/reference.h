// Reference checker: a plain dense forward pass with double accumulation,
// written apart from the program's kernels, and P@k from predicted ids.
//
// The forward pass reads only the raw parameter arenas (Layer::weights_f32 /
// weights_bf16 / biases, or PackedModel::layer(i)), evaluates every neuron of
// every layer and returns the output layer's pre-softmax logits.  Softmax is
// monotone, so the ranking of the logits is the model's ranking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/network.h"
#include "data/sparse_batch.h"
#include "infer/packed_model.h"

namespace slidebench {

// One layer's parameters as the reference reads them: exactly one of w32 /
// w16 is non-null.
struct RefLayer {
  std::size_t input_dim = 0;
  std::size_t dim = 0;
  slide::Activation activation = slide::Activation::ReLU;
  const float* w32 = nullptr;
  const slide::bf16* w16 = nullptr;
  const float* bias = nullptr;
};

std::vector<RefLayer> reference_layers(const slide::Network& net);
std::vector<RefLayer> reference_layers(const slide::infer::PackedModel& model);

struct RefOutput {
  std::vector<double> logits;  // output-layer pre-activations
  // sum_j |w_nj * a_j| + |b_n| per output neuron: the scale a rounding error
  // in the program's float (or bf16) arithmetic is measured against.
  std::vector<double> magnitude;
};

RefOutput reference_forward(std::span<const RefLayer> layers, slide::data::SparseVectorView x);

// True when `predicted` is the reference's arg-max, or within a near-tie of
// it: logit[best] - logit[predicted] <= rel_tol * magnitude[predicted].
bool top1_agrees(const RefOutput& ref, std::uint32_t predicted, double rel_tol);

// Relative tolerance for a model's arithmetic: float rounding for fp32,
// bf16 rounding of weights or activations otherwise.
double tolerance_for(slide::Precision precision);

// |top-k ∩ labels| / k, with k = ids.size().  Ids equal to `invalid` count as
// misses (sampled inference may return fewer than k candidates).
double precision_at_k(std::span<const std::uint32_t> ids,
                      std::span<const std::uint32_t> labels,
                      std::uint32_t invalid = 0xFFFFFFFFu);

}  // namespace slidebench
