#include "core/forward.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace slide {
namespace {

// Int8 pre-activation from a raw u8·s8 dot.  `wsum` is the sum of the
// weights that met an input, which backs the zero-point correction.
float dequantize(const LayerView& L, std::uint32_t n, std::int32_t dot, std::int32_t wsum) {
  return L.in_scale * L.w_scale[n] * static_cast<float>(dot - L.in_zero * wsum) + L.bias[n];
}

// out[k] = <row(n_k), in> + bias[n_k] for a sparse input: the query, or a
// sampled previous layer's compact activations.  Absent inputs are exactly 0
// in fp32 and simply missing from the int8 sum, so only the participating
// weights enter the zero-point correction.
void sparse_preactivations(const LayerView& L, data::SparseVectorView in,
                           const std::uint8_t* in8, const std::uint32_t* rows,
                           std::size_t count, float* out) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t n = rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k];
    const std::size_t row = std::size_t{n} * L.input_dim;
    if (L.precision == Precision::Int8) {
      std::int32_t dot, wsum;
      kernels::sparse_dot_u8s8(in.indices, in8, in.nnz, L.w8 + row, &dot, &wsum);
      out[k] = dequantize(L, n, dot, wsum);
    } else if (L.precision == Precision::Bf16All) {
      out[k] = kernels::sparse_dot_bf16(in.indices, in.values, in.nnz, L.w16 + row) + L.bias[n];
    } else {
      out[k] = kernels::sparse_dot_f32(in.indices, in.values, in.nnz, L.w + row) + L.bias[n];
    }
  }
}

// The same over a full-width previous layer, through the 4-row-blocked
// dot_rows_* kernels.  Every input is represented, so the int8 zero-point
// correction uses the precomputed full-row weight sums.
void dense_preactivations(const LayerView& L, const LayerScratch& prev,
                          const std::uint32_t* rows, std::size_t count,
                          AlignedVector<std::int32_t>& acc32, float* out) {
  const std::size_t ld = L.input_dim;
  switch (L.precision) {
    case Precision::Int8:
      acc32.resize(count);
      kernels::dot_rows_u8s8(L.w8, ld, rows, count, prev.act8.data(), ld, acc32.data());
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t n = rows == nullptr ? static_cast<std::uint32_t>(k) : rows[k];
        out[k] = dequantize(L, n, acc32[k], L.w_rowsum[n]);
      }
      return;
    case Precision::Bf16All:
      kernels::dot_rows_wbf16_xbf16(L.w16, ld, rows, count, prev.act16.data(), ld, out);
      break;
    case Precision::Bf16Activations:
      kernels::dot_rows_wf32_xbf16(L.w, ld, rows, count, prev.act16.data(), ld, out);
      break;
    case Precision::Fp32:
      kernels::dot_rows_f32(L.w, ld, rows, count, prev.act.data(), ld, out);
      break;
  }
  if (rows != nullptr) {
    for (std::size_t k = 0; k < count; ++k) out[k] += L.bias[rows[k]];
  } else {
    for (std::size_t k = 0; k < count; ++k) out[k] += L.bias[k];
  }
}

}  // namespace

LayerScratch::LayerScratch(const LayerView& layer, std::uint64_t sampler_seed)
    : sampler(sampler_seed) {
  std::size_t hint = layer.dim;
  if (layer.family != nullptr) {
    buckets.resize(layer.family->num_tables());
    hint = std::min<std::size_t>(layer.dim,
                                 std::max<std::size_t>(layer.limits.min_active, 256));
    active.reserve(hint);
  }
  act.reserve(hint);
}

bool forward_pass(std::span<const LayerView> layers, data::SparseVectorView x,
                  bool use_tables, std::span<const std::uint32_t> forced, ForwardScratch& s) {
  const std::size_t last = layers.size() - 1;
  if (layers[0].precision == Precision::Int8) {
    // Quantize the query once against layer 0's input qparams; every
    // candidate row then reuses the same u8 buffer.
    s.qin.resize(x.nnz);
    kernels::quantize_u8(x.values, s.qin.data(), x.nnz, 1.0f / layers[0].in_scale,
                         layers[0].in_zero);
  }
  bool complete = true;
  for (std::size_t i = 0; i <= last; ++i) {
    const LayerView& L = layers[i];
    LayerScratch& lw = s.layers[i];
    // The layer's input is sparse for layer 0 and after a sampled layer.
    const LayerScratch* pw = i == 0 ? nullptr : &s.layers[i - 1];
    const bool sparse_in = pw == nullptr || pw->sampled;
    const data::SparseVectorView in =
        pw == nullptr ? x : data::SparseVectorView{pw->active.data(), pw->act.data(),
                                                   pw->active.size()};
    const std::uint8_t* in8 = pw == nullptr ? s.qin.data() : pw->act8.data();

    // --- active-set selection --------------------------------------------
    lw.sampled = use_tables && L.family != nullptr;
    if (lw.sampled) {
      if (sparse_in) {
        L.family->hash_sparse(in.indices, in.values, in.nnz, lw.buckets.data());
      } else {
        L.family->hash_dense(pw->act.data(), lw.buckets.data());
      }
      lsh::select_active_set(*L.tables, lw.buckets.data(),
                             i == last ? forced : std::span<const std::uint32_t>{}, L.dim,
                             L.limits, lw.sampler, lw.active);
      complete = complete && !lw.active.empty();
    } else {
      lw.active.clear();
    }
    const std::size_t count = lw.sampled ? lw.active.size() : L.dim;
    const std::uint32_t* rows = lw.sampled ? lw.active.data() : nullptr;
    lw.act.resize(count);

    // --- pre-activations ---------------------------------------------------
    if (sparse_in) {
      sparse_preactivations(L, in, in8, rows, count, lw.act.data());
    } else {
      dense_preactivations(L, *pw, rows, count, s.acc32, lw.act.data());
    }
    if (i == last) break;  // output values stay raw

    // --- hidden nonlinearity and the next layer's input format -------------
    if (L.activation == Activation::ReLU) kernels::relu_f32(lw.act.data(), count);
    const Precision next = layers[i + 1].precision;
    if (next == Precision::Bf16Activations || next == Precision::Bf16All) {
      lw.act16.resize(count);
      kernels::fp32_to_bf16(lw.act.data(), lw.act16.data(), count);
    } else if (next == Precision::Int8) {
      // Layer i+1's qparams describe its input, i.e. this layer's output.
      lw.act8.resize(count);
      kernels::quantize_u8(lw.act.data(), lw.act8.data(), count,
                           1.0f / layers[i + 1].in_scale, layers[i + 1].in_zero);
    }
  }
  return complete;
}

}  // namespace slide
