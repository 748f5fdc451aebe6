#include "reference.h"

#include <algorithm>
#include <cmath>

namespace slidebench {

std::vector<RefLayer> reference_layers(const slide::Network& net) {
  std::vector<RefLayer> out;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const slide::Layer& L = net.layer(i);
    RefLayer r;
    r.input_dim = L.input_dim();
    r.dim = L.dim();
    r.activation = L.activation();
    if (L.precision() == slide::Precision::Bf16All) {
      r.w16 = L.weights_bf16().data();
    } else {
      r.w32 = L.weights_f32().data();
    }
    r.bias = L.biases().data();
    out.push_back(r);
  }
  return out;
}

std::vector<RefLayer> reference_layers(const slide::infer::PackedModel& model) {
  std::vector<RefLayer> out;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const auto& L = model.layer(i);
    RefLayer r;
    r.input_dim = L.input_dim;
    r.dim = L.dim;
    r.activation = L.activation();
    if (!L.w16.empty()) {
      r.w16 = L.w16.data();
    } else {
      r.w32 = L.w.data();
    }
    r.bias = L.bias.data();
    out.push_back(r);
  }
  return out;
}

namespace {

double weight(const RefLayer& L, std::size_t n, std::size_t j) {
  const std::size_t at = n * L.input_dim + j;
  return L.w16 != nullptr ? static_cast<double>(L.w16[at].to_float())
                          : static_cast<double>(L.w32[at]);
}

}  // namespace

RefOutput reference_forward(std::span<const RefLayer> layers, slide::data::SparseVectorView x) {
  // The input as (index, value) pairs; hidden layers are dense.
  std::vector<std::uint32_t> idx(x.indices, x.indices + x.nnz);
  std::vector<double> val(x.values, x.values + x.nnz);
  RefOutput out;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const RefLayer& L = layers[li];
    const bool last = li + 1 == layers.size();
    std::vector<double> z(L.dim);
    std::vector<double> mag(L.dim);
    for (std::size_t n = 0; n < L.dim; ++n) {
      double acc = L.bias[n];
      double m = std::fabs(acc);
      for (std::size_t t = 0; t < idx.size(); ++t) {
        const double p = weight(L, n, idx[t]) * val[t];
        acc += p;
        m += std::fabs(p);
      }
      z[n] = acc;
      mag[n] = m;
    }
    if (last) {
      out.logits = std::move(z);
      out.magnitude = std::move(mag);
      break;
    }
    if (L.activation == slide::Activation::ReLU) {
      for (double& v : z) v = std::max(v, 0.0);
    } else if (L.activation == slide::Activation::Softmax) {
      const double mx = *std::max_element(z.begin(), z.end());
      double sum = 0.0;
      for (double& v : z) sum += (v = std::exp(v - mx));
      for (double& v : z) v /= sum;
    }
    idx.resize(L.dim);
    for (std::size_t n = 0; n < L.dim; ++n) idx[n] = static_cast<std::uint32_t>(n);
    val = std::move(z);
  }
  return out;
}

bool top1_agrees(const RefOutput& ref, std::uint32_t predicted, double rel_tol) {
  if (predicted >= ref.logits.size()) return false;
  const double best = *std::max_element(ref.logits.begin(), ref.logits.end());
  return best - ref.logits[predicted] <= rel_tol * ref.magnitude[predicted];
}

double tolerance_for(slide::Precision precision) {
  // fp32: a few float ulps per accumulated term across two layers.  bf16:
  // 8 mantissa bits on weights and/or activations (2^-8 relative per term).
  return precision == slide::Precision::Fp32 ? 1e-5 : 1.0 / 64.0;
}

double precision_at_k(std::span<const std::uint32_t> ids,
                      std::span<const std::uint32_t> labels, std::uint32_t invalid) {
  if (ids.empty()) return 0.0;
  std::size_t hits = 0;
  for (const std::uint32_t id : ids) {
    if (id == invalid) continue;
    if (std::find(labels.begin(), labels.end(), id) != labels.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(ids.size());
}

}  // namespace slidebench
