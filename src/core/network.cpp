#include "core/network.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/metrics.h"
#include "util/rng.h"

namespace slide {

Workspace::Workspace(const Network& net, std::uint64_t seed) {
  layers.reserve(net.num_layers());
  grads.resize(net.num_layers());
  views.reserve(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    layers.emplace_back(net.layer(i).view(), mix64(seed, i, 0x5A3D1E5ull));
    grads[i].grad.reserve(layers[i].act.capacity());
  }
}

Network::Network(NetworkConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.input_dim == 0) throw std::invalid_argument("Network: input_dim must be > 0");
  if (cfg_.layers.empty()) throw std::invalid_argument("Network: needs at least one layer");
  if (cfg_.precision == Precision::Int8) {
    throw std::invalid_argument("Network: Int8 is a serving precision; freeze to it");
  }
  for (std::size_t i = 0; i + 1 < cfg_.layers.size(); ++i) {
    if (cfg_.layers[i].activation == Activation::Softmax) {
      throw std::invalid_argument("Network: Softmax is only valid on the output layer");
    }
  }
  layers_.reserve(cfg_.layers.size());
  std::size_t prev = cfg_.input_dim;
  for (std::size_t i = 0; i < cfg_.layers.size(); ++i) {
    layers_.emplace_back(prev, cfg_.layers[i], cfg_.precision,
                         mix64(cfg_.seed, i, 0x1A7E8ull));
    prev = cfg_.layers[i].dim;
  }
  rebuild_hash_tables(&global_pool());
}

std::size_t Network::num_params() const {
  std::size_t total = 0;
  for (const auto& L : layers_) total += L.num_params();
  return total;
}

bool Network::run_forward(data::SparseVectorView x, bool use_tables,
                          std::span<const std::uint32_t> forced, Workspace& ws) const {
  ws.views.clear();
  for (const Layer& L : layers_) ws.views.push_back(L.view());
  return forward_pass(ws.views, x, use_tables, forced, ws);
}

float Network::forward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                       Workspace& ws, bool train) {
  run_forward(x, /*use_tables=*/true, train ? labels : std::span<const std::uint32_t>{}, ws);
  auto& ow = ws.layers.back();
  const std::size_t count = ow.act.size();
  if (layers_.back().activation() == Activation::Softmax) {
    kernels::softmax_f32(ow.act.data(), count);
  } else if (layers_.back().activation() == Activation::ReLU) {
    kernels::relu_f32(ow.act.data(), count);
  }  // Linear: pre-activations pass through

  // Cross-entropy against the uniform multi-hot target.  A sampled output
  // layer holds the forced labels in its first labels.size() slots.
  float loss = 0.0f;
  if (!train || labels.empty()) return loss;
  const float y = 1.0f / static_cast<float>(labels.size());
  for (std::size_t k = 0; k < labels.size(); ++k) {
    const float p = ow.sampled ? ow.act[k] : ow.act[labels[k]];
    loss -= y * std::log(std::max(p, 1e-30f));
  }
  return loss;
}

void Network::backward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                       Workspace& ws) {
  const std::size_t last = layers_.size() - 1;

  // Softmax + cross-entropy output gradient: dL/dz = p - y.
  {
    const auto& ow = ws.layers[last];
    auto& og = ws.grads[last].grad;
    const std::size_t osize = ow.act.size();
    og.resize(osize);
    std::memcpy(og.data(), ow.act.data(), osize * sizeof(float));
    if (!labels.empty()) {
      const float y = 1.0f / static_cast<float>(labels.size());
      for (std::size_t k = 0; k < labels.size(); ++k) og[ow.sampled ? k : labels[k]] -= y;
    }
  }

  for (std::size_t i = last + 1; i-- > 0;) {
    Layer& L = layers_[i];
    const auto& lw = ws.layers[i];
    auto& lg = ws.grads[i];

    // The layer's input: the sparse example for layer 0, a compact
    // (possibly empty) sampled layer, or a full-width one.
    const LayerScratch* pw = i > 0 ? &ws.layers[i - 1] : nullptr;
    float* prev_grad = nullptr;
    const float* prev_act = nullptr;
    std::size_t prev_count = 0;
    if (pw != nullptr) {
      prev_count = pw->act.size();
      prev_act = pw->act.data();
      auto& pg = ws.grads[i - 1].grad;
      pg.resize(prev_count);
      kernels::fill_f32(pg.data(), prev_count, 0.0f);
      prev_grad = pg.data();
      lg.gather_scratch.resize(prev_count);
    }

    const std::size_t count = lw.act.size();
    for (std::size_t k = 0; k < count; ++k) {
      const float g = lg.grad[k];
      if (g == 0.0f) continue;
      const std::uint32_t n = lw.sampled ? lw.active[k] : static_cast<std::uint32_t>(k);
      if (i == 0) {
        L.accumulate_grad_sparse(n, g, x);
      } else if (pw->sampled) {
        L.accumulate_grad_sparse(n, g, {pw->active.data(), prev_act, prev_count});
        L.backprop_to_sparse(n, g, pw->active.data(), prev_count,
                             lg.gather_scratch.data(), prev_grad);
      } else {
        L.accumulate_grad_dense(n, g, prev_act);
        L.backprop_to_dense(n, g, prev_grad);
      }
    }

    // ReLU derivative for the layer we are about to process.
    if (pw != nullptr && layers_[i - 1].activation() == Activation::ReLU) {
      for (std::size_t j = 0; j < prev_count; ++j) {
        if (prev_act[j] <= 0.0f) prev_grad[j] = 0.0f;
      }
    }
  }
}

void Network::adam_step(const AdamConfig& cfg, ThreadPool* pool) {
  ++adam_t_;
  const AdamBias bias = adam_bias_correction(cfg, adam_t_);
  for (auto& L : layers_) L.adam_step(cfg, bias, pool);
}

std::size_t Network::on_batch_end(ThreadPool* pool) {
  std::size_t refreshed = 0;
  for (auto& L : layers_) refreshed += L.on_batch_end(pool) ? 1 : 0;
  return refreshed;
}

void Network::rebuild_hash_tables(ThreadPool* pool) {
  for (auto& L : layers_) L.rebuild_tables(pool);
}

std::uint32_t Network::predict_top1(data::SparseVectorView x, Workspace& ws) const {
  run_forward(x, /*use_tables=*/false, {}, ws);
  const auto& out = ws.layers.back().act;
  return static_cast<std::uint32_t>(kernels::argmax_f32(out.data(), out.size()));
}

void Network::predict_topk(data::SparseVectorView x, std::size_t k, Workspace& ws,
                           std::vector<std::uint32_t>& out) const {
  run_forward(x, /*use_tables=*/false, {}, ws);
  const auto& logits = ws.layers.back().act;
  topk_indices(logits.data(), logits.size(), k, out);
}

std::uint32_t Network::predict_top1_sampled(data::SparseVectorView x, Workspace& ws) const {
  if (!run_forward(x, /*use_tables=*/true, {}, ws)) return predict_top1(x, ws);
  const auto& ow = ws.layers.back();
  const std::size_t best = kernels::argmax_f32(ow.act.data(), ow.act.size());
  return ow.sampled ? ow.active[best] : static_cast<std::uint32_t>(best);
}

}  // namespace slide
