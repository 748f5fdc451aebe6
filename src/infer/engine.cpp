#include "infer/engine.h"

#include <algorithm>

#include "core/metrics.h"
#include "kernels/kernels.h"
#include "util/rng.h"

namespace slide::infer {

InferenceEngine::InferenceEngine(const PackedModel& model, std::uint64_t seed)
    : model_(model), views_(model.views()), seed_(seed) {}

std::unique_ptr<InferenceEngine::Scratch> InferenceEngine::acquire_scratch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto s = std::move(free_.back());
      free_.pop_back();
      return s;
    }
  }
  const std::uint64_t seq = scratch_seq_.fetch_add(1, std::memory_order_relaxed);
  auto s = std::make_unique<Scratch>();
  s->layers.reserve(views_.size());
  for (std::size_t i = 0; i < views_.size(); ++i) {
    s->layers.emplace_back(views_[i], mix64(seed_, seq, i));
  }
  return s;
}

void InferenceEngine::release_scratch(std::unique_ptr<Scratch> s) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(s));
}

void InferenceEngine::forward(data::SparseVectorView x, TopKMode mode, Scratch& s) {
  if (mode == TopKMode::Sampled && forward_pass(views_, x, /*use_tables=*/true, {}, s)) return;
  forward_pass(views_, x, /*use_tables=*/false, {}, s);
}

void InferenceEngine::emit_topk(Scratch& s, std::size_t k, std::vector<std::uint32_t>& ids,
                                std::vector<float>* scores) {
  const LayerScratch& out = s.layers.back();
  if (!out.sampled) {
    topk_indices(out.act.data(), out.act.size(), k, ids);
  } else {
    // Compact logits: rank, then map back to real neuron ids.
    topk_indices(out.act.data(), out.act.size(), k, s.topk);
    ids.resize(s.topk.size());
    for (std::size_t j = 0; j < s.topk.size(); ++j) ids[j] = out.active[s.topk[j]];
    if (scores != nullptr) {
      scores->resize(s.topk.size());
      for (std::size_t j = 0; j < s.topk.size(); ++j) (*scores)[j] = out.act[s.topk[j]];
    }
    return;
  }
  if (scores != nullptr) {
    scores->resize(ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) (*scores)[j] = out.act[ids[j]];
  }
}

void InferenceEngine::predict_topk(data::SparseVectorView x, std::size_t k,
                                   std::vector<std::uint32_t>& ids, TopKMode mode,
                                   std::vector<float>* scores) {
  Lease lease(*this);
  forward(x, mode, *lease);
  emit_topk(*lease, k, ids, scores);
}

std::uint32_t InferenceEngine::predict_top1(data::SparseVectorView x, TopKMode mode) {
  Lease lease(*this);
  Scratch& s = *lease;
  forward(x, mode, s);
  const LayerScratch& out = s.layers.back();
  const std::size_t best = kernels::argmax_f32(out.act.data(), out.act.size());
  return out.sampled ? out.active[best] : static_cast<std::uint32_t>(best);
}

void InferenceEngine::predict_topk_batch(std::span<const data::SparseVectorView> xs,
                                         std::size_t k, std::uint32_t* out_ids,
                                         float* out_scores, TopKMode mode,
                                         ThreadPool* pool,
                                         const BatchCompletionFn& on_query_done) {
  if (xs.empty() || k == 0) return;
  if (pool == nullptr) pool = &global_pool();

  const auto serve_range = [&](std::size_t lo, std::size_t hi) {
    Lease lease(*this);
    Scratch& s = *lease;
    std::vector<std::uint32_t> ids;
    std::vector<float> scores;
    for (std::size_t q = lo; q < hi; ++q) {
      forward(xs[q], mode, s);
      emit_topk(s, k, ids, out_scores != nullptr ? &scores : nullptr);
      std::uint32_t* row = out_ids + q * k;
      std::copy(ids.begin(), ids.end(), row);
      std::fill(row + ids.size(), row + k, kInvalidId);
      if (out_scores != nullptr) {
        float* srow = out_scores + q * k;
        std::copy(scores.begin(), scores.end(), srow);
        std::fill(srow + scores.size(), srow + k, 0.0f);
      }
      if (on_query_done) on_query_done(q);
    }
  };

  // Small batches aren't worth a pool wake-up, and a 1-thread pool adds
  // latency without adding parallelism.
  if (xs.size() < 4 || pool->size() == 1) {
    serve_range(0, xs.size());
    return;
  }
  // Grain adapts to the batch: serving-sized batches (say 8 queries on 8
  // workers) split all the way down so tail latency scales with the pool,
  // while eval-sized batches keep chunky grains that amortize the lease.
  const std::size_t grain =
      std::clamp<std::size_t>(xs.size() / (2 * std::size_t{pool->size()}), 1, 8);
  pool->parallel_for_dynamic(xs.size(), grain,
                             [&](unsigned, std::size_t lo, std::size_t hi) {
    serve_range(lo, hi);
  });
}

}  // namespace slide::infer
