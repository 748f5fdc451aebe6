// One fully-connected layer with contiguous parameter arenas and optional
// LSH neuron sampling.
//
// Memory layout (paper Section 4.1, "Removing Parameter Memory
// Fragmentation"): all neuron weight rows live in ONE aligned arena in
// row-major order, as do the gradient arena and the ADAM moment arenas, so
// neighbouring neurons selected in the same batch share cache lines and the
// per-batch ADAM sweep streams contiguously (Fig. 3).
//
// Gradients are accumulated HOGWILD-style: worker threads add into the
// shared gradient arena without synchronization (Recht et al. 2011; paper
// Section 2).  Lost updates are tolerated by design — SLIDE's active sets
// are sparse enough that collisions are rare.  The per-neuron dirty flags
// ARE atomic (relaxed), so the ADAM sweep never misses a touched row.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "core/adam.h"
#include "core/config.h"
#include "core/forward.h"
#include "data/sparse_batch.h"
#include "kernels/kernels.h"
#include "lsh/hash_function.h"
#include "lsh/lsh_table.h"
#include "threading/thread_pool.h"
#include "util/aligned.h"
#include "util/bf16.h"

namespace slide {

class Layer {
 public:
  Layer(std::size_t input_dim, const LayerConfig& cfg, Precision precision,
        std::uint64_t seed);

  // Movable (Network stores layers in a vector), not copyable.
  Layer(Layer&&) noexcept = default;
  Layer& operator=(Layer&&) noexcept = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  std::size_t dim() const { return dim_; }
  std::size_t input_dim() const { return input_dim_; }
  // Construction seed: the hash family and table RNG streams are derived
  // from it, so a frozen PackedModel can rebuild identical LSH state.
  std::uint64_t seed() const { return seed_; }
  Activation activation() const { return cfg_.activation; }
  Precision precision() const { return precision_; }
  bool uses_hashing() const { return family_ != nullptr; }
  const LayerConfig& config() const { return cfg_; }
  std::size_t num_params() const { return dim_ * input_dim_ + dim_; }

  // --- forward ------------------------------------------------------------
  // What forward_pass reads from this layer (core/forward.h).  Valid while
  // the layer lives: its arenas never reallocate after construction.
  LayerView view() const {
    return {.input_dim = input_dim_,
            .dim = dim_,
            .activation = cfg_.activation,
            .precision = precision_,
            .w = w_.data(),
            .w16 = w16_.data(),
            .bias = bias_.data(),
            .family = family_.get(),
            .tables = tables_.get(),
            .limits = {cfg_.lsh.min_active, cfg_.lsh.max_active}};
  }

  // --- backward (HOGWILD; called concurrently from worker threads) --------
  // Accumulates g * prev_act into neuron n's gradient row (dense input).
  void accumulate_grad_dense(std::uint32_t n, float g, const float* prev_act) {
    const std::size_t row = static_cast<std::size_t>(n) * input_dim_;
    kernels::axpy_f32(g, prev_act, gw_.data() + row, input_dim_);
    gb_[n] += g;
    mark_dirty(n);
  }
  // Same for a sparse input vector (first layer).
  void accumulate_grad_sparse(std::uint32_t n, float g, data::SparseVectorView x) {
    const std::size_t row = static_cast<std::size_t>(n) * input_dim_;
    kernels::scatter_axpy_f32(g, x.indices, x.values, x.nnz, gw_.data() + row);
    gb_[n] += g;
    mark_dirty(n);
  }
  // prev_grad += g * w_row(n): the dense transposed product of Algorithm 2.
  void backprop_to_dense(std::uint32_t n, float g, float* prev_grad) const {
    const std::size_t row = static_cast<std::size_t>(n) * input_dim_;
    if (precision_ == Precision::Bf16All) {
      kernels::axpy_bf16(g, w16_.data() + row, prev_grad, input_dim_);
    } else {
      kernels::axpy_f32(g, w_.data() + row, prev_grad, input_dim_);
    }
  }
  // Compact variant for a *sparse* previous layer: prev_grad_compact[k] +=
  // g * w_row(n)[prev_active[k]].  `scratch` must hold >= count floats.
  void backprop_to_sparse(std::uint32_t n, float g, const std::uint32_t* prev_active,
                          std::size_t count, float* scratch, float* prev_grad_compact) const;

  void mark_dirty(std::uint32_t n) {
    dirty_[n].store(1, std::memory_order_relaxed);
    if (incremental_) touched_[n].store(1, std::memory_order_relaxed);
  }

  // --- optimizer -----------------------------------------------------------
  // Applies ADAM to every dirty row (plus its bias) and clears the flags.
  // Parallel over neurons when a pool is given.
  void adam_step(const AdamConfig& cfg, const AdamBias& bias, ThreadPool* pool);

  // --- LSH maintenance -------------------------------------------------------
  // Recomputes every neuron's hashes and reloads the tables.  No-op for
  // dense layers.
  void rebuild_tables(ThreadPool* pool);
  // Incremental maintenance: re-hashes only neurons whose weights changed
  // since the last maintenance and moves the entries whose bucket moved
  // (paper Section 2's delete-and-reinsert).  No-op for dense layers.
  void incremental_update(ThreadPool* pool);
  // Counts a finished batch; refreshes tables on SLIDE's growing schedule
  // using the configured maintenance strategy.  Returns true on a refresh.
  bool on_batch_end(ThreadPool* pool);

  const lsh::HashFamily* hash_family() const { return family_.get(); }
  const lsh::LshTables* tables() const { return tables_.get(); }

  void hash_input_dense(const float* x, std::uint32_t* buckets) const {
    family_->hash_dense(x, buckets);
  }

  // --- raw access (serialization, tests) -----------------------------------
  std::span<float> weights_f32() { return {w_.data(), w_.size()}; }
  std::span<const float> weights_f32() const { return {w_.data(), w_.size()}; }
  std::span<bf16> weights_bf16() { return {w16_.data(), w16_.size()}; }
  std::span<const bf16> weights_bf16() const { return {w16_.data(), w16_.size()}; }
  std::span<float> biases() { return {bias_.data(), bias_.size()}; }
  std::span<const float> biases() const { return {bias_.data(), bias_.size()}; }
  std::span<const float> weight_gradients() const { return {gw_.data(), gw_.size()}; }
  std::span<float> moment1() { return {mw_.data(), mw_.size()}; }
  std::span<const float> moment1() const { return {mw_.data(), mw_.size()}; }
  std::span<float> moment2() { return {vw_.data(), vw_.size()}; }
  std::span<const float> moment2() const { return {vw_.data(), vw_.size()}; }
  std::span<float> bias_moment1() { return {mb_.data(), mb_.size()}; }
  std::span<const float> bias_moment1() const { return {mb_.data(), mb_.size()}; }
  std::span<float> bias_moment2() { return {vb_.data(), vb_.size()}; }
  std::span<const float> bias_moment2() const { return {vb_.data(), vb_.size()}; }
  // Row n of the fp32 weight arena (undefined for Bf16All; use row_bf16).
  const float* row_f32(std::uint32_t n) const { return w_.data() + std::size_t{n} * input_dim_; }
  const bf16* row_bf16(std::uint32_t n) const {
    return w16_.data() + std::size_t{n} * input_dim_;
  }

 private:
  void hash_all_neurons(std::uint32_t* bucket_indices, ThreadPool* pool) const;

  std::size_t input_dim_ = 0;
  std::size_t dim_ = 0;
  LayerConfig cfg_;
  Precision precision_ = Precision::Fp32;
  std::uint64_t seed_ = 0;

  AlignedVector<float> w_;    // dim x input_dim, row-major (Fp32 / Bf16Activations)
  AlignedVector<bf16> w16_;   // dim x input_dim, row-major (Bf16All)
  AlignedVector<float> bias_;
  AlignedVector<float> gw_;   // gradient arena, same shape as weights
  AlignedVector<float> gb_;
  AlignedVector<float> mw_, vw_;  // ADAM moments (always fp32)
  AlignedVector<float> mb_, vb_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_;

  std::unique_ptr<lsh::HashFamily> family_;
  std::unique_ptr<lsh::LshTables> tables_;
  std::size_t batches_since_rebuild_ = 0;
  double current_rebuild_interval_ = 0.0;

  // Incremental maintenance state (allocated only in that mode): per-neuron
  // "weights changed" flags and the bucket indices currently stored in the
  // tables (dim x num_tables, row-major).
  bool incremental_ = false;
  std::unique_ptr<std::atomic<std::uint8_t>[]> touched_;
  std::vector<std::uint32_t> current_buckets_;

  void hash_one_neuron(std::uint32_t n, std::uint32_t* out) const;
};

}  // namespace slide
