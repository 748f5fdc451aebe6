// The SLIDE network: sparse-input MLP whose hashed layers compute only an
// LSH-selected active set per example (paper Sections 2 and 4).
//
// Threading model: Network owns the shared state (weights, gradient arenas,
// hash tables).  Each worker thread owns a Workspace and calls
// forward()/backward() on its own examples concurrently (HOGWILD); the
// trainer then calls adam_step() and on_batch_end() from a single thread
// between batches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/forward.h"
#include "core/layer.h"

namespace slide {

class Network;

// Per-thread buffers for one example's forward/backward pass: the shared
// forward-pass scratch (core/forward.h) plus the gradient-side buffers.
class Workspace : public ForwardScratch {
 public:
  Workspace(const Network& net, std::uint64_t seed);

  struct GradState {
    AlignedVector<float> grad;  // dL/d(pre-activation), same indexing as act
    AlignedVector<float> gather_scratch;
  };
  std::vector<GradState> grads;   // one per layer, like `layers`
  std::vector<LayerView> views;   // refreshed by every pass
};

class Network {
 public:
  explicit Network(NetworkConfig cfg);

  const NetworkConfig& config() const { return cfg_; }
  Precision precision() const { return cfg_.precision; }
  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return layers_[i]; }
  const Layer& layer(std::size_t i) const { return layers_[i]; }
  std::size_t input_dim() const { return cfg_.input_dim; }
  std::size_t output_dim() const { return layers_.back().dim(); }
  std::size_t num_params() const;

  Workspace make_workspace(std::uint64_t seed = 0) const { return Workspace(*this, seed); }

  // Sparse forward pass.  In training mode the example's labels are forced
  // into the output layer's active set (they occupy the first labels.size()
  // slots).  Returns the cross-entropy loss against the uniform multi-hot
  // target when `train` and labels are present, else 0.
  // Thread-safe across distinct workspaces.
  float forward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                Workspace& ws, bool train);

  // Backpropagates from the softmax output and accumulates gradients into
  // the shared arenas (HOGWILD).  Must follow a forward(train=true) call on
  // the same workspace/example.
  void backward(data::SparseVectorView x, std::span<const std::uint32_t> labels,
                Workspace& ws);

  // One optimizer step over all dirty rows (call once per batch).
  void adam_step(const AdamConfig& cfg, ThreadPool* pool);

  // Batch bookkeeping: advances every hashed layer's rebuild schedule.
  // Returns how many layers refreshed their tables this batch (usually 0).
  std::size_t on_batch_end(ThreadPool* pool);
  // Forces an immediate rebuild of all hash tables.
  void rebuild_hash_tables(ThreadPool* pool);

  // Full (dense) inference: evaluates every output neuron.  Used for P@k.
  // The output layer's raw logits are left in ws.layers.back().act.
  std::uint32_t predict_top1(data::SparseVectorView x, Workspace& ws) const;
  void predict_topk(data::SparseVectorView x, std::size_t k, Workspace& ws,
                    std::vector<std::uint32_t>& out) const;

  // LSH-sampled inference: queries the hash tables instead of scanning all
  // output neurons (sublinear, slightly lossy).  Returns the highest-logit
  // neuron among the sampled active set, or the dense answer when a sampled
  // layer selects no neuron.
  std::uint32_t predict_top1_sampled(data::SparseVectorView x, Workspace& ws) const;

  std::uint64_t adam_steps() const { return adam_t_; }
  void set_adam_steps(std::uint64_t t) { adam_t_ = t; }

 private:
  // forward_pass over this network's layers; shared by forward() and the
  // predict paths.  Returns false when a sampled layer selected no neuron.
  bool run_forward(data::SparseVectorView x, bool use_tables,
                   std::span<const std::uint32_t> forced, Workspace& ws) const;

  NetworkConfig cfg_;
  std::vector<Layer> layers_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace slide
