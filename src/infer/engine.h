// Thread-safe, batched serving front end over a PackedModel.
//
// The engine owns a pool of per-query scratch buffers (activations, active
// sets, sampler state — the ForwardScratch of core/forward.h).  Every query
// leases one, so any number of caller threads can issue queries
// concurrently against the same immutable model; the batch entry point fans
// a whole query batch out over the thread pool with one lease per worker
// chunk.
//
// Two ranking modes:
//   Dense    every output neuron is evaluated through the blocked
//            dot_rows_* kernels — exact.  Network::predict_topk runs the
//            same forward_pass, so on the same frozen weights the two agree
//            bit for bit.
//   Sampled  the frozen LSH tables pick a candidate set first (SLIDE's
//            sublinear inference); top-k is taken over the candidates only.
// Scores are raw pre-softmax logits in both modes (softmax is monotone, so
// the ranking is unchanged).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/forward.h"
#include "data/sparse_batch.h"
#include "infer/packed_model.h"
#include "threading/thread_pool.h"

namespace slide::infer {

enum class TopKMode { Dense, Sampled };

class InferenceEngine {
 public:
  // Pad value for batch output slots beyond the candidate count (sampled
  // queries can return fewer than k candidates).
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

  // The model must outlive the engine.  `seed` drives the sampled mode's
  // random top-up streams (one independent stream per leased scratch).
  explicit InferenceEngine(const PackedModel& model, std::uint64_t seed = 0x5E11Cull);

  const PackedModel& model() const { return model_; }

  // --- single query (thread-safe) -----------------------------------------
  // Fills `ids` with up to k neuron ids, best first; `scores` (optional)
  // receives the matching logits.
  void predict_topk(data::SparseVectorView x, std::size_t k, std::vector<std::uint32_t>& ids,
                    TopKMode mode = TopKMode::Dense, std::vector<float>* scores = nullptr);
  std::uint32_t predict_top1(data::SparseVectorView x, TopKMode mode = TopKMode::Dense);

  // --- batched queries ----------------------------------------------------
  // Per-query completion hook for the batch path: invoked with the query's
  // index exactly once, as soon as that query's output row is final — i.e.
  // before the rest of the batch finishes (the partial-batch path the
  // serving layer uses to complete request futures early).  Runs on
  // whichever pool worker served the query; must be thread-safe.
  using BatchCompletionFn = std::function<void(std::size_t query)>;

  // Serves xs.size() queries, fanning out over `pool` (the global pool when
  // nullptr).  out_ids is xs.size() x k row-major, padded with kInvalidId;
  // out_scores (optional) has the same shape.  Thread-safe like the single-
  // query path, though typically one thread submits whole batches.  With an
  // empty batch or k == 0 the call returns at once and `on_query_done` is
  // never invoked.
  void predict_topk_batch(std::span<const data::SparseVectorView> xs, std::size_t k,
                          std::uint32_t* out_ids, float* out_scores = nullptr,
                          TopKMode mode = TopKMode::Dense, ThreadPool* pool = nullptr,
                          const BatchCompletionFn& on_query_done = {});

 private:
  struct Scratch : ForwardScratch {
    std::vector<std::uint32_t> topk;
  };
  // RAII lease: returns the scratch to the freelist on destruction.
  class Lease {
   public:
    explicit Lease(InferenceEngine& e) : engine_(e), scratch_(e.acquire_scratch()) {}
    ~Lease() { engine_.release_scratch(std::move(scratch_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Scratch& operator*() { return *scratch_; }

   private:
    InferenceEngine& engine_;
    std::unique_ptr<Scratch> scratch_;
  };

  std::unique_ptr<Scratch> acquire_scratch();
  void release_scratch(std::unique_ptr<Scratch> s);

  // Runs forward_pass, leaving the output logits in the last layer's
  // scratch (compact over `active` in sampled mode, full-width otherwise).
  // A sampled pass in which a hashed layer selected no candidate is redone
  // as the exact full-width pass.
  void forward(data::SparseVectorView x, TopKMode mode, Scratch& s);
  void emit_topk(Scratch& s, std::size_t k, std::vector<std::uint32_t>& ids,
                 std::vector<float>* scores);

  const PackedModel& model_;
  const std::vector<LayerView> views_;  // model_'s layers, which never change
  std::uint64_t seed_;
  std::atomic<std::uint64_t> scratch_seq_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scratch>> free_;
};

}  // namespace slide::infer
