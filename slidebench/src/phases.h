// The phases of a measured run.  Each records its metrics and checks into
// the run's Report.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/network.h"
#include "data/dataset.h"
#include "threading/thread_pool.h"
#include "workloads.h"

namespace slidebench {

inline constexpr std::size_t kTopK = 5;

// A trained (or loaded) model with its held-out set and its dense top-5
// predictions (test.size() x kTopK, from Network::predict_topk).
struct Model {
  std::unique_ptr<slide::Network> net;
  std::unique_ptr<slide::data::Dataset> test;
  std::vector<std::uint32_t> top5;
};

// Timed rounds of the model lifecycle.  Each round freezes the network,
// saves it, loads it back, on amazon-serve sets up a server and serves one
// reply, and times batched passes over the held-out queries on the loaded
// model: a sampled pass every round, a dense one every third.  Training
// workloads run the rounds between their epochs, so the epochs and every
// round-timed metric sample the same stretch of the run; the host's speed
// varies over seconds, and a metric timed in one short block of a run follows
// whatever the host did in that block.
class LifecycleRounds {
 public:
  static constexpr int kRounds = 21;

  explicit LifecycleRounds(RunContext& ctx);

  // One round on the network's current weights.  With `first_reply` (the
  // expected top-k of query 0), also times a server's set-up to that reply.
  void run(const slide::Network& net, const slide::data::Dataset& test,
           const std::uint32_t* first_reply = nullptr);
  // Runs the rounds due after epoch `epoch` of `epochs`, spreading kRounds
  // evenly over the epochs.
  void after_epoch(std::size_t epoch, std::size_t epochs, const slide::Network& net,
                   const slide::data::Dataset& test);
  // Records the medians (load_s, infer_qps, infer_sampled_qps,
  // infer.freeze_s, and setup_s when set-up was timed) and logs the samples.
  void report();

 private:
  RunContext& ctx_;
  std::string path_;
  slide::ThreadPool pool_;  // batched inference runs on every CPU
  std::vector<std::uint32_t> ids_;
  std::vector<float> scores_;
  std::vector<double> freeze_s_, load_s_, setup_s_, dense_s_, sampled_s_;
  std::size_t queries_ = 0;
  int done_ = 0;
};

// Training workloads: set-up (read or index the inputs, build the Network),
// the epochs (traced or not) with the lifecycle rounds between them, then
// evaluate().  Records setup_s, train_examples_per_s and the
// data/core/lsh/kernels layer metrics.
Model run_training(RunContext& ctx, LifecycleRounds& rounds);

// amazon-serve: loads the checkpoint and the held-out set, evaluate(), then
// the lifecycle rounds back to back.
Model load_checkpoint(RunContext& ctx, LifecycleRounds& rounds);

// P@1 and P@5 on the full held-out set, checked against
// Trainer::evaluate_p_at_k, the most-frequent-label predictor, finite
// weights and the reference forward on a sample.
void evaluate(RunContext& ctx, Model& model);

// After the rounds: freeze, save and load the final model and check its
// answers (dense and sampled) against the Network and the reference, then
// serve it over loopback TCP.
void run_lifecycle(RunContext& ctx, const Model& model, LifecycleRounds& rounds);

}  // namespace slidebench
