#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/network.h"
#include "core/serialize.h"
#include "data/svm_reader.h"
#include "data/synthetic.h"
#include "data/text_corpus.h"
#include "report.h"
#include "threading/thread_pool.h"
#include "util/rng.h"

namespace slidebench {

namespace {

// wiki-stream and text8-train train on one thread: under HOGWILD their epoch
// rate followed the run rather than the code (on text8-train, six runs of one
// seed on two threads spread 0.17, interquartile range over median; five on
// one thread 0.08).
const Workload kWorkloads[] = {
    {"amazon-train", Kind::Train, DataKind::Amazon, 128, slide::Activation::ReLU, 1024,
     slide::HashKind::Dwta, 5, 50, slide::Precision::Fp32, 12.0, 10000, 0},
    {"wiki-stream", Kind::Stream, DataKind::Wiki, 128, slide::Activation::ReLU, 256,
     slide::HashKind::Dwta, 5, 50, slide::Precision::Bf16All, 12.0, 18000, 1},
    {"text8-train", Kind::Train, DataKind::Text8, 200, slide::Activation::Linear, 512,
     slide::HashKind::SimHash, 9, 50, slide::Precision::Fp32, 7.0, 14000, 1},
    {"amazon-serve", Kind::Serve, DataKind::Amazon, 128, slide::Activation::ReLU, 1024,
     slide::HashKind::Dwta, 5, 50, slide::Precision::Fp32, 0.0, 14000, 1},
};

// Epochs of the single-thread amazon-serve checkpoint training.
constexpr std::size_t kCheckpointEpochs = 6;

// The generators' base seeds (bench/bench_common.h uses the same ones),
// mixed with the run's seed.
std::uint64_t data_seed(DataKind d, std::uint64_t seed) {
  const std::uint64_t base = d == DataKind::Amazon ? 670 : d == DataKind::Wiki ? 325 : 253;
  return slide::mix64(base, seed);
}

std::pair<slide::data::Dataset, slide::data::Dataset> make_datasets(DataKind d,
                                                                   std::uint64_t seed) {
  // The scale bench/bench_common.h runs at by default (0.02 of Table 1).
  constexpr double kScale = 0.02;
  if (d == DataKind::Text8) {
    slide::data::CorpusConfig cfg;
    cfg.vocab_size = static_cast<std::size_t>(253855 * kScale);
    cfg.num_tokens = 6 * cfg.vocab_size;
    cfg.num_topics = std::max<std::size_t>(16, cfg.vocab_size / 100);
    cfg.window = 2;
    cfg.seed = data_seed(d, seed);
    return slide::data::make_skipgram_datasets(cfg, 0.8);
  }
  slide::data::SyntheticConfig cfg = d == DataKind::Amazon
                                         ? slide::data::amazon670k_like(kScale)
                                         : slide::data::wiki325k_like(kScale);
  cfg.num_train = std::min<std::size_t>(cfg.num_train, d == DataKind::Amazon ? 12000 : 10000);
  cfg.num_test = std::min<std::size_t>(cfg.num_test, 4000);
  cfg.seed = data_seed(d, seed);
  return slide::data::make_xc_datasets(cfg);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::string train_path(const std::string& dir) { return dir + "/train.txt"; }
std::string test_path(const std::string& dir) { return dir + "/test.txt"; }
std::string checkpoint_path(const std::string& dir) { return dir + "/model.ckpt"; }
std::string gen_stats_path(const std::string& dir) { return dir + "/gen_stats.txt"; }

slide::NetworkConfig network_config(const Workload& w, std::size_t input_dim,
                                    std::size_t num_labels) {
  slide::LshLayerConfig lsh;
  lsh.kind = w.hash;
  lsh.k = w.hash_k;
  lsh.l = w.hash_l;
  lsh.bucket_capacity = 128;
  // Fixed-size active sets: every example computes exactly min_active output
  // neurons (its labels, then bucket candidates, then uniform random ones).
  // The floor is bench/bench_common.h's.  With a looser cap an epoch's cost
  // follows the HOGWILD trajectory of the run: under bench_common's cap,
  // max(512, labels/8), and under twice the floor, text8-train's epoch rate
  // spread 26-27% (interquartile range over median) across ten seeds.
  // amazon-train and wiki-stream sit at the floor under any of these caps.
  lsh.min_active = std::max<std::size_t>(64, num_labels / 32);
  lsh.max_active = lsh.min_active;
  lsh.rebuild_interval = 8;
  lsh.rebuild_growth = 1.5;
  slide::NetworkConfig cfg =
      slide::make_slide_mlp(input_dim, w.hidden, num_labels, lsh, w.precision, 42);
  cfg.layers[0].activation = w.hidden_activation;
  return cfg;
}

slide::TrainerConfig trainer_config(const Workload& w) {
  slide::TrainerConfig cfg;
  cfg.batch_size = w.batch;
  cfg.adam.lr = 3e-3f;
  cfg.shuffle = slide::ShuffleMode::Batches;
  cfg.seed = 1;
  return cfg;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void generate_inputs(const Workload& w, std::uint64_t seed, const std::string& dir) {
  auto [train, test] = make_datasets(w.data, seed);
  slide::data::write_xc_file(train_path(dir), train);
  slide::data::write_xc_file(test_path(dir), test);
  if (w.kind != Kind::Serve) return;

  // The served model: trained on one thread with a fixed trainer seed, so
  // the same data seed always yields the same checkpoint.
  slide::set_global_pool_threads(w.train_threads);
  slide::Network net(network_config(w, train.feature_dim(), train.label_dim()));
  slide::Trainer trainer(net, trainer_config(w));
  std::vector<double> epoch_s;
  for (std::size_t e = 0; e < kCheckpointEpochs; ++e) {
    const double s = trainer.train_one_epoch(train);
    if (e > 0) epoch_s.push_back(s);
  }
  slide::save_network_file(net, checkpoint_path(dir), /*include_moments=*/false);
  std::FILE* f = std::fopen(gen_stats_path(dir).c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + gen_stats_path(dir));
  std::fprintf(f, "train_examples_per_s %.17g\n", rate(train.size(), epoch_s));
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + gen_stats_path(dir));
}

}  // namespace slidebench
