// The benchmark's four workloads, their inputs and the shared run context.
//
//   amazon-train  Amazon-670K-like XC set in memory, fp32, DWTA softmax,
//                 batch 1024: the paper's headline training workload.
//   wiki-stream   WikiLSHTC-325K-like set (~32K sparse features) streamed
//                 from disk in chunks, trained in Bf16All, batch 256.
//   text8-train   Text8-like skip-gram set, linear 200-wide hidden layer,
//                 SimHash softmax (K=9, L=50), batch 512.
//   amazon-serve  an Amazon-like model trained on one thread before the
//                 measured process; the run freezes, saves, loads and serves
//                 it offline and over loopback TCP.
//
// Every input is generated from the run's seed by the library's own
// generators and written to files; the measured process reads only those.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "report.h"
#include "spans.h"

namespace slidebench {

enum class Kind { Train, Stream, Serve };
enum class DataKind { Amazon, Wiki, Text8 };

struct Workload {
  const char* name;
  Kind kind;
  DataKind data;
  std::size_t hidden;
  slide::Activation hidden_activation;
  std::size_t batch;
  slide::HashKind hash;
  int hash_k;
  int hash_l;
  slide::Precision precision;
  // Training epochs per 10 s of --seconds (at least 3 are run: one warm-up
  // epoch and two measured ones).  Calibrated on the reference host so the
  // run's measured part lasts about --seconds; fixed, so the work and the
  // trained model do not depend on the speed of the code under test.
  double epochs_per_10s;
  // Sampled loopback TCP requests per 10 s of --seconds, fixed the same way.
  double requests_per_10s;
  // Trainer threads; 0 is one per CPU (one fewer when streaming, for the
  // stream's prefetch thread).
  unsigned train_threads;
};

const Workload* find_workload(const std::string& name);
std::string workload_names();  // comma-separated, for usage messages

// Input files inside a run's input directory.
std::string train_path(const std::string& dir);
std::string test_path(const std::string& dir);
std::string checkpoint_path(const std::string& dir);  // amazon-serve only
std::string gen_stats_path(const std::string& dir);   // amazon-serve only

// Writes the workload's inputs for `seed` into `dir` (which must exist).
// For amazon-serve this also trains the checkpoint on one thread with a
// fixed trainer seed and records its training throughput.
void generate_inputs(const Workload& w, std::uint64_t seed, const std::string& dir);

slide::NetworkConfig network_config(const Workload& w, std::size_t input_dim,
                                    std::size_t num_labels);
slide::TrainerConfig trainer_config(const Workload& w);

// Threads this process may use (its CPU affinity mask).
unsigned available_cpus();

// Everything one measured run shares across its phases.
struct RunContext {
  const Workload& w;
  std::string dir;      // the generated inputs; run outputs go here too
  double seconds = 10;  // scales the run's fixed amount of work
  unsigned cpus = 1;
  Report& rep;
  SpanRecorder* spans = nullptr;  // non-null in the traced run
  bool traced() const { return spans != nullptr; }
};

// Repetitions of a training workload's set-up; the median is reported.
inline constexpr int kRepeats = 11;

}  // namespace slidebench
