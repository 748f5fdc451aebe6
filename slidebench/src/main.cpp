// slidebench: the repository's benchmark program.
//
//   slidebench gen --workload W --seed N --out DIR
//       Writes workload W's inputs for seed N into DIR (for amazon-serve,
//       also the single-thread checkpoint).
//   slidebench run --workload W --dir DIR --seconds S --trace 0|1
//       Runs workload W on the inputs in DIR and prints, as its last line of
//       standard output, one JSON object: correct, attempted, failed and
//       every metric the run recorded, by name.  The traced run (--trace 1)
//       also records the per-layer metrics; run.py picks the ones
//       BENCHMARK.json declares.  Progress and failed checks go to standard
//       error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "phases.h"
#include "report.h"
#include "util/mem_info.h"
#include "workloads.h"

namespace slidebench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: slidebench gen --workload W --seed N --out DIR\n"
               "       slidebench run --workload W --dir DIR --seconds S --trace 0|1\n"
               "workloads: %s\n",
               workload_names().c_str());
  return 2;
}

const char* flag(int argc, char** argv, const char* name) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

int run(const Workload& w, const std::string& dir, double seconds, bool trace) {
  Report rep;
  const unsigned cpus = available_cpus();
  SpanRecorder spans(cpus + 1);
  RunContext ctx{w, dir, seconds, cpus, rep, trace ? &spans : nullptr};
  std::fprintf(stderr, "%s: %u cpus, %.0f s of work, trace=%d\n", w.name, cpus, seconds,
               trace ? 1 : 0);
  LifecycleRounds rounds(ctx);
  const Model model =
      w.kind == Kind::Serve ? load_checkpoint(ctx, rounds) : run_training(ctx, rounds);
  run_lifecycle(ctx, model, rounds);
  rep.set("peak_rss_mib", static_cast<double>(slide::util::peak_rss_bytes()) / (1024.0 * 1024.0));
  if (trace) {
    const std::string path = dir + "/spans.csv";
    rep.check(spans.dump(path), "cannot write " + path);
    std::fprintf(stderr, "%zu spans written to %s\n", spans.size(), path.c_str());
  }
  std::printf("%s\n", rep.json().c_str());
  return 0;
}

}  // namespace
}  // namespace slidebench

int main(int argc, char** argv) {
  using namespace slidebench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const char* wname = flag(argc, argv, "--workload");
    const Workload* w = wname != nullptr ? find_workload(wname) : nullptr;
    if (w == nullptr) return usage();
    if (cmd == "gen") {
      const char* seed = flag(argc, argv, "--seed");
      const char* out = flag(argc, argv, "--out");
      if (seed == nullptr || out == nullptr) return usage();
      generate_inputs(*w, std::strtoull(seed, nullptr, 10), out);
      return 0;
    }
    if (cmd == "run") {
      const char* dir = flag(argc, argv, "--dir");
      const char* seconds = flag(argc, argv, "--seconds");
      const char* trace = flag(argc, argv, "--trace");
      if (dir == nullptr || seconds == nullptr || trace == nullptr) return usage();
      const double s = std::atof(seconds);
      if (!(s > 0)) return usage();
      return run(*w, dir, s, std::strcmp(trace, "1") == 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slidebench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
