// Training phase: set-up, epochs and evaluation.
//
// The untraced run trains through Trainer::train_one_epoch, the program's own
// epoch loop.  The traced run interleaves those epochs with epochs of the
// same shape driven from here through Network::forward / backward /
// adam_step / on_batch_end, with a span around every call; the difference
// between the two kinds of epoch is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/serialize.h"
#include "data/stream_reader.h"
#include "data/svm_reader.h"
#include "lsh/sampler.h"
#include "obs/metrics.h"
#include "phases.h"
#include "reference.h"
#include "threading/thread_pool.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/timer.h"

namespace slidebench {

namespace {

using slide::Timer;

std::size_t epochs_for(const RunContext& ctx) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(std::lround(ctx.w.epochs_per_10s * ctx.seconds / 10.0)));
}

slide::data::StreamingConfig stream_config() {
  slide::data::StreamingConfig cfg;
  cfg.chunk_bytes = 1u << 20;  // ~5 chunks per epoch on the wiki-stream set
  cfg.prefetch = 1;            // one loader thread; the trainer gets the rest
  return cfg;
}

// What the traced epoch loop measured beyond its spans.
struct EpochCounts {
  double seconds = 0.0;
  std::size_t examples = 0;
  std::size_t batches = 0;
  std::size_t rebuilds = 0;
  std::uint64_t active_sum = 0;  // output-layer active-set sizes, summed
};

// Epochs driven from the benchmark through the Network's public calls, with
// a span around each.  Mirrors Trainer's HOGWILD batch: examples fan out
// over the global pool, then one adam_step and one on_batch_end per batch.
class TracedEpochs {
 public:
  TracedEpochs(slide::Network& net, const slide::TrainerConfig& cfg, SpanRecorder& spans)
      : net_(net), cfg_(cfg), spans_(spans), main_slot_(slide::global_pool().size()) {
    for (unsigned r = 0; r < slide::global_pool().size(); ++r) {
      ws_.push_back(net_.make_workspace(slide::mix64(cfg_.seed, r, 0x7EACEull)));
    }
    active_.resize(ws_.size());
  }

  EpochCounts run(const slide::data::Dataset& ds, std::uint64_t epoch) {
    EpochCounts c;
    const std::size_t bs = cfg_.batch_size;
    const std::size_t n = ds.size();
    std::vector<std::size_t> order((n + bs - 1) / bs);
    std::iota(order.begin(), order.end(), 0);
    slide::Rng rng(slide::mix64(cfg_.seed, epoch, 0xBA7C4ull));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(i)]);
    }
    Timer timer;
    ScopedSpan ep(&spans_, main_slot_, "epoch", kNoSpan);
    for (const std::size_t b : order) batch(ds, b * bs, std::min(bs, n - b * bs), ep.id(), c);
    c.seconds = timer.seconds();
    return c;
  }

  // Streaming epoch in the order of Trainer's streaming loop: chunks in the
  // stream's shuffled order, each chunk's full batches shuffled, and batches
  // straddling chunk boundaries through a carry set.  The wait inside
  // ChunkStream::next() is the loader wait.
  EpochCounts run(slide::data::StreamingDataset& stream, std::uint64_t epoch) {
    EpochCounts c;
    const std::size_t bs = cfg_.batch_size;
    const auto fresh = [&] {
      return slide::data::Dataset(stream.feature_dim(), stream.label_dim());
    };
    slide::data::Dataset pending = fresh();
    const auto carry = [&](const slide::data::Dataset& ds, std::size_t i) {
      const auto f = ds.features(i);
      pending.add(f.index_span(), f.value_span(), ds.labels(i));
    };
    Timer timer;
    ScopedSpan ep(&spans_, main_slot_, "epoch", kNoSpan);
    slide::data::ChunkStream chunks = stream.begin_epoch(cfg_.seed, epoch, /*shuffle=*/true);
    std::vector<std::size_t> order;
    std::size_t chunk_seq = 0;
    for (;;) {
      std::optional<slide::data::Dataset> chunk;
      {
        ScopedSpan wait(&spans_, main_slot_, "data.wait", ep.id());
        chunk = chunks.next();
      }
      if (!chunk) break;
      const slide::data::Dataset& ds = *chunk;
      std::size_t i = 0;
      while (pending.size() > 0 && pending.size() < bs && i < ds.size()) carry(ds, i++);
      if (pending.size() == bs) {
        batch(pending, 0, bs, ep.id(), c);
        pending = fresh();
      }
      if (pending.size() > 0 || ds.size() == 0) continue;  // the carry is not full
      order.resize((ds.size() - i) / bs);
      std::iota(order.begin(), order.end(), 0);
      slide::Rng rng(slide::mix64(slide::mix64(cfg_.seed, epoch, 0xBA7C4ull), chunk_seq, 0x51DEull));
      for (std::size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1], order[rng.uniform_u64(j)]);
      }
      for (const std::size_t j : order) batch(ds, i + j * bs, bs, ep.id(), c);
      for (i += order.size() * bs; i < ds.size(); ++i) carry(ds, i);
      ++chunk_seq;
    }
    if (pending.size() > 0) batch(pending, 0, pending.size(), ep.id(), c);
    c.seconds = timer.seconds();
    return c;
  }

 private:
  void batch(const slide::data::Dataset& ds, std::size_t begin, std::size_t count,
             SpanId parent, EpochCounts& c) {
    slide::ThreadPool& pool = slide::global_pool();
    ScopedSpan b(&spans_, main_slot_, "batch", parent);
    {
      ScopedSpan fan(&spans_, main_slot_, "hogwild", b.id());
      const SpanId fan_id = fan.id();
      const std::size_t grain = std::max<std::size_t>(1, cfg_.batch_size / (4 * pool.size()));
      pool.parallel_for_dynamic(count, grain, [&](unsigned rank, std::size_t lo,
                                                  std::size_t hi) {
        slide::Workspace& ws = ws_[rank];
        std::uint64_t active = 0;
        for (std::size_t i = begin + lo; i < begin + hi; ++i) {
          const auto x = ds.features(i);
          const auto labels = ds.labels(i);
          {
            ScopedSpan s(&spans_, rank, "forward", fan_id);
            net_.forward(x, labels, ws, /*train=*/true);
          }
          active += ws.layers.back().active.size();
          {
            ScopedSpan s(&spans_, rank, "backward", fan_id);
            net_.backward(x, labels, ws);
          }
        }
        active_[rank].value += active;
      });
    }
    {
      ScopedSpan s(&spans_, main_slot_, "adam", b.id());
      net_.adam_step(cfg_.adam, &pool);
    }
    {
      ScopedSpan s(&spans_, main_slot_, "batch_end", b.id());
      c.rebuilds += net_.on_batch_end(&pool);
    }
    c.examples += count;
    ++c.batches;
    for (auto& a : active_) {
      c.active_sum += a.value;
      a.value = 0;
    }
  }

  slide::Network& net_;
  const slide::TrainerConfig cfg_;
  SpanRecorder& spans_;
  const std::size_t main_slot_;
  std::vector<slide::Workspace> ws_;
  std::vector<slide::CacheAligned<std::uint64_t>> active_;
};

// Output layer's hashing and active-set selection, replayed on a sample of
// held-out examples: the hidden activations come from a forward pass, then
// hash_input_dense and select_active_set (labels forced, as in training) are
// each timed over the whole sample.  Last, what the buckets alone supply:
// select_active_set with no labels, no floor and no cap.
void replay_lsh(RunContext& ctx, slide::Network& net, const slide::data::Dataset& test) {
  const std::size_t out = net.num_layers() - 1;
  const slide::Layer& L = net.layer(out);
  if (!L.uses_hashing()) return;
  const std::size_t n = std::min<std::size_t>(test.size(), 2000);
  const std::size_t hidden = net.layer(out - 1).dim();
  const std::size_t tables = L.hash_family()->num_tables();
  slide::Workspace ws = net.make_workspace(0x5EEDull);
  std::vector<float> acts(n * hidden);
  for (std::size_t i = 0; i < n; ++i) {
    net.forward(test.features(i), {}, ws, /*train=*/false);
    std::copy_n(ws.layers[out - 1].act.data(), hidden, acts.data() + i * hidden);
  }
  std::vector<std::uint32_t> buckets(n * tables);
  const std::size_t slot = slide::global_pool().size();
  SpanId hash_span = ctx.spans->begin(slot, "lsh.hash", kNoSpan);
  for (std::size_t i = 0; i < n; ++i) {
    L.hash_input_dense(acts.data() + i * hidden, buckets.data() + i * tables);
  }
  ctx.spans->end(hash_span);
  const slide::lsh::SamplerLimits limits{L.config().lsh.min_active, L.config().lsh.max_active};
  slide::lsh::SamplerScratch sampler(0xACE5ull);
  std::vector<std::uint32_t> active;
  SpanId select_span = ctx.spans->begin(slot, "lsh.select", kNoSpan);
  for (std::size_t i = 0; i < n; ++i) {
    slide::lsh::select_active_set(*L.tables(), buckets.data() + i * tables, test.labels(i),
                                  L.dim(), limits, sampler, active);
  }
  ctx.spans->end(select_span);
  std::uint64_t candidates = 0;
  for (std::size_t i = 0; i < n; ++i) {
    slide::lsh::select_active_set(*L.tables(), buckets.data() + i * tables, {}, L.dim(),
                                  {0, L.dim()}, sampler, active);
    candidates += active.size();
  }
  ctx.rep.set("lsh.candidates_avg", static_cast<double>(candidates) / static_cast<double>(n));
  const auto dur_us = [&](SpanId id) {
    const Span& s = ctx.spans->get(id);
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  };
  ctx.rep.set("lsh.hash_us", dur_us(hash_span) / static_cast<double>(n));
  ctx.rep.set("lsh.select_us", dur_us(select_span) / static_cast<double>(n));
}

// Bytes of weights and gradients the kernels touch per training example,
// computed from tensor sizes: layer 0 gathers nnz rows of its transposed
// view per hidden unit (forward) and scatters the same into the fp32
// gradient arena (backward, read + write); the output layer reads each
// active neuron's row twice (dot, then backprop) and updates its gradient.
void kernel_bytes(RunContext& ctx, const slide::Network& net, double avg_nnz,
                  double active_avg) {
  const double wbytes = net.precision() == slide::Precision::Bf16All ? 2.0 : 4.0;
  const double hidden = static_cast<double>(net.layer(0).dim());
  ctx.rep.set("kernels.l0_bytes_per_example", avg_nnz * hidden * (wbytes + 8.0));
  ctx.rep.set("kernels.out_bytes_per_example", active_avg * hidden * (2.0 * wbytes + 8.0));
}

bool all_finite(const slide::Network& net) {
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const slide::Layer& L = net.layer(i);
    for (const float v : L.weights_f32()) {
      if (!std::isfinite(v)) return false;
    }
    for (const slide::bf16 v : L.weights_bf16()) {
      if (!std::isfinite(v.to_float())) return false;
    }
    for (const float v : L.biases()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

double avg_nnz(const slide::data::Dataset& ds) {
  return ds.size() == 0 ? 0.0
                        : static_cast<double>(ds.total_nnz()) / static_cast<double>(ds.size());
}

}  // namespace

Model run_training(RunContext& ctx, LifecycleRounds& rounds) {
  const Workload& w = ctx.w;
  Report& rep = ctx.rep;
  const bool streaming = w.kind == Kind::Stream;
  // The streaming loader's prefetch thread takes one CPU from the trainer.
  const unsigned threads = w.train_threads > 0 ? w.train_threads
                           : streaming         ? std::max(1u, ctx.cpus - 1)
                                               : ctx.cpus;
  slide::set_global_pool_threads(threads);
  const std::size_t main_slot = threads;

  // --- set-up: read (or index) the inputs and build the Network, repeated.
  std::unique_ptr<slide::data::Dataset> train;
  std::unique_ptr<slide::data::StreamingDataset> stream;
  Model m;
  std::vector<double> setup_s, read_s, scan_s, init_s;
  for (int r = 0; r < kRepeats; ++r) {
    train.reset();
    stream.reset();
    m = Model{};
    ScopedSpan setup(ctx.spans, main_slot, "setup", kNoSpan);
    Timer total;
    if (streaming) {
      ScopedSpan s(ctx.spans, main_slot, "data.index_scan", setup.id());
      Timer t;
      stream = std::make_unique<slide::data::StreamingDataset>(train_path(ctx.dir),
                                                               stream_config());
      scan_s.push_back(t.seconds());
    }
    {
      ScopedSpan s(ctx.spans, main_slot, "data.read", setup.id());
      Timer t;
      if (!streaming) {
        train = std::make_unique<slide::data::Dataset>(
            slide::data::read_xc_file(train_path(ctx.dir)));
      }
      m.test = std::make_unique<slide::data::Dataset>(
          slide::data::read_xc_file(test_path(ctx.dir)));
      read_s.push_back(t.seconds());
    }
    {
      ScopedSpan s(ctx.spans, main_slot, "core.init", setup.id());
      Timer t;
      const std::size_t in_dim = streaming ? stream->feature_dim() : train->feature_dim();
      const std::size_t labels = streaming ? stream->label_dim() : train->label_dim();
      m.net = std::make_unique<slide::Network>(network_config(w, in_dim, labels));
      init_s.push_back(t.seconds());
    }
    setup_s.push_back(total.seconds());
  }
  rep.set("setup_s", median(setup_s));
  rep.set("data.read_s", median(read_s));
  rep.set("data.index_scan_s", median(scan_s));
  rep.set("core.init_s", median(init_s));

  // --- epochs.
  slide::Network& net = *m.net;
  const std::size_t n = streaming ? stream->declared_examples() : train->size();
  const std::size_t epochs = epochs_for(ctx);
  slide::obs::MetricsRegistry registry;
  slide::TrainerConfig tcfg = trainer_config(w);
  tcfg.metrics = &registry;
  slide::Trainer trainer(net, tcfg);
  slide::obs::Counter& examples = registry.counter("slide_train_examples_total", "");
  slide::obs::Counter& batches = registry.counter("slide_train_batches_total", "");
  std::optional<TracedEpochs> traced;
  if (ctx.traced()) traced.emplace(net, trainer_config(w), *ctx.spans);

  std::vector<double> plain_s;  // seconds of the untraced epochs after the first
  std::vector<double> epoch_s(epochs);
  // The streaming loader's own figures for the same epochs.
  std::vector<double> wait_s, first_batch_s, chunks;
  EpochCounts sum;  // over traced epochs
  std::size_t traced_epochs = 0;
  // Traced run: epochs 0 (warm-up) and 1 are the program's, then traced and
  // untraced epochs alternate, so each traced epoch has untraced neighbours.
  const auto is_traced = [&](std::size_t e) { return traced && e >= 2 && e % 2 == 0; };
  for (std::size_t e = 0; e < epochs; ++e) {
    if (is_traced(e)) {
      const EpochCounts c = streaming ? traced->run(*stream, 1000 + e) : traced->run(*train, 1000 + e);
      rep.check(c.examples == n, w.name + std::string(": traced epoch consumed ") +
                                     std::to_string(c.examples) + " of " + std::to_string(n) +
                                     " examples");
      rep.attempt(c.batches);
      epoch_s[e] = c.seconds;
      sum.examples += c.examples;
      sum.batches += c.batches;
      sum.rebuilds += c.rebuilds;
      sum.active_sum += c.active_sum;
      ++traced_epochs;
      rounds.after_epoch(e, epochs, net, *m.test);
      continue;
    }
    const std::uint64_t ex0 = examples.value();
    const std::uint64_t b0 = batches.value();
    const double s = streaming ? trainer.train_one_epoch(*stream) : trainer.train_one_epoch(*train);
    const std::uint64_t consumed = examples.value() - ex0;
    rep.check(consumed == n, w.name + std::string(": epoch consumed ") +
                                 std::to_string(consumed) + " of " + std::to_string(n) +
                                 " examples");
    if (streaming) {
      const slide::StreamStats& st = trainer.last_stream_stats();
      rep.check(st.examples == n,
                "wiki-stream: stream delivered a different count than the file declares");
      if (e > 0) {
        wait_s.push_back(st.loader_wait_seconds);
        first_batch_s.push_back(st.first_batch_seconds);
        chunks.push_back(static_cast<double>(st.chunks));
      }
    }
    rep.attempt(batches.value() - b0);
    epoch_s[e] = s;
    if (e > 0) plain_s.push_back(s);
    rounds.after_epoch(e, epochs, net, *m.test);
  }
  rep.set("train_examples_per_s", rate(n, plain_s));
  if (streaming) {
    rep.set("data.loader_wait_s", median(wait_s));
    rep.set("data.first_batch_s", median(first_batch_s));
    rep.set("data.chunks", median(chunks));
  }
  std::fprintf(stderr, "%s: %zu epochs of %zu examples\n", w.name, epochs, n);
  log_samples(std::string(w.name) + ": set-up s", setup_s);
  log_samples(std::string(w.name) + ": epoch s", plain_s);
  if (streaming) log_samples(std::string(w.name) + ": loader wait s", wait_s);
  rep.check(all_finite(net), std::string(w.name) + ": non-finite weights after training");

  if (traced) {
    const auto totals = ctx.spans->totals();
    const auto get = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals fwd = get("forward"), bwd = get("backward"), adam = get("adam"),
                     end = get("batch_end"), ep = get("epoch");
    const auto per = [](double s, std::uint64_t count) {
      return count == 0 ? 0.0 : s / static_cast<double>(count);
    };
    const double te = static_cast<double>(traced_epochs);
    rep.set("core.forward_us", per(fwd.self_s, fwd.count) * 1e6);
    rep.set("core.backward_us", per(bwd.self_s, bwd.count) * 1e6);
    rep.set("core.adam_ms", per(adam.total_s, adam.count) * 1e3);
    rep.set("core.batch_end_ms", per(end.total_s, end.count) * 1e3);
    rep.set("core.rebuilds", static_cast<double>(sum.rebuilds) / te);
    rep.set("lsh.active_avg", per(static_cast<double>(sum.active_sum), sum.examples));
    // Share of the traced epochs' wall time that their child spans (batches
    // and loader waits) account for.
    const double coverage = ep.total_s > 0 ? 1.0 - ep.self_s / ep.total_s : 0.0;
    rep.set("trace.span_coverage", coverage);
    rep.check(coverage >= 0.98, std::string(w.name) + ": training spans cover only " +
                                    std::to_string(coverage) + " of the epoch wall time");
    // Each traced epoch against the mean of its untraced neighbours, so the
    // trend of epoch cost over a run does not read as overhead.
    std::vector<double> ratios;
    for (std::size_t e = 2; e < epochs; e += 2) {
      const double next = e + 1 < epochs ? epoch_s[e + 1] : epoch_s[e - 1];
      ratios.push_back(epoch_s[e] / (0.5 * (epoch_s[e - 1] + next)));
    }
    rep.set("trace.overhead_pct", (median(ratios) - 1.0) * 100.0);
    kernel_bytes(ctx, net, streaming ? avg_nnz(*m.test) : avg_nnz(*train),
                 rep.get("lsh.active_avg"));
    replay_lsh(ctx, net, *m.test);
  }

  slide::set_global_pool_threads(ctx.cpus);
  evaluate(ctx, m);
  return m;
}

Model load_checkpoint(RunContext& ctx, LifecycleRounds& rounds) {
  slide::set_global_pool_threads(ctx.cpus);
  Model m;
  std::FILE* f = std::fopen(gen_stats_path(ctx.dir).c_str(), "r");
  double rate = 0.0;
  const bool ok = f != nullptr && std::fscanf(f, "train_examples_per_s %lf", &rate) == 1;
  if (f != nullptr) std::fclose(f);
  if (!ok) throw std::runtime_error("cannot read " + gen_stats_path(ctx.dir));
  // The checkpoint's single-thread training rate, measured by the generator
  // before this process started.
  ctx.rep.set("train_examples_per_s", rate);

  std::vector<double> read_s;
  for (int r = 0; r < kRepeats; ++r) {
    Timer t;
    m.test = std::make_unique<slide::data::Dataset>(slide::data::read_xc_file(test_path(ctx.dir)));
    read_s.push_back(t.seconds());
  }
  ctx.rep.set("data.read_s", median(read_s));
  m.net = std::make_unique<slide::Network>(slide::load_network_file(checkpoint_path(ctx.dir)));
  ctx.rep.check(all_finite(*m.net), "amazon-serve: non-finite weights in the checkpoint");
  if (ctx.traced()) {
    replay_lsh(ctx, *m.net, *m.test);
    // Served queries run the dense path: layer 0 gathers nnz weights per
    // hidden unit and the output layer reads every row once.
    const slide::Network& net = *m.net;
    const double wbytes = net.precision() == slide::Precision::Bf16All ? 2.0 : 4.0;
    const double hidden = static_cast<double>(net.layer(0).dim());
    ctx.rep.set("kernels.l0_bytes_per_example", avg_nnz(*m.test) * hidden * wbytes);
    ctx.rep.set("kernels.out_bytes_per_example",
                static_cast<double>(net.output_dim()) * hidden * wbytes);
  }
  evaluate(ctx, m);
  for (int r = 0; r < LifecycleRounds::kRounds; ++r) rounds.run(*m.net, *m.test, m.top5.data());
  return m;
}

void evaluate(RunContext& ctx, Model& m) {
  slide::Network& net = *m.net;
  const slide::data::Dataset& test = *m.test;
  Report& rep = ctx.rep;
  const std::size_t n = test.size();
  slide::ThreadPool& pool = slide::global_pool();

  m.top5.assign(n * kTopK, 0xFFFFFFFFu);
  std::vector<slide::Workspace> ws;
  for (unsigned r = 0; r < pool.size(); ++r) ws.push_back(net.make_workspace(r));
  pool.parallel_for_dynamic(n, 16, [&](unsigned rank, std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = lo; i < hi; ++i) {
      net.predict_topk(test.features(i), kTopK, ws[rank], ids);
      std::copy(ids.begin(), ids.end(), m.top5.begin() + i * kTopK);
    }
  });
  rep.attempt(n);

  const auto p_at = [&](std::size_t k, std::size_t count) {
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      sum += precision_at_k({m.top5.data() + i * kTopK, k}, test.labels(i));
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };
  const double p1 = p_at(1, n);
  const double p5 = p_at(kTopK, n);
  rep.set("p_at_1", p1);
  rep.set("p_at_5", p5);

  // The program's own P@k over a prefix of the held-out set must agree.
  const std::size_t prefix = std::min<std::size_t>(n, 2000);
  slide::Trainer evaluator(net, trainer_config(ctx.w));
  for (const std::size_t k : {std::size_t{1}, kTopK}) {
    const double ours = p_at(k, prefix);
    const double theirs = evaluator.evaluate_p_at_k(test, k, prefix);
    rep.check(std::fabs(ours - theirs) <= 1e-12,
              std::string(ctx.w.name) + ": P@" + std::to_string(k) + " " + std::to_string(ours) +
                  " != Trainer::evaluate_p_at_k " + std::to_string(theirs));
  }

  // The best constant predictor: the most frequent label of the held-out set.
  std::vector<std::size_t> freq(net.output_dim(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t l : test.labels(i)) ++freq[l];
  }
  const double baseline = static_cast<double>(*std::max_element(freq.begin(), freq.end())) /
                          static_cast<double>(std::max<std::size_t>(n, 1));
  rep.check(p1 > baseline, std::string(ctx.w.name) + ": P@1 " + std::to_string(p1) +
                               " does not beat the most-frequent-label predictor " +
                               std::to_string(baseline));

  // Top-1 against the reference forward on an evenly spaced sample.
  const std::vector<RefLayer> layers = reference_layers(net);
  const double tol = tolerance_for(net.precision());
  const std::size_t sample = std::min<std::size_t>(n, 200);
  std::size_t disagree = 0;
  for (std::size_t s = 0; s < sample; ++s) {
    const std::size_t i = s * n / sample;
    const RefOutput ref = reference_forward(layers, test.features(i));
    if (!top1_agrees(ref, m.top5[i * kTopK], tol)) ++disagree;
  }
  rep.check(disagree == 0, std::string(ctx.w.name) + ": Network top-1 differs from the reference on " +
                               std::to_string(disagree) + " of " + std::to_string(sample) +
                               " sampled examples");
}

}  // namespace slidebench
