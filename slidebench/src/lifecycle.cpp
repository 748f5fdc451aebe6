// Model lifecycle phase: timed rounds of freeze, save, load and batched
// inference; then the final model's checks and loopback TCP serving.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "infer/engine.h"
#include "infer/packed_model.h"
#include "obs/metrics.h"
#include "phases.h"
#include "reference.h"
#include "serve/batching_server.h"
#include "serve/tcp_server.h"
#include "serve/transport.h"
#include "threading/thread_pool.h"
#include "util/timer.h"

namespace slidebench {

namespace {

using slide::Timer;
using slide::infer::InferenceEngine;
using slide::infer::PackedModel;
using slide::infer::TopKMode;

constexpr std::uint32_t kInvalid = InferenceEngine::kInvalidId;
// Closed-loop client connections: each sends its next request when the
// previous reply arrives.
constexpr unsigned kClients = 2;
// Requests per connection treated as warm-up (checked, not sampled).
constexpr std::size_t kWarmupRequests = 500;

std::string name(const RunContext& ctx) { return ctx.w.name; }

slide::serve::ServerConfig server_config(slide::ThreadPool& pool,
                                         slide::obs::MetricsRegistry* metrics) {
  slide::serve::ServerConfig cfg;
  cfg.policy.max_batch_size = 64;
  cfg.policy.max_queue_delay_us = 200;
  cfg.queue_capacity = 4096;
  cfg.admission = slide::serve::Admission::Reject;
  cfg.k = kTopK;
  cfg.mode = TopKMode::Dense;
  cfg.pressure.allow_degrade = false;
  // One engine thread: with a 1-thread pool the dispatcher runs each batch
  // inline, so dispatcher + reactor + clients stay within four CPUs.
  cfg.pool = &pool;
  cfg.metrics = metrics;
  return cfg;
}

slide::serve::TransportConfig transport_config() {
  slide::serve::TransportConfig cfg;
  cfg.reactors = 1;
  return cfg;
}

bool same_ids(const slide::serve::QueryReply& reply, const std::uint32_t* expected) {
  std::size_t valid = 0;
  while (valid < kTopK && expected[valid] != kInvalid) ++valid;
  return reply.ids.size() == valid && std::equal(reply.ids.begin(), reply.ids.end(), expected);
}

// Set-up of a serving process: model load to the first served reply.
double measure_serve_setup(RunContext& ctx, const std::string& path,
                           slide::data::SparseVectorView query, const std::uint32_t* expected) {
  Timer t;
  const PackedModel model = PackedModel::load_file(path);
  InferenceEngine engine(model);
  slide::ThreadPool pool(1);
  slide::serve::BatchingServer server(engine, server_config(pool, nullptr));
  auto transport = slide::serve::make_transport(slide::serve::default_transport(), server,
                                                transport_config());
  transport->start();
  slide::serve::TcpClient client("127.0.0.1", transport->port());
  slide::serve::QueryReply reply;
  const bool ok = client.query(query, kTopK, reply);
  const double seconds = t.seconds();
  ctx.rep.attempt();
  if (!ok || reply.status != slide::serve::Status::Ok) ctx.rep.fail();
  ctx.rep.check(ok && same_ids(reply, expected), name(ctx) + ": first served reply is wrong");
  client.close();
  transport->stop();
  server.drain();
  return seconds;
}

// Checks one sampled top-k row: valid distinct ids first (padding after),
// scores non-increasing.
bool valid_sampled_row(const std::uint32_t* ids, const float* scores, std::size_t output_dim) {
  std::size_t m = 0;
  while (m < kTopK && ids[m] != kInvalid) ++m;
  for (std::size_t j = m; j < kTopK; ++j) {
    if (ids[j] != kInvalid) return false;
  }
  if (m == 0) return false;
  for (std::size_t j = 0; j < m; ++j) {
    if (ids[j] >= output_dim) return false;
    for (std::size_t i = 0; i < j; ++i) {
      if (ids[i] == ids[j]) return false;
    }
    if (j > 0 && scores[j] > scores[j - 1]) return false;
  }
  return true;
}

void serve_over_tcp(RunContext& ctx, InferenceEngine& engine,
                    const std::vector<slide::data::SparseVectorView>& queries,
                    const std::vector<std::uint32_t>& dense_ids) {
  Report& rep = ctx.rep;
  // At least 1,000 sampled replies, so the p99 has ten beyond it.
  const std::size_t total =
      kClients * kWarmupRequests +
      std::max<std::size_t>(1000, static_cast<std::size_t>(
                                      std::lround(ctx.w.requests_per_10s * ctx.seconds / 10.0)));
  slide::obs::MetricsRegistry registry;
  slide::ThreadPool pool(1);
  slide::serve::BatchingServer server(engine, server_config(pool, &registry));
  auto transport = slide::serve::make_transport(slide::serve::default_transport(), server,
                                                transport_config());
  transport->start();

  struct ClientResult {
    std::vector<std::pair<double, double>> done;  // (completion s, latency us)
    std::size_t sent = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0;
  };
  std::vector<ClientResult> results(kClients);
  std::atomic<std::size_t> next{0};
  const std::uint16_t port = transport->port();
  Timer wall;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& r = results[c];
      try {
        slide::serve::TcpClient client("127.0.0.1", port);
        slide::serve::QueryReply reply;
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= total) return;
          const std::size_t q = i % queries.size();
          ++r.sent;
          Timer t;
          const bool ok = client.query(queries[q], kTopK, reply);
          const double us = t.seconds() * 1e6;
          if (!ok || reply.status != slide::serve::Status::Ok || reply.degraded) {
            ++r.failed;
            if (!client.connected()) client.reconnect();
            continue;
          }
          if (!same_ids(reply, dense_ids.data() + q * kTopK)) ++r.wrong;
          if (r.sent > kWarmupRequests) r.done.emplace_back(wall.seconds(), us);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client: %s\n", e.what());
        r.failed += 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.seconds();
  transport->stop();
  server.drain();

  std::vector<std::pair<double, double>> done;
  std::size_t sent = 0, failed = 0, wrong = 0;
  for (const ClientResult& r : results) {
    done.insert(done.end(), r.done.begin(), r.done.end());
    sent += r.sent;
    failed += r.failed;
    wrong += r.wrong;
  }
  rep.attempt(sent);
  rep.fail(failed);
  rep.check(sent == total, name(ctx) + ": clients sent " + std::to_string(sent) + " of " +
                               std::to_string(total) + " requests");
  rep.check(failed == 0, name(ctx) + ": " + std::to_string(failed) +
                             " served replies failed, were not ok or were degraded");
  rep.check(wrong == 0, name(ctx) + ": " + std::to_string(wrong) +
                            " served replies differ from the engine's dense top-k");
  std::sort(done.begin(), done.end());
  std::vector<double> lat;
  for (const auto& d : done) lat.push_back(d.second);
  rep.check(done.size() >= 2, name(ctx) + ": too few sampled replies");
  const double p50 = quantile(lat, 0.50);
  rep.set("serve_p50_us", p50);
  rep.set("serve.p99_us", quantile(lat, 0.99));
  rep.set("serve.qps", done.size() < 2 ? 0.0
                                       : static_cast<double>(done.size() - 1) /
                                             (done.back().first - done.front().first));
  std::fprintf(stderr, "%s: served %zu requests over %u connections in %.2f s\n", ctx.w.name,
               sent, kClients, seconds);

  // Per-stage split from the server's own registry.
  for (const char* stage : {"queue", "infer", "encode", "write"}) {
    const auto snap =
        registry.histogram("slide_request_stage_us", "", {{"stage", stage}}).snapshot();
    rep.set(std::string("serve.") + stage + "_us.p50", static_cast<double>(snap.p50()));
    rep.set(std::string("serve.") + stage + "_us.p99", static_cast<double>(snap.p99()));
  }
  const auto e2e = registry.histogram("slide_request_e2e_us", "").snapshot();
  rep.set("serve.wire_us", p50 - static_cast<double>(e2e.p50()));
  const slide::serve::ServerStats stats = server.stats();
  rep.set("serve.batch_avg", stats.avg_batch_size);
  rep.set("serve.degraded", static_cast<double>(stats.degraded));
  rep.set("serve.rejected", static_cast<double>(stats.rejected));
  rep.check(stats.degraded == 0 && stats.rejected == 0,
            name(ctx) + ": the server degraded or rejected requests");
}

std::vector<slide::data::SparseVectorView> query_views(const slide::data::Dataset& test) {
  std::vector<slide::data::SparseVectorView> queries(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) queries[i] = test.features(i);
  return queries;
}

// Counts the sampled rows that are not valid_sampled_row.
std::size_t invalid_sampled_rows(const std::vector<std::uint32_t>& ids,
                                 const std::vector<float>& scores, std::size_t n,
                                 std::size_t output_dim) {
  std::size_t invalid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!valid_sampled_row(&ids[i * kTopK], &scores[i * kTopK], output_dim)) ++invalid;
  }
  return invalid;
}

}  // namespace

LifecycleRounds::LifecycleRounds(RunContext& ctx)
    : ctx_(ctx), path_(ctx.dir + "/round.sldp"), pool_(ctx.cpus) {}

void LifecycleRounds::run(const slide::Network& net, const slide::data::Dataset& test,
                          const std::uint32_t* first_reply) {
  Report& rep = ctx_.rep;
  const std::vector<slide::data::SparseVectorView> queries = query_views(test);
  const std::size_t n = queries.size();
  queries_ = n;
  ids_.resize(n * kTopK);
  scores_.resize(n * kTopK);
  {
    Timer t;
    const PackedModel frozen = PackedModel::freeze(net);
    freeze_s_.push_back(t.seconds());
    frozen.save_file(path_);
  }
  Timer t;
  const PackedModel loaded = PackedModel::load_file(path_);
  load_s_.push_back(t.seconds());
  rep.attempt(2);
  if (first_reply != nullptr) {
    setup_s_.push_back(measure_serve_setup(ctx_, path_, queries[0], first_reply));
  }

  // A fresh engine: an untimed sampled pass first, so every pool thread has
  // its scratch before the timed passes.
  InferenceEngine engine(loaded);
  const auto sampled = [&] {
    Timer p;
    engine.predict_topk_batch(queries, kTopK, ids_.data(), scores_.data(), TopKMode::Sampled,
                              &pool_);
    const double s = p.seconds();
    rep.attempt(n);
    const std::size_t invalid = invalid_sampled_rows(ids_, scores_, n, loaded.output_dim());
    rep.check(invalid == 0, name(ctx_) + ": " + std::to_string(invalid) +
                                " sampled rows hold invalid, repeated or unordered ids");
    return s;
  };
  sampled();
  if (done_ % 3 == 0) {
    Timer p;
    engine.predict_topk_batch(queries, kTopK, ids_.data(), nullptr, TopKMode::Dense, &pool_);
    dense_s_.push_back(p.seconds());
    rep.attempt(n);
  }
  sampled_s_.push_back(sampled());
  ++done_;
}

void LifecycleRounds::after_epoch(std::size_t epoch, std::size_t epochs,
                                  const slide::Network& net, const slide::data::Dataset& test) {
  const auto due = [&](std::size_t e) {
    return static_cast<int>(static_cast<std::size_t>(kRounds) * e / epochs);
  };
  for (int r = due(epoch); r < due(epoch + 1); ++r) run(net, test);
}

void LifecycleRounds::report() {
  Report& rep = ctx_.rep;
  rep.set("infer.freeze_s", median(freeze_s_));
  rep.set("load_s", median(load_s_));
  rep.set("infer_qps", rate(queries_, dense_s_));
  rep.set("infer_sampled_qps", rate(queries_, sampled_s_));
  log_samples(name(ctx_) + ": freeze s", freeze_s_);
  log_samples(name(ctx_) + ": load s", load_s_);
  log_samples(name(ctx_) + ": dense pass s", dense_s_);
  log_samples(name(ctx_) + ": sampled pass s", sampled_s_);
  if (!setup_s_.empty()) {
    rep.set("setup_s", median(setup_s_));
    log_samples(name(ctx_) + ": serve set-up s", setup_s_);
  }
  std::filesystem::remove(path_);
}

void run_lifecycle(RunContext& ctx, const Model& m, LifecycleRounds& rounds) {
  Report& rep = ctx.rep;
  rounds.report();
  const slide::Network& net = *m.net;
  const slide::data::Dataset& test = *m.test;
  const std::size_t n = test.size();
  const std::vector<slide::data::SparseVectorView> queries = query_views(test);

  // --- the final model: frozen, saved and loaded, answers exactly as the
  // frozen one and the Network.
  std::optional<PackedModel> frozen(PackedModel::freeze(net));
  const std::string path = ctx.dir + "/model.sldp";
  frozen->save_file(path);
  rep.set("infer.model_bytes", static_cast<double>(std::filesystem::file_size(path)));
  const PackedModel loaded = PackedModel::load_file(path);
  rep.set("infer.arena_bytes", static_cast<double>(loaded.arena_bytes()));
  InferenceEngine engine(loaded);
  std::vector<std::uint32_t> frozen_ids(n * kTopK), ids(n * kTopK), again(n * kTopK);
  InferenceEngine(*frozen).predict_topk_batch(queries, kTopK, frozen_ids.data());
  engine.predict_topk_batch(queries, kTopK, ids.data());
  engine.predict_topk_batch(queries, kTopK, again.data());
  rep.attempt(3 * n);
  rep.check(ids == frozen_ids, name(ctx) + ": loaded model's dense top-k differs from the frozen model's");
  rep.check(ids == m.top5, name(ctx) + ": engine dense top-k differs from Network::predict_topk");
  rep.check(again == ids, name(ctx) + ": dense batch pass changed its answers");
  frozen.reset();

  const std::vector<RefLayer> layers = reference_layers(loaded);
  const double tol = tolerance_for(loaded.precision());
  const std::size_t sample = std::min<std::size_t>(n, 64);
  std::vector<RefOutput> refs;  // reused by the sampled-score check below
  std::size_t disagree = 0;
  for (std::size_t s = 0; s < sample; ++s) {
    const std::size_t i = s * n / sample;
    refs.push_back(reference_forward(layers, queries[i]));
    if (!top1_agrees(refs.back(), ids[i * kTopK], tol)) ++disagree;
  }
  rep.check(disagree == 0, name(ctx) + ": loaded model's top-1 differs from the reference on " +
                               std::to_string(disagree) + " of " + std::to_string(sample) +
                               " sampled queries");

  // --- one sampled pass of the final model: valid rows, P@5, and each
  // score is that id's logit.
  std::vector<std::uint32_t> pass_ids(n * kTopK);
  std::vector<float> scores(n * kTopK);
  engine.predict_topk_batch(queries, kTopK, pass_ids.data(), scores.data(), TopKMode::Sampled);
  rep.attempt(n);
  const std::size_t invalid = invalid_sampled_rows(pass_ids, scores, n, loaded.output_dim());
  rep.check(invalid == 0, name(ctx) + ": " + std::to_string(invalid) +
                              " sampled rows hold invalid, repeated or unordered ids");
  double p5 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p5 += precision_at_k({&pass_ids[i * kTopK], kTopK}, test.labels(i));
  }
  rep.set("p_at_5_sampled", n == 0 ? 0.0 : p5 / static_cast<double>(n));
  std::size_t off = 0;
  for (std::size_t s = 0; s < sample; ++s) {
    const std::size_t i = s * n / sample;
    for (std::size_t j = 0; j < kTopK && pass_ids[i * kTopK + j] != kInvalid; ++j) {
      const std::uint32_t id = pass_ids[i * kTopK + j];
      const double err = std::fabs(static_cast<double>(scores[i * kTopK + j]) - refs[s].logits[id]);
      if (err > tol * refs[s].magnitude[id] + 1e-6) ++off;
    }
  }
  rep.check(off == 0, name(ctx) + ": " + std::to_string(off) +
                          " sampled scores differ from the reference logit");

  if (ctx.traced()) {
    // Single-query latency on one thread.
    const std::size_t q = std::min<std::size_t>(n, 500);
    std::vector<std::uint32_t> out;
    for (const auto& [mode, metric] : {std::pair{TopKMode::Dense, "infer.dense_us_per_query"},
                                      std::pair{TopKMode::Sampled, "infer.sampled_us_per_query"}}) {
      Timer t;
      for (std::size_t i = 0; i < q; ++i) engine.predict_topk(queries[i], kTopK, out, mode);
      rep.set(metric, t.seconds() * 1e6 / static_cast<double>(q));
    }
  }

  // --- serving.
  serve_over_tcp(ctx, engine, queries, ids);
}

}  // namespace slidebench
