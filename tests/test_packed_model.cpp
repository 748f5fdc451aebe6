#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "core/network.h"
#include "core/serialize_io.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"

namespace slide {
namespace {

NetworkConfig sample_config(Precision precision = Precision::Fp32) {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 8;
  lsh.min_active = 24;
  return make_slide_mlp(60, 16, 80, lsh, precision, 1234);
}

// A briefly trained network so the packed snapshot is not just the init.
Network trained_network(Precision precision = Precision::Fp32) {
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 60;
  dcfg.label_dim = 80;
  dcfg.num_train = 400;
  dcfg.num_test = 50;
  dcfg.avg_nnz = 10;
  dcfg.num_clusters = 8;
  dcfg.seed = 99;
  auto [train, test] = data::make_xc_datasets(dcfg);
  Network net(sample_config(precision));
  TrainerConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 64;
  Trainer trainer(net, tcfg);
  trainer.train_one_epoch(train);
  net.rebuild_hash_tables(nullptr);
  return net;
}

data::Dataset query_set(std::size_t n = 64) {
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 60;
  dcfg.label_dim = 80;
  dcfg.num_train = n;
  dcfg.num_test = 1;
  dcfg.avg_nnz = 10;
  dcfg.num_clusters = 8;
  dcfg.seed = 7;
  return data::make_xc_datasets(dcfg).first;
}

TEST(PackedModel, FreezeKeepsWeightsBitExact) {
  const Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  ASSERT_EQ(pm.num_layers(), net.num_layers());
  EXPECT_EQ(pm.precision(), Precision::Fp32);
  EXPECT_EQ(pm.num_params(), net.num_params());
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    const auto& L = pm.layer(i);
    const auto src = net.layer(i).weights_f32();
    ASSERT_EQ(L.w.size(), src.size());
    EXPECT_EQ(0, std::memcmp(L.w.data(), src.data(), src.size() * sizeof(float)));
    const auto bias = net.layer(i).biases();
    EXPECT_EQ(0, std::memcmp(L.bias.data(), bias.data(), bias.size() * sizeof(float)));
  }
  // Output layer froze its LSH state; hidden layer is dense.
  EXPECT_FALSE(pm.layer(0).uses_hashing());
  EXPECT_TRUE(pm.layer(1).uses_hashing());
}

TEST(PackedModel, DenseTopKBitIdenticalToNetwork) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set();
  Workspace ws = net.make_workspace();
  std::vector<std::uint32_t> want, got;
  std::vector<float> scores;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    net.predict_topk(queries.features(i), 10, ws, want);
    engine.predict_topk(queries.features(i), 10, got, infer::TopKMode::Dense, &scores);
    ASSERT_EQ(want, got) << "query " << i;
    // Same kernels in the same order: logits must match bit for bit.
    const auto& logits = ws.layers.back().act;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(scores[j], logits[got[j]]) << "query " << i << " rank " << j;
    }
  }
}

TEST(PackedModel, DenseParityAcrossPrecisions) {
  for (const Precision p : {Precision::Bf16Activations, Precision::Bf16All}) {
    Network net = trained_network(p);
    const infer::PackedModel pm = infer::PackedModel::freeze(net);
    infer::InferenceEngine engine(pm);
    const data::Dataset queries = query_set(16);
    Workspace ws = net.make_workspace();
    std::vector<std::uint32_t> want, got;
    std::vector<float> scores;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      net.predict_topk(queries.features(i), 5, ws, want);
      engine.predict_topk(queries.features(i), 5, got, infer::TopKMode::Dense, &scores);
      ASSERT_EQ(want, got) << "precision " << static_cast<int>(p) << " query " << i;
      const auto& logits = ws.layers.back().act;
      for (std::size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(scores[j], logits[got[j]])
            << "precision " << static_cast<int>(p) << " query " << i << " rank " << j;
      }
    }
  }
}

TEST(PackedModel, FreezeToBf16HalvesWeightArena) {
  const Network net = trained_network();
  const infer::PackedModel fp32 = infer::PackedModel::freeze(net, Precision::Fp32);
  const infer::PackedModel bf16 = infer::PackedModel::freeze(net, Precision::Bf16All);
  EXPECT_EQ(bf16.precision(), Precision::Bf16All);
  EXPECT_LT(bf16.arena_bytes(), fp32.arena_bytes());
  // Weight rows quantized with the library's round-to-nearest-even.
  const auto src = net.layer(0).weights_f32();
  ASSERT_EQ(bf16.layer(0).w16.size(), src.size());
  EXPECT_EQ(bf16.layer(0).w16[0].bits, bf16::from_float(src[0]).bits);
  // The converted model still serves.
  infer::InferenceEngine engine(bf16);
  const data::Dataset queries = query_set(8);
  std::vector<std::uint32_t> ids;
  engine.predict_topk(queries.features(0), 5, ids);
  EXPECT_EQ(ids.size(), 5u);
}

std::vector<data::SparseVectorView> dataset_views(const data::Dataset& d) {
  std::vector<data::SparseVectorView> views;
  views.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) views.push_back(d.features(i));
  return views;
}

TEST(PackedModel, FreezeInt8QuantizesWeightsAndShrinksArena) {
  const Network net = trained_network();
  const data::Dataset calib = query_set(64);
  const std::vector<data::SparseVectorView> views = dataset_views(calib);
  const infer::PackedModel fp32 = infer::PackedModel::freeze(net, Precision::Fp32);
  const infer::PackedModel q = infer::PackedModel::freeze(net, Precision::Int8, views);
  EXPECT_EQ(q.precision(), Precision::Int8);
  EXPECT_EQ(q.num_params(), fp32.num_params());
  // 1-byte weights: the whole arena lands well under half the fp32 one.
  EXPECT_LT(q.arena_bytes() * 2, fp32.arena_bytes());
  for (std::size_t i = 0; i < q.num_layers(); ++i) {
    const auto& L = q.layer(i);
    ASSERT_EQ(L.w8.size(), fp32.layer(i).w.size());
    ASSERT_EQ(L.w_scale.size(), L.dim);
    ASSERT_EQ(L.w_rowsum.size(), L.dim);
    EXPECT_GT(L.in_scale, 0.0f);
    EXPECT_GE(L.in_zero, 0);
    EXPECT_LE(L.in_zero, 127);
    for (std::size_t n = 0; n < L.dim; ++n) {
      EXPECT_GT(L.w_scale[n], 0.0f);
      std::int32_t sum = 0;
      std::int8_t amax = 0;
      for (std::size_t j = 0; j < L.input_dim; ++j) {
        const std::int8_t v = L.row_i8(n)[j];
        ASSERT_GE(v, -127);  // symmetric range never emits -128
        sum += v;
        amax = std::max<std::int8_t>(amax, std::int8_t(std::abs(int(v))));
      }
      EXPECT_EQ(sum, L.w_rowsum[n]) << "layer " << i << " row " << n;
      // Per-row symmetric absmax scaling saturates each non-zero row.
      const auto src = net.layer(i).weights_f32();
      float wmax = 0.0f;
      for (std::size_t j = 0; j < L.input_dim; ++j) {
        wmax = std::max(wmax, std::fabs(src[n * L.input_dim + j]));
      }
      if (wmax > 0.0f) EXPECT_EQ(amax, 127) << "layer " << i << " row " << n;
    }
  }
}

TEST(PackedModel, FreezeInt8RequiresCalibration) {
  const Network net = trained_network();
  // No calibration batch at all: the two-arg overload cannot do int8.
  EXPECT_THROW(infer::PackedModel::freeze(net, Precision::Int8), std::invalid_argument);
  // An empty span is just as useless.
  EXPECT_THROW(infer::PackedModel::freeze(net, Precision::Int8, {}),
               std::invalid_argument);
}

TEST(PackedModel, Int8RoundTripIsBitExact) {
  const Network net = trained_network();
  const data::Dataset calib = query_set(64);
  const infer::PackedModel pm =
      infer::PackedModel::freeze(net, Precision::Int8, dataset_views(calib));
  std::stringstream buffer;
  pm.save(buffer);
  const infer::PackedModel back = infer::PackedModel::load(buffer);
  ASSERT_EQ(back.num_layers(), pm.num_layers());
  EXPECT_EQ(back.precision(), Precision::Int8);
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    const auto& a = pm.layer(i);
    const auto& b = back.layer(i);
    ASSERT_EQ(a.w8.size(), b.w8.size());
    EXPECT_EQ(0, std::memcmp(a.w8.data(), b.w8.data(), a.w8.size()));
    EXPECT_EQ(0, std::memcmp(a.w_scale.data(), b.w_scale.data(),
                             a.w_scale.size() * sizeof(float)));
    // Row sums are derived at load time; they must land on the same values.
    EXPECT_EQ(0, std::memcmp(a.w_rowsum.data(), b.w_rowsum.data(),
                             a.w_rowsum.size() * sizeof(std::int32_t)));
    EXPECT_EQ(a.in_scale, b.in_scale);
    EXPECT_EQ(a.in_zero, b.in_zero);
    EXPECT_EQ(0, std::memcmp(a.bias.data(), b.bias.data(),
                             a.bias.size() * sizeof(float)));
  }

  // Identical arenas + identical frozen tables: served results match exactly.
  infer::InferenceEngine ea(pm, 555);
  infer::InferenceEngine eb(back, 555);
  const data::Dataset queries = query_set(16);
  std::vector<std::uint32_t> a, b;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ea.predict_topk(queries.features(i), 5, a);
    eb.predict_topk(queries.features(i), 5, b);
    ASSERT_EQ(a, b) << "query " << i;
  }
}

TEST(PackedModel, Int8PayloadRejectsOldFormatVersion) {
  // An int8 payload stamped with a pre-v3 version must be refused outright
  // (v1/v2 readers would misparse the weight section as fp32/bf16 bytes).
  const Network net = trained_network();
  const data::Dataset calib = query_set(32);
  std::stringstream buffer;
  infer::PackedModel::freeze(net, Precision::Int8, dataset_views(calib)).save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 2;  // version u32 follows the 4-byte magic; not covered by the CRC
  std::stringstream bad(bytes);
  try {
    infer::PackedModel::load(bad);
    FAIL() << "expected ModelIntegrityError";
  } catch (const infer::ModelIntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("int8"), std::string::npos) << e.what();
  }
}

TEST(PackedModel, RoundTripsAllPrecisions) {
  for (const Precision p :
       {Precision::Fp32, Precision::Bf16Activations, Precision::Bf16All}) {
    Network net = trained_network(p);
    const infer::PackedModel pm = infer::PackedModel::freeze(net);
    std::stringstream buffer;
    pm.save(buffer);
    const infer::PackedModel back = infer::PackedModel::load(buffer);
    ASSERT_EQ(back.num_layers(), pm.num_layers());
    EXPECT_EQ(back.precision(), pm.precision());
    for (std::size_t i = 0; i < pm.num_layers(); ++i) {
      const auto& a = pm.layer(i);
      const auto& b = back.layer(i);
      ASSERT_EQ(a.w.size(), b.w.size());
      ASSERT_EQ(a.w16.size(), b.w16.size());
      if (!a.w.empty()) {
        EXPECT_EQ(0, std::memcmp(a.w.data(), b.w.data(), a.w.size() * sizeof(float)));
      }
      if (!a.w16.empty()) {
        EXPECT_EQ(0, std::memcmp(a.w16.data(), b.w16.data(), a.w16.size() * sizeof(bf16)));
      }
      EXPECT_EQ(0, std::memcmp(a.bias.data(), b.bias.data(),
                               a.bias.size() * sizeof(float)));
      EXPECT_EQ(a.seed, b.seed);
    }
  }
}

TEST(PackedModel, RoundTripPreservesFrozenLshState) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  std::stringstream buffer;
  pm.save(buffer);
  const infer::PackedModel back = infer::PackedModel::load(buffer);

  // Identical frozen tables + identical sampler streams => identical
  // sampled predictions (candidate sets and random top-ups both match).
  infer::InferenceEngine ea(pm, 555);
  infer::InferenceEngine eb(back, 555);
  const data::Dataset queries = query_set(32);
  std::vector<std::uint32_t> a, b;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ea.predict_topk(queries.features(i), 5, a, infer::TopKMode::Sampled);
    eb.predict_topk(queries.features(i), 5, b, infer::TopKMode::Sampled);
    ASSERT_EQ(a, b) << "query " << i;
  }
}

TEST(PackedModel, SampledModeReturnsCandidatesFromTables) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(16);
  std::vector<std::uint32_t> ids;
  std::vector<float> scores;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.predict_topk(queries.features(i), 5, ids, infer::TopKMode::Sampled, &scores);
    ASSERT_FALSE(ids.empty());
    ASSERT_EQ(ids.size(), scores.size());
    for (const std::uint32_t id : ids) ASSERT_LT(id, pm.output_dim());
    for (std::size_t j = 1; j < scores.size(); ++j) ASSERT_GE(scores[j - 1], scores[j]);
  }
}

TEST(PackedModel, SampledSurvivesEmptyCandidateSets) {
  // Hashing on BOTH layers with min_active = 0 and deliberately sparse
  // tables (k large, l tiny, few neurons) makes empty candidate sets
  // routine at either depth; every such query must fall back to the exact
  // pass instead of reading an empty activation buffer.
  NetworkConfig cfg;
  cfg.input_dim = 60;
  LayerConfig hidden;
  hidden.dim = 12;
  hidden.activation = Activation::ReLU;
  hidden.lsh.kind = HashKind::Dwta;
  hidden.lsh.k = 6;
  hidden.lsh.l = 2;
  hidden.lsh.min_active = 0;
  LayerConfig output;
  output.dim = 80;
  output.activation = Activation::Softmax;
  output.lsh = hidden.lsh;
  cfg.layers = {hidden, output};
  Network net(cfg);
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);

  const data::Dataset queries = query_set(64);
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.predict_topk(queries.features(i), 5, ids, infer::TopKMode::Sampled);
    ASSERT_FALSE(ids.empty()) << "query " << i;
    for (const std::uint32_t id : ids) ASSERT_LT(id, pm.output_dim());
  }
}

TEST(PackedModel, BatchedMatchesPerExample) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(40);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  constexpr std::size_t k = 7;
  std::vector<std::uint32_t> batch_ids(queries.size() * k);
  std::vector<float> batch_scores(queries.size() * k);
  engine.predict_topk_batch(views, k, batch_ids.data(), batch_scores.data());

  std::vector<std::uint32_t> one;
  std::vector<float> one_scores;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    engine.predict_topk(views[i], k, one, infer::TopKMode::Dense, &one_scores);
    for (std::size_t j = 0; j < one.size(); ++j) {
      ASSERT_EQ(batch_ids[i * k + j], one[j]) << "query " << i;
      ASSERT_EQ(batch_scores[i * k + j], one_scores[j]) << "query " << i;
    }
  }
}

// --- batch-entry edge cases the serving layer hits -------------------------

TEST(PackedModel, BatchEmptyAndZeroKAreNoOps) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);

  int callbacks = 0;
  engine.predict_topk_batch({}, 5, nullptr, nullptr, infer::TopKMode::Dense, nullptr,
                            [&](std::size_t) { ++callbacks; });
  EXPECT_EQ(callbacks, 0);

  const data::Dataset queries = query_set(4);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));
  std::vector<std::uint32_t> ids(4, 12345u);
  engine.predict_topk_batch(views, 0, ids.data(), nullptr, infer::TopKMode::Dense,
                            nullptr, [&](std::size_t) { ++callbacks; });
  EXPECT_EQ(callbacks, 0);
  for (const std::uint32_t id : ids) EXPECT_EQ(id, 12345u);  // untouched
}

TEST(PackedModel, BatchSmallerThanThreadCountMatchesPerExample) {
  // Below the engine's fan-out threshold AND below the pool size: the batch
  // must still produce exactly the per-example results.
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(2);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  constexpr std::size_t k = 5;
  std::vector<std::uint32_t> ids(views.size() * k);
  engine.predict_topk_batch(views, k, ids.data());
  std::vector<std::uint32_t> one;
  for (std::size_t i = 0; i < views.size(); ++i) {
    engine.predict_topk(views[i], k, one);
    for (std::size_t j = 0; j < one.size(); ++j) EXPECT_EQ(ids[i * k + j], one[j]);
  }
}

TEST(PackedModel, BatchKLargerThanOutputLayerPadsWithInvalidId) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(6);
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  const std::size_t k = pm.output_dim() + 25;  // more than the layer can rank
  std::vector<std::uint32_t> ids(views.size() * k);
  std::vector<float> scores(views.size() * k);
  engine.predict_topk_batch(views, k, ids.data(), scores.data());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::uint32_t* row = ids.data() + i * k;
    for (std::size_t j = 0; j < pm.output_dim(); ++j) {
      ASSERT_NE(row[j], infer::InferenceEngine::kInvalidId) << "query " << i;
      ASSERT_LT(row[j], pm.output_dim());
    }
    for (std::size_t j = pm.output_dim(); j < k; ++j) {
      ASSERT_EQ(row[j], infer::InferenceEngine::kInvalidId) << "query " << i;
      ASSERT_EQ(scores[i * k + j], 0.0f);
    }
    // Each neuron id appears exactly once in the ranked prefix.
    std::vector<bool> seen(pm.output_dim(), false);
    for (std::size_t j = 0; j < pm.output_dim(); ++j) {
      ASSERT_FALSE(seen[row[j]]);
      seen[row[j]] = true;
    }
  }
}

TEST(PackedModel, BatchCompletionCallbackFiresOncePerQuery) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(40);  // large enough to fan out
  std::vector<data::SparseVectorView> views;
  for (std::size_t i = 0; i < queries.size(); ++i) views.push_back(queries.features(i));

  constexpr std::size_t k = 5;
  std::vector<std::uint32_t> ids(views.size() * k, infer::InferenceEngine::kInvalidId);
  std::vector<std::atomic<int>> fired(views.size());
  for (auto& f : fired) f.store(0);
  std::atomic<int> rows_ready{0};
  engine.predict_topk_batch(
      views, k, ids.data(), nullptr, infer::TopKMode::Dense, nullptr,
      [&](std::size_t q) {
        fired[q].fetch_add(1);
        // The query's row must already be final when its callback runs.
        bool complete = true;
        for (std::size_t j = 0; j < k; ++j) {
          complete = complete && ids[q * k + j] != infer::InferenceEngine::kInvalidId;
        }
        if (complete) rows_ready.fetch_add(1);
      });
  for (std::size_t qi = 0; qi < views.size(); ++qi) {
    EXPECT_EQ(fired[qi].load(), 1) << "query " << qi;
  }
  EXPECT_EQ(rows_ready.load(), static_cast<int>(views.size()));
}

TEST(PackedModel, ConcurrentQueriesMatchNetworkExactly) {
  Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(pm);
  const data::Dataset queries = query_set(48);

  // Ground truth from the training network, single-threaded.
  std::vector<std::vector<std::uint32_t>> want(queries.size());
  Workspace ws = net.make_workspace();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    net.predict_topk(queries.features(i), 5, ws, want[i]);
  }

  constexpr unsigned kThreads = 8;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint32_t> got;
      bool all = true;
      // Each thread walks the whole query set from a different offset so
      // leases constantly interleave.
      for (std::size_t step = 0; step < queries.size(); ++step) {
        const std::size_t i = (step * (t + 1) + t) % queries.size();
        engine.predict_topk(queries.features(i), 5, got);
        all = all && got == want[i];
      }
      ok[t] = all;
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;
}

TEST(PackedModel, LoadRejectsGarbageAndWrongVersion) {
  std::stringstream garbage("not a packed model at all");
  EXPECT_THROW(infer::PackedModel::load(garbage), infer::ModelIntegrityError);

  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = 77;  // version field follows the 4-byte magic
  std::stringstream bad(bytes);
  EXPECT_THROW(infer::PackedModel::load(bad), infer::ModelIntegrityError);

  std::stringstream truncated(bytes.substr(0, bytes.size() / 3));
  EXPECT_THROW(infer::PackedModel::load(truncated), infer::ModelIntegrityError);
}

TEST(PackedModel, LoadDetectsSingleFlippedWeightByte) {
  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  std::string bytes = buffer.str();

  // Flip one byte deep in the payload (a layer's weight arena): v1 would
  // happily serve the corrupted weights; v2's section checksum must refuse,
  // and the error must say which section failed.
  bytes[bytes.size() / 2] ^= 0x01;
  std::stringstream corrupt(bytes);
  try {
    infer::PackedModel::load(corrupt);
    FAIL() << "expected ModelIntegrityError";
  } catch (const infer::ModelIntegrityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("layer"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(PackedModel, LoadDetectsCorruptHeaderAndMetadata) {
  const Network net = trained_network();
  std::stringstream buffer;
  infer::PackedModel::freeze(net).save(buffer);
  const std::string bytes = buffer.str();

  {
    // Header section: input_dim (u64 after magic+version+precision byte).
    std::string mutated = bytes;
    mutated[4 + 4 + 1] ^= 0x04;
    std::stringstream in(mutated);
    try {
      infer::PackedModel::load(in);
      FAIL() << "expected ModelIntegrityError";
    } catch (const infer::ModelIntegrityError& e) {
      EXPECT_NE(std::string(e.what()).find("header"), std::string::npos) << e.what();
    }
  }
  {
    // Layer 0 metadata: a byte of the hash seed (follows the config record).
    // The seed carries no structural constraints, so only the section CRC
    // can catch the flip.
    std::string mutated = bytes;
    mutated[4 + 4 + 17 + 4 + io::kLayerConfigWireBytes] ^= 0x10;
    std::stringstream in(mutated);
    try {
      infer::PackedModel::load(in);
      FAIL() << "expected ModelIntegrityError";
    } catch (const infer::ModelIntegrityError& e) {
      EXPECT_NE(std::string(e.what()).find("metadata"), std::string::npos) << e.what();
    }
  }
}

TEST(PackedModel, LoadAcceptsVersion1FilesWithoutChecksums) {
  // A v1 file is the v2 byte stream with the version stamped back and every
  // CRC word spliced out; load must still parse it (legacy models).
  const Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  std::stringstream buffer;
  pm.save(buffer);
  const std::string v2 = buffer.str();

  std::string v1;
  std::size_t at = 0;
  const auto take = [&](std::size_t n) {
    v1.append(v2, at, n);
    at += n;
  };
  const auto skip_crc = [&] { at += 4; };
  take(4);  // magic
  v1 += '\x01';
  v1.append(3, '\0');  // version u32 = 1
  at += 4;
  take(1 + 8 + 8);  // header section
  skip_crc();
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    const auto& L = pm.layer(i);
    take(io::kLayerConfigWireBytes + 8 +
         L.bias.size() * sizeof(float));  // config + seed + biases
    skip_crc();
    take(L.w.size() * sizeof(float) + L.w16.size() * sizeof(bf16));
    skip_crc();
  }
  ASSERT_EQ(at, v2.size());

  std::stringstream in(v1);
  const infer::PackedModel back = infer::PackedModel::load(in);
  EXPECT_EQ(back.num_params(), pm.num_params());
  EXPECT_EQ(0, std::memcmp(back.layer(0).w.data(), pm.layer(0).w.data(),
                           pm.layer(0).w.size() * sizeof(float)));
}

TEST(PackedModel, FileRoundTrip) {
  const Network net = trained_network();
  const infer::PackedModel pm = infer::PackedModel::freeze(net);
  const std::string path = ::testing::TempDir() + "/slide_packed.pk";
  pm.save_file(path);
  const infer::PackedModel back = infer::PackedModel::load_file(path);
  EXPECT_EQ(back.num_params(), pm.num_params());
  EXPECT_THROW(infer::PackedModel::load_file("/nonexistent/model.pk"), std::runtime_error);
}

}  // namespace
}  // namespace slide
