// Accuracy and behaviour of the int8 quantized serving path.
//
// The parity suite (test_backend_parity) proves the u8·s8 kernels agree
// bit-for-bit across backends; test_packed_model proves the int8 arena
// round-trips.  This file checks the thing users actually care about:
// a calibrated int8 freeze ranks (nearly) the same labels as fp32.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"

namespace slide {
namespace {

NetworkConfig sample_config() {
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 8;
  lsh.min_active = 24;
  return make_slide_mlp(60, 16, 80, lsh, Precision::Fp32, 1234);
}

Network trained_network() {
  data::SyntheticConfig dcfg;
  dcfg.feature_dim = 60;
  dcfg.label_dim = 80;
  dcfg.num_train = 400;
  dcfg.num_test = 50;
  dcfg.avg_nnz = 10;
  dcfg.num_clusters = 8;
  dcfg.seed = 99;
  auto [train, test] = data::make_xc_datasets(dcfg);
  Network net(sample_config());
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 64;
  Trainer trainer(net, tcfg);
  trainer.train_one_epoch(train);
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

std::vector<data::SparseVectorView> dataset_views(const data::Dataset& d) {
  std::vector<data::SparseVectorView> views;
  views.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) views.push_back(d.features(i));
  return views;
}

double topk_overlap(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  if (a.empty()) return 0.0;
  double hits = 0.0;
  for (const std::uint32_t id : a) {
    if (std::find(b.begin(), b.end(), id) != b.end()) hits += 1.0;
  }
  return hits / static_cast<double>(a.size());
}

// Average dense top-k overlap of an int8 engine against the fp32 reference
// over the query stream the model was calibrated on.
double int8_overlap(const infer::CalibrationConfig& cal, std::size_t k = 10) {
  const Network net = trained_network();
  const data::Dataset queries = query_set();
  const std::vector<data::SparseVectorView> views = dataset_views(queries);
  const infer::PackedModel fp32 = infer::PackedModel::freeze(net, Precision::Fp32);
  const infer::PackedModel q =
      infer::PackedModel::freeze(net, Precision::Int8, views, cal);
  infer::InferenceEngine ref(fp32);
  infer::InferenceEngine quant(q);
  std::vector<std::uint32_t> want, got;
  double overlap = 0.0;
  for (const auto& v : views) {
    ref.predict_topk(v, k, want);
    quant.predict_topk(v, k, got);
    overlap += topk_overlap(want, got);
  }
  return overlap / static_cast<double>(views.size());
}

TEST(Quantization, AbsMaxTopKOverlapStaysHigh) {
  infer::CalibrationConfig cal;
  cal.method = infer::CalibrationMethod::AbsMax;
  // 7-bit activations x per-row symmetric weights on a small trained net:
  // the quantized ranking should agree on the large majority of the top 10.
  EXPECT_GE(int8_overlap(cal), 0.7);
}

TEST(Quantization, PercentileCalibrationAlsoServes) {
  infer::CalibrationConfig cal;
  cal.method = infer::CalibrationMethod::Percentile;
  cal.percentile = 0.999;
  EXPECT_GE(int8_overlap(cal), 0.7);
}

TEST(Quantization, Int8BatchedMatchesPerExample) {
  const Network net = trained_network();
  const data::Dataset queries = query_set(40);
  const std::vector<data::SparseVectorView> views = dataset_views(queries);
  const infer::PackedModel pm =
      infer::PackedModel::freeze(net, Precision::Int8, views);
  infer::InferenceEngine engine(pm);

  constexpr std::size_t k = 7;
  std::vector<std::uint32_t> batch_ids(views.size() * k, infer::InferenceEngine::kInvalidId);
  std::vector<float> batch_scores(views.size() * k);
  engine.predict_topk_batch(views, k, batch_ids.data(), batch_scores.data());

  std::vector<std::uint32_t> one;
  std::vector<float> one_scores;
  for (std::size_t i = 0; i < views.size(); ++i) {
    engine.predict_topk(views[i], k, one, infer::TopKMode::Dense, &one_scores);
    for (std::size_t j = 0; j < one.size(); ++j) {
      ASSERT_EQ(batch_ids[i * k + j], one[j]) << "query " << i;
      ASSERT_EQ(batch_scores[i * k + j], one_scores[j]) << "query " << i;
    }
  }
}

TEST(Quantization, Int8SampledModeServesFromFrozenTables) {
  const Network net = trained_network();
  const data::Dataset queries = query_set(16);
  const std::vector<data::SparseVectorView> views = dataset_views(queries);
  const infer::PackedModel pm =
      infer::PackedModel::freeze(net, Precision::Int8, views);
  infer::InferenceEngine engine(pm);
  std::vector<std::uint32_t> ids;
  std::vector<float> scores;
  for (const auto& v : views) {
    engine.predict_topk(v, 5, ids, infer::TopKMode::Sampled, &scores);
    ASSERT_FALSE(ids.empty());
    ASSERT_EQ(ids.size(), scores.size());
    for (const std::uint32_t id : ids) ASSERT_LT(id, pm.output_dim());
    for (std::size_t j = 1; j < scores.size(); ++j) ASSERT_GE(scores[j - 1], scores[j]);
  }
}

TEST(Quantization, CalibrationSampleCapIsRespected) {
  // max_samples = 1 still has to produce a usable model — the range just
  // comes from a single example's forward pass.
  const Network net = trained_network();
  const data::Dataset queries = query_set(32);
  const std::vector<data::SparseVectorView> views = dataset_views(queries);
  infer::CalibrationConfig cal;
  cal.max_samples = 1;
  const infer::PackedModel pm =
      infer::PackedModel::freeze(net, Precision::Int8, views, cal);
  infer::InferenceEngine engine(pm);
  std::vector<std::uint32_t> ids;
  engine.predict_topk(views[0], 5, ids);
  EXPECT_EQ(ids.size(), 5u);
  for (std::size_t i = 0; i < pm.num_layers(); ++i) {
    EXPECT_GT(pm.layer(i).in_scale, 0.0f);
  }
}

}  // namespace
}  // namespace slide
