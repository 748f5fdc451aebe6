#include "core/layer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace slide {
namespace {

LayerConfig dense_cfg(std::size_t dim, Activation act = Activation::ReLU) {
  LayerConfig cfg;
  cfg.dim = dim;
  cfg.activation = act;
  return cfg;
}

LayerConfig hashed_cfg(std::size_t dim) {
  LayerConfig cfg;
  cfg.dim = dim;
  cfg.activation = Activation::Softmax;
  cfg.lsh.kind = HashKind::Dwta;
  cfg.lsh.k = 3;
  cfg.lsh.l = 8;
  cfg.lsh.bucket_capacity = 32;
  return cfg;
}

TEST(Layer, ValidatesDimensions) {
  EXPECT_THROW(Layer(0, dense_cfg(4), Precision::Fp32, 1), std::invalid_argument);
  EXPECT_THROW(Layer(4, dense_cfg(0), Precision::Fp32, 1), std::invalid_argument);
}

TEST(Layer, InitializationIsDeterministic) {
  const Layer a(16, dense_cfg(8), Precision::Fp32, 7);
  const Layer b(16, dense_cfg(8), Precision::Fp32, 7);
  const Layer c(16, dense_cfg(8), Precision::Fp32, 8);
  ASSERT_EQ(a.weights_f32().size(), b.weights_f32().size());
  bool all_equal_ab = true, all_equal_ac = true;
  for (std::size_t i = 0; i < a.weights_f32().size(); ++i) {
    all_equal_ab &= a.weights_f32()[i] == b.weights_f32()[i];
    all_equal_ac &= a.weights_f32()[i] == c.weights_f32()[i];
  }
  EXPECT_TRUE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

TEST(Layer, InitializationScaleTracksFanIn) {
  const Layer wide(1024, dense_cfg(4), Precision::Fp32, 3);
  const Layer narrow(16, dense_cfg(4), Precision::Fp32, 3);
  const auto rms = [](std::span<const float> w) {
    double s = 0;
    for (const float x : w) s += static_cast<double>(x) * x;
    return std::sqrt(s / static_cast<double>(w.size()));
  };
  // He init: stddev = sqrt(2/fan_in).
  EXPECT_NEAR(rms(wide.weights_f32()), std::sqrt(2.0 / 1024), 0.005);
  EXPECT_NEAR(rms(narrow.weights_f32()), std::sqrt(2.0 / 16), 0.05);
}

// Runs forward_pass over the given layers, one LayerScratch each.
ForwardScratch scratch_for(const std::vector<LayerView>& views) {
  ForwardScratch s;
  for (std::size_t i = 0; i < views.size(); ++i) s.layers.emplace_back(views[i], i + 1);
  return s;
}

TEST(Layer, PreActivationMatchesManualDot) {
  // Layer 0 reads the sparse input, layer 1 layer 0's full-width output.
  Layer l0(8, dense_cfg(5), Precision::Fp32, 5);
  Layer l1(5, dense_cfg(3, Activation::Linear), Precision::Fp32, 6);
  for (std::size_t n = 0; n < 5; ++n) l0.biases()[n] = 0.1f * static_cast<float>(n);
  for (std::size_t n = 0; n < 3; ++n) l1.biases()[n] = -0.2f * static_cast<float>(n);
  const std::vector<LayerView> views = {l0.view(), l1.view()};
  ForwardScratch s = scratch_for(views);
  const std::vector<std::uint32_t> idx = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<float> x = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(forward_pass(views, {idx.data(), x.data(), 8}, false, {}, s));

  const auto& h = s.layers[0].act;
  ASSERT_EQ(h.size(), 5u);
  for (std::uint32_t n = 0; n < 5; ++n) {
    double ref = l0.biases()[n];
    for (std::size_t j = 0; j < 8; ++j) ref += static_cast<double>(l0.row_f32(n)[j]) * x[j];
    EXPECT_NEAR(h[n], std::max(ref, 0.0), 1e-5);  // hidden ReLU
  }
  ASSERT_EQ(s.layers[1].act.size(), 3u);
  for (std::uint32_t n = 0; n < 3; ++n) {
    double ref = l1.biases()[n];
    for (std::size_t j = 0; j < 5; ++j) ref += static_cast<double>(l1.row_f32(n)[j]) * h[j];
    EXPECT_NEAR(s.layers[1].act[n], ref, 1e-5);  // output stays raw
  }
}

TEST(Layer, SparsePreActivationMatchesDenseEquivalent) {
  // A sampled layer that selects all of its neurons hands the next layer a
  // compact (sparse) input; a full-width pass hands it the dense equivalent.
  LayerConfig hidden = hashed_cfg(16);
  hidden.activation = Activation::ReLU;
  hidden.lsh.min_active = 16;
  Layer l0(16, hidden, Precision::Fp32, 9);
  l0.rebuild_tables(nullptr);
  Layer l1(16, dense_cfg(4), Precision::Fp32, 10);
  const std::vector<LayerView> views = {l0.view(), l1.view()};
  ForwardScratch s = scratch_for(views);
  const std::uint32_t idx[] = {2, 7, 11};
  const float val[] = {1.5f, -2.0f, 0.25f};

  forward_pass(views, {idx, val, 3}, true, {}, s);
  ASSERT_TRUE(s.layers[0].sampled);
  ASSERT_EQ(s.layers[0].active.size(), 16u);
  const std::vector<float> sparse(s.layers[1].act.begin(), s.layers[1].act.end());
  forward_pass(views, {idx, val, 3}, false, {}, s);
  ASSERT_FALSE(s.layers[0].sampled);
  ASSERT_EQ(sparse.size(), 4u);
  for (std::size_t n = 0; n < 4; ++n) EXPECT_NEAR(sparse[n], s.layers[1].act[n], 1e-5f);
}

TEST(Layer, AccumulateThenAdamMovesOnlyDirtyRows) {
  Layer L(4, dense_cfg(3), Precision::Fp32, 11);
  const std::vector<float> before(L.weights_f32().begin(), L.weights_f32().end());

  std::vector<float> prev = {1.0f, 0.0f, -1.0f, 2.0f};
  L.accumulate_grad_dense(1, 0.5f, prev.data());

  const AdamConfig cfg;
  L.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);

  for (std::uint32_t n = 0; n < 3; ++n) {
    for (std::size_t j = 0; j < 4; ++j) {
      const float w = L.row_f32(n)[j];
      const float orig = before[n * 4 + j];
      if (n == 1 && prev[j] != 0.0f) {
        EXPECT_NE(w, orig) << "dirty row must move (j=" << j << ")";
      } else {
        EXPECT_EQ(w, orig) << "clean row must not move (n=" << n << " j=" << j << ")";
      }
    }
  }
}

TEST(Layer, AdamStepClearsGradientsAndFlags) {
  Layer L(4, dense_cfg(2), Precision::Fp32, 13);
  std::vector<float> prev = {1, 1, 1, 1};
  L.accumulate_grad_dense(0, 1.0f, prev.data());
  const AdamConfig cfg;
  L.adam_step(cfg, adam_bias_correction(cfg, 1), nullptr);
  for (const float g : L.weight_gradients()) EXPECT_EQ(g, 0.0f);

  // Second step with no new gradient: weights stay put.
  const std::vector<float> w1(L.weights_f32().begin(), L.weights_f32().end());
  L.adam_step(cfg, adam_bias_correction(cfg, 2), nullptr);
  for (std::size_t i = 0; i < w1.size(); ++i) EXPECT_EQ(L.weights_f32()[i], w1[i]);
}

TEST(Layer, SparseGradAccumulationTargetsIndices) {
  Layer L(8, dense_cfg(2), Precision::Fp32, 17);
  const std::uint32_t idx[] = {1, 6};
  const float val[] = {2.0f, -1.0f};
  L.accumulate_grad_sparse(0, 0.5f, {idx, val, 2});
  const auto g = L.weight_gradients();
  EXPECT_FLOAT_EQ(g[1], 1.0f);
  EXPECT_FLOAT_EQ(g[6], -0.5f);
  for (const std::size_t j : {0u, 2u, 3u, 4u, 5u, 7u}) EXPECT_EQ(g[j], 0.0f);
}

TEST(Layer, BackpropToDenseAddsScaledRow) {
  Layer L(4, dense_cfg(2), Precision::Fp32, 19);
  std::vector<float> grad(4, 1.0f);
  L.backprop_to_dense(1, 2.0f, grad.data());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(grad[j], 1.0f + 2.0f * L.row_f32(1)[j]);
  }
}

TEST(Layer, BackpropToSparseMatchesDenseSubset) {
  Layer L(8, dense_cfg(2), Precision::Fp32, 23);
  std::vector<float> dense_grad(8, 0.0f);
  L.backprop_to_dense(0, 1.5f, dense_grad.data());

  const std::uint32_t active[] = {1, 4, 7};
  std::vector<float> compact(3, 0.0f);
  std::vector<float> scratch(3);
  L.backprop_to_sparse(0, 1.5f, active, 3, scratch.data(), compact.data());
  for (int k = 0; k < 3; ++k) EXPECT_FLOAT_EQ(compact[k], dense_grad[active[k]]);
}

TEST(Layer, Bf16AllStoresWeightsAsBf16) {
  Layer L(16, dense_cfg(4), Precision::Bf16All, 29);
  EXPECT_TRUE(L.weights_f32().empty());
  EXPECT_EQ(L.weights_bf16().size(), 64u);

  // The bf16 layer's pre-activation approximates an fp32 twin's.
  Layer ref(16, dense_cfg(4), Precision::Fp32, 29);
  const std::vector<LayerView> bf = {L.view()}, fp = {ref.view()};
  ForwardScratch sb = scratch_for(bf), sf = scratch_for(fp);
  forward_pass(bf, {nullptr, nullptr, 0}, false, {}, sb);  // bias only
  for (const float a : sb.layers[0].act) EXPECT_EQ(a, 0.0f);
  std::vector<std::uint32_t> idx(16);
  const std::vector<float> val(16, 1.0f);
  for (std::size_t i = 0; i < 16; ++i) idx[i] = static_cast<std::uint32_t>(i);
  forward_pass(bf, {idx.data(), val.data(), 16}, false, {}, sb);
  forward_pass(fp, {idx.data(), val.data(), 16}, false, {}, sf);
  for (std::size_t n = 0; n < 4; ++n) {
    const float exact = sf.layers[0].act[n];
    EXPECT_NEAR(sb.layers[0].act[n], exact, std::abs(exact) * 0.02f + 0.02f);
  }
}

TEST(Layer, HashedLayerBuildsTables) {
  Layer L(32, hashed_cfg(64), Precision::Fp32, 31);
  ASSERT_TRUE(L.uses_hashing());
  L.rebuild_tables(nullptr);
  // Every neuron must be present in every table (capacity is large enough).
  std::size_t total = 0;
  for (std::size_t t = 0; t < L.tables()->num_tables(); ++t) {
    total += L.tables()->stats(t).total_entries;
  }
  EXPECT_EQ(total, 64u * L.tables()->num_tables());
}

TEST(Layer, RebuildScheduleGrows) {
  LayerConfig cfg = hashed_cfg(32);
  cfg.lsh.rebuild_interval = 2;
  cfg.lsh.rebuild_growth = 2.0;
  Layer L(16, cfg, Precision::Fp32, 37);
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 1
  EXPECT_TRUE(L.on_batch_end(nullptr));   // 2 -> rebuild, next interval 4
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 1
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 2
  EXPECT_FALSE(L.on_batch_end(nullptr));  // 3
  EXPECT_TRUE(L.on_batch_end(nullptr));   // 4 -> rebuild
}

TEST(Layer, DenseLayerNeverRebuilds) {
  Layer L(8, dense_cfg(4), Precision::Fp32, 41);
  EXPECT_FALSE(L.uses_hashing());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(L.on_batch_end(nullptr));
}

}  // namespace
}  // namespace slide
