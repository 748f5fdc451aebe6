// Self-test of the benchmark's own checker: the reference forward and P@k
// against a tiny network whose outputs are computed by hand, plus the span
// self-time arithmetic and the order statistics.  Exits 0 when every check
// holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/network.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "reference.h"
#include "report.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

// 3 inputs -> 2 ReLU -> 3 outputs, every parameter exact in bf16:
//   hidden rows [1, -2, 0.5], [-1, 0.5, 2]; biases [0.25, -0.5]
//   output rows [1, 2], [-1, 1], [0.5, -0.5]; biases [0, 0.5, -1]
// For x = [2, 0, 1]: hidden pre-activations [2.75, -0.5] -> ReLU [2.75, 0];
// logits [2.75, -2.25, 0.375]; |terms| sums [2.75, 3.25, 2.375].
// For x = [0, 1, 0]: hidden [-1.75, 0] -> [0, 0]; logits = biases.
slide::Network tiny_network(slide::Precision precision) {
  slide::NetworkConfig cfg;
  cfg.input_dim = 3;
  cfg.precision = precision;
  cfg.layers = {{2, slide::Activation::ReLU, {}}, {3, slide::Activation::Softmax, {}}};
  slide::Network net(cfg);
  const std::vector<std::vector<float>> w = {{1, -2, 0.5f, -1, 0.5f, 2}, {1, 2, -1, 1, 0.5f, -0.5f}};
  const std::vector<std::vector<float>> b = {{0.25f, -0.5f}, {0, 0.5f, -1}};
  for (std::size_t i = 0; i < 2; ++i) {
    slide::Layer& L = net.layer(i);
    for (std::size_t j = 0; j < w[i].size(); ++j) {
      if (precision == slide::Precision::Bf16All) {
        L.weights_bf16()[j] = slide::to_bf16(w[i][j]);
      } else {
        L.weights_f32()[j] = w[i][j];
      }
    }
    for (std::size_t j = 0; j < b[i].size(); ++j) L.biases()[j] = b[i][j];
  }
  return net;
}

const std::uint32_t kX1Idx[] = {0, 2};
const float kX1Val[] = {2.0f, 1.0f};
const std::uint32_t kX2Idx[] = {1};
const float kX2Val[] = {1.0f};
const slide::data::SparseVectorView kX1{kX1Idx, kX1Val, 2};
const slide::data::SparseVectorView kX2{kX2Idx, kX2Val, 1};

bool logits_are(const slidebench::RefOutput& r, std::vector<double> want) {
  return r.logits == want;
}

void check_network(slide::Precision precision, const char* label) {
  std::fprintf(stderr, "tiny network, %s\n", label);
  slide::Network net = tiny_network(precision);
  const auto layers = slidebench::reference_layers(net);
  const slidebench::RefOutput r1 = slidebench::reference_forward(layers, kX1);
  expect(logits_are(r1, {2.75, -2.25, 0.375}), "reference logits for x1");
  expect(r1.magnitude == std::vector<double>({2.75, 3.25, 2.375}), "reference magnitudes for x1");
  const slidebench::RefOutput r2 = slidebench::reference_forward(layers, kX2);
  expect(logits_are(r2, {0.0, 0.5, -1.0}), "reference logits for x2");

  slide::Workspace ws = net.make_workspace();
  std::vector<std::uint32_t> ids;
  net.predict_topk(kX1, 3, ws, ids);
  expect(ids == std::vector<std::uint32_t>({0, 2, 1}), "Network::predict_topk order for x1");
  expect(slidebench::top1_agrees(r1, ids[0], 0.0), "top-1 agrees with the reference");
  expect(!slidebench::top1_agrees(r1, 2, slidebench::tolerance_for(precision)),
         "a clearly worse id is not a near-tie");
  net.predict_topk(kX2, 1, ws, ids);
  expect(ids == std::vector<std::uint32_t>({1}), "Network::predict_topk for x2");

  const auto model = slide::infer::PackedModel::freeze(net);
  const auto packed = slidebench::reference_forward(slidebench::reference_layers(model), kX1);
  expect(logits_are(packed, {2.75, -2.25, 0.375}), "reference over the packed model");
  slide::infer::InferenceEngine engine(model);
  std::vector<float> scores;
  engine.predict_topk(kX1, 3, ids, slide::infer::TopKMode::Dense, &scores);
  expect(ids == std::vector<std::uint32_t>({0, 2, 1}), "engine dense top-k for x1");
  expect(scores.size() == 3 && scores[0] == 2.75f && scores[1] == 0.375f && scores[2] == -2.25f,
         "engine scores are the logits");
}

void check_near_tie() {
  slidebench::RefOutput r;
  r.logits = {1.0, 1.0 - 1e-7};
  r.magnitude = {1.0, 1.0};
  expect(slidebench::top1_agrees(r, 1, 1e-5), "near-tie accepted within tolerance");
  expect(!slidebench::top1_agrees(r, 1, 1e-9), "near-tie rejected below tolerance");
  expect(!slidebench::top1_agrees(r, 7, 1.0), "out-of-range id rejected");
}

void check_precision_at_k() {
  const std::vector<std::uint32_t> ids = {0, 2, 1};
  const std::vector<std::uint32_t> labels = {2, 7};
  expect(slidebench::precision_at_k({ids.data(), 1}, labels) == 0.0, "P@1 miss");
  expect(std::fabs(slidebench::precision_at_k(ids, labels) - 1.0 / 3.0) < 1e-15, "P@3 = 1/3");
  const std::vector<std::uint32_t> padded = {5, 0xFFFFFFFFu};
  const std::vector<std::uint32_t> five = {5};
  expect(slidebench::precision_at_k(padded, five) == 0.5, "padding counts as a miss");
}

void check_spans() {
  slidebench::SpanRecorder rec(3);
  const slidebench::SpanId parent = rec.add(0, "parent", slidebench::kNoSpan, 0, 100);
  rec.add(1, "child", parent, 10, 30);
  rec.add(2, "child", parent, 20, 50);
  rec.add(1, "child", parent, 90, 120);  // clipped to the parent's end
  const auto totals = rec.totals();
  expect(std::fabs(totals.at("parent").self_s - 50e-9) < 1e-15, "self time = 100 - (40 + 10)");
  expect(totals.at("child").count == 3, "child count");
  expect(std::fabs(totals.at("child").total_s - 80e-9) < 1e-15, "child total time");
}

void check_stats() {
  expect(slidebench::median({3, 1, 2}) == 2.0, "median of three");
  expect(slidebench::median({4, 1, 2, 3}) == 2.5, "median of four");
  expect(std::fabs(slidebench::quantile({0, 10}, 0.99) - 9.9) < 1e-12, "interpolated quantile");
  expect(slidebench::rate(10, {1.0, 3.0}) == 5.0, "pooled rate = 20 items / 4 s");
  expect(slidebench::rate(10, {}) == 0.0, "no passes, no rate");
}

}  // namespace

int main() {
  check_network(slide::Precision::Fp32, "fp32");
  check_network(slide::Precision::Bf16All, "bf16 weights and activations");
  check_near_tie();
  check_precision_at_k();
  check_spans();
  check_stats();
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
