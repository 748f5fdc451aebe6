// Immutable serving snapshot of a trained Network.
//
// Training state (gradient arenas, ADAM moments, dirty flags, rebuild
// schedules) roughly doubles a model's RSS and is dead weight at serving
// time.  PackedModel keeps only what inference needs: one aligned row-major
// weight arena per layer (fp32 or bf16), the biases, and — for LSH-sampled
// layers — a frozen hash family plus tables built once from the final
// weights.  Nothing in a PackedModel mutates after construction, so any
// number of InferenceEngine threads can read it without synchronization.
//
// freeze() may also change precision: a model trained in fp32 can be packed
// to bf16 weights (paper Section 4.4), halving the serving arena again at a
// small accuracy cost, or quantized to int8 (symmetric per-output-row weight
// scales, per-layer activation scale/zero-point calibrated from a sample
// batch), quartering it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/forward.h"
#include "core/network.h"
#include "data/sparse_batch.h"
#include "lsh/hash_function.h"
#include "lsh/lsh_table.h"
#include "util/aligned.h"
#include "util/bf16.h"

namespace slide::infer {

// Format version written by PackedModel::save.  v2 appends a CRC32C after
// each section (header, per-layer metadata, per-layer weights) so a
// corrupted model file is rejected at load time with a precise location
// instead of serving garbage weights.  v3 adds the Int8 precision payload
// (s8 weight arena + per-row scales + per-layer activation qparams in the
// weights section).  load still accepts v1 (no checksums) and v2 files.
inline constexpr std::uint32_t kPackedModelVersion = 3;
inline constexpr std::uint32_t kMinPackedModelVersion = 1;

// How freeze() picks each layer's activation quantization range from the
// calibration batch.
//   AbsMax      the full observed input range (extended to include 0)
//   Percentile  clip at the p-quantile of |v| — robust to outliers, trades
//               a little clipping error for much finer resolution
enum class CalibrationMethod { AbsMax, Percentile };

struct CalibrationConfig {
  CalibrationMethod method = CalibrationMethod::AbsMax;
  double percentile = 0.999;     // used by Percentile only
  std::size_t max_samples = 512;  // cap on calibration examples consumed
};

// The model file could not be opened/written at all (bad path, permissions,
// full disk).  Distinct from corruption so callers can exit with different
// diagnostics.
class ModelIoError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The model file was read but is not a valid SLDP payload: bad magic,
// unsupported version, truncation, or a section checksum mismatch.  The
// message names the failing section and stream offset.
class ModelIntegrityError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class PackedModel {
 public:
  struct Layer {
    std::size_t input_dim = 0;
    std::size_t dim = 0;
    std::uint64_t seed = 0;  // Layer's construction seed (LSH streams derive from it)
    LayerConfig cfg;

    AlignedVector<float> w;    // dim x input_dim row-major (empty unless fp32 weights)
    AlignedVector<bf16> w16;   // dim x input_dim row-major (empty unless bf16 weights)
    AlignedVector<float> bias;

    // Int8 payload (empty unless precision == Int8).  Weights are symmetric
    // per-output-row: w_fp32[n][j] ~= w_scale[n] * w8[n][j].  Activations
    // feeding this layer quantize as u8 = clamp(round(x/in_scale)+in_zero,
    // 0, 127); w_rowsum[n] = sum_j w8[n][j] backs the zero-point correction
    // for dense dots (derived, not serialized).
    AlignedVector<std::int8_t> w8;       // dim x input_dim row-major
    AlignedVector<float> w_scale;        // per output row, dim entries
    AlignedVector<std::int32_t> w_rowsum;  // per output row, dim entries
    float in_scale = 1.0f;
    std::int32_t in_zero = 0;

    std::unique_ptr<lsh::HashFamily> family;  // null for dense layers
    std::unique_ptr<lsh::LshTables> tables;

    bool uses_hashing() const { return family != nullptr; }
    Activation activation() const { return cfg.activation; }
    const float* row_f32(std::uint32_t n) const {
      return w.data() + std::size_t{n} * input_dim;
    }
    const bf16* row_bf16(std::uint32_t n) const {
      return w16.data() + std::size_t{n} * input_dim;
    }
    const std::int8_t* row_i8(std::uint32_t n) const {
      return w8.data() + std::size_t{n} * input_dim;
    }
    // What forward_pass reads from this layer at the model's precision.
    LayerView view(Precision precision) const {
      return {.input_dim = input_dim,
              .dim = dim,
              .activation = cfg.activation,
              .precision = precision,
              .w = w.data(),
              .w16 = w16.data(),
              .w8 = w8.data(),
              .w_scale = w_scale.data(),
              .w_rowsum = w_rowsum.data(),
              .in_scale = in_scale,
              .in_zero = in_zero,
              .bias = bias.data(),
              .family = family.get(),
              .tables = tables.get(),
              .limits = {cfg.lsh.min_active, cfg.lsh.max_active}};
    }
    // Bytes held by the weight/bias arenas (the serving working set).
    std::size_t arena_bytes() const {
      return w.size() * sizeof(float) + w16.size() * sizeof(bf16) +
             w8.size() * sizeof(std::int8_t) + w_scale.size() * sizeof(float) +
             w_rowsum.size() * sizeof(std::int32_t) + bias.size() * sizeof(float);
    }
  };

  // Snapshots `net` at its precision, or converts to `precision`:
  //   Fp32            fp32 weights, fp32 activations
  //   Bf16Activations fp32 weights, bf16 activations
  //   Bf16All         bf16 weights, bf16 activations
  // Hash tables are rebuilt deterministically from the packed weights using
  // the layers' original LSH streams, so freezing an fp32 net at fp32 yields
  // exactly the tables a Network::rebuild_hash_tables() would.
  // Precision::Int8 requires a calibration batch — these two overloads throw
  // std::invalid_argument for it.
  static PackedModel freeze(const Network& net);
  static PackedModel freeze(const Network& net, Precision precision);
  // Int8-capable freeze: `calibration` supplies sample inputs whose fp32
  // forward pass sets each layer's activation scale/zero-point (at most
  // cal.max_samples examples are consumed; the batch must be non-empty when
  // precision == Int8, and is ignored otherwise).
  static PackedModel freeze(const Network& net, Precision precision,
                            std::span<const data::SparseVectorView> calibration,
                            const CalibrationConfig& cal = {});

  Precision precision() const { return precision_; }
  std::size_t num_layers() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return layers_[i]; }
  // Every layer's view(precision()), valid while the model lives.
  std::vector<LayerView> views() const;
  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return layers_.back().dim; }
  std::size_t num_params() const;
  // Total weight/bias arena bytes (excludes the LSH tables).
  std::size_t arena_bytes() const;

  // Binary round-trip ("SLDP" format, v2: per-section CRC32C).  Hash
  // tables are not stored — they are a pure function of the packed weights
  // and are rebuilt on load.  save/save_file throw ModelIoError on write
  // failure.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  // Throws ModelIntegrityError (a std::runtime_error) on malformed,
  // truncated, or checksum-failing input; load_file additionally throws
  // ModelIoError when the file cannot be opened.
  static PackedModel load(std::istream& in);
  static PackedModel load_file(const std::string& path);

 private:
  PackedModel() = default;
  // Builds family+tables for every hashed layer from the packed weights.
  void rebuild_lsh();

  std::size_t input_dim_ = 0;
  Precision precision_ = Precision::Fp32;
  std::vector<Layer> layers_;
};

}  // namespace slide::infer
