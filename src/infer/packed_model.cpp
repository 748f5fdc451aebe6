#include "infer/packed_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/serialize_io.h"
#include "kernels/kernels.h"
#include "lsh/dwta.h"
#include "lsh/simhash.h"
#include "threading/thread_pool.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace slide::infer {
namespace {

constexpr std::uint32_t kMagic = 0x534C4450u;  // "SLDP"

// Same stream constants as Layer's constructor: a frozen layer re-derives
// the identical hash family and table RNG from the layer seed.
std::unique_ptr<lsh::HashFamily> make_family(const PackedModel::Layer& L) {
  if (L.cfg.lsh.kind == HashKind::Dwta) {
    return std::make_unique<lsh::DwtaHash>(L.input_dim, L.cfg.lsh.k, L.cfg.lsh.l,
                                           mix64(L.seed, 0xD37Aull, L.dim));
  }
  return std::make_unique<lsh::SimHash>(L.input_dim, L.cfg.lsh.k, L.cfg.lsh.l,
                                        mix64(L.seed, 0x51Bull, L.dim));
}

}  // namespace

PackedModel PackedModel::freeze(const Network& net) {
  return freeze(net, net.precision());
}

PackedModel PackedModel::freeze(const Network& net, Precision precision) {
  if (precision == Precision::Int8) {
    throw std::invalid_argument(
        "PackedModel::freeze: Precision::Int8 needs a calibration batch; use the "
        "freeze(net, precision, calibration, config) overload");
  }
  PackedModel pm;
  pm.input_dim_ = net.input_dim();
  pm.precision_ = precision;
  pm.layers_.reserve(net.num_layers());

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const slide::Layer& src = net.layer(i);
    Layer L;
    L.input_dim = src.input_dim();
    L.dim = src.dim();
    L.seed = src.seed();
    L.cfg = src.config();
    L.bias.assign(src.biases().begin(), src.biases().end());

    const std::size_t total = L.dim * L.input_dim;
    const bool src_bf16 = src.precision() == Precision::Bf16All;
    const bool dst_bf16 = precision == Precision::Bf16All;
    if (dst_bf16 == src_bf16) {
      // Same storage format: bit-exact copy of the trained arena.
      if (dst_bf16) {
        L.w16.assign(src.weights_bf16().begin(), src.weights_bf16().end());
      } else {
        L.w.assign(src.weights_f32().begin(), src.weights_f32().end());
      }
    } else if (dst_bf16) {
      L.w16.resize(total);
      kernels::fp32_to_bf16(src.weights_f32().data(), L.w16.data(), total);
    } else {
      L.w.resize(total);
      kernels::bf16_to_fp32(src.weights_bf16().data(), L.w.data(), total);
    }
    pm.layers_.push_back(std::move(L));
  }
  pm.rebuild_lsh();
  return pm;
}

namespace {

// [lo, hi] always brackets 0 so that zero — the value ReLU sparsity and
// missing sparse features both produce — quantizes exactly.
struct QuantRange {
  float lo = 0.0f;
  float hi = 0.0f;
};

QuantRange choose_range(std::vector<float>& vals, const CalibrationConfig& cal) {
  QuantRange r;
  for (const float v : vals) {
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
  }
  if (cal.method == CalibrationMethod::Percentile && !vals.empty()) {
    // Clip at the p-quantile of |v|: a handful of outliers no longer cost
    // the whole range its resolution.
    for (float& v : vals) v = std::fabs(v);
    const double p = std::clamp(cal.percentile, 0.0, 1.0);
    const std::size_t idx =
        static_cast<std::size_t>(p * static_cast<double>(vals.size() - 1));
    std::nth_element(vals.begin(), vals.begin() + idx, vals.end());
    const float m = vals[idx];
    r.lo = std::max(r.lo, -m);
    r.hi = std::min(r.hi, m);
  }
  return r;
}

}  // namespace

PackedModel PackedModel::freeze(const Network& net, Precision precision,
                                std::span<const data::SparseVectorView> calibration,
                                const CalibrationConfig& cal) {
  if (precision != Precision::Int8) return freeze(net, precision);
  if (calibration.empty()) {
    throw std::invalid_argument("PackedModel::freeze: int8 calibration batch is empty");
  }

  PackedModel pm;
  pm.input_dim_ = net.input_dim();
  pm.precision_ = Precision::Int8;
  const std::size_t num_layers = net.num_layers();
  pm.layers_.reserve(num_layers);

  // Stage an fp32 copy of every arena (widening a bf16-trained net): both
  // the calibration forward and the quantizer read it.
  std::vector<AlignedVector<float>> wf(num_layers);
  for (std::size_t i = 0; i < num_layers; ++i) {
    const slide::Layer& src = net.layer(i);
    Layer L;
    L.input_dim = src.input_dim();
    L.dim = src.dim();
    L.seed = src.seed();
    L.cfg = src.config();
    L.bias.assign(src.biases().begin(), src.biases().end());
    const std::size_t total = L.dim * L.input_dim;
    wf[i].resize(total);
    if (src.precision() == Precision::Bf16All) {
      kernels::bf16_to_fp32(src.weights_bf16().data(), wf[i].data(), total);
    } else {
      std::copy(src.weights_f32().begin(), src.weights_f32().end(), wf[i].begin());
    }
    pm.layers_.push_back(std::move(L));
  }

  // Observe each layer's input distribution with a dense fp32 forward over
  // the calibration batch (no LSH sampling, so the ranges don't depend on
  // table contents).  Layer i+1's observations are layer i's post-activation
  // outputs; layer 0 sees the raw sparse feature values (its zeros are
  // implicit, and choose_range always includes 0).  The last layer's output
  // feeds nothing, so the pass stops one layer short; forward_pass leaves
  // the layer it stops at raw, so that layer's ReLU is applied here.
  std::vector<LayerView> staged;
  ForwardScratch fs;
  for (std::size_t i = 0; i + 1 < num_layers; ++i) {
    staged.push_back(pm.layers_[i].view(Precision::Fp32));
    staged.back().w = wf[i].data();
    fs.layers.emplace_back(staged.back(), 0);
  }
  std::vector<std::vector<float>> observed(num_layers);
  const std::size_t n_samples = std::min(cal.max_samples, calibration.size());
  for (std::size_t s = 0; s < n_samples; ++s) {
    const data::SparseVectorView x = calibration[s];
    observed[0].insert(observed[0].end(), x.values, x.values + x.nnz);
    if (staged.empty()) continue;
    forward_pass(staged, x, /*use_tables=*/false, {}, fs);
    for (std::size_t i = 0; i < staged.size(); ++i) {
      AlignedVector<float>& act = fs.layers[i].act;
      if (i + 1 == staged.size() && staged[i].activation == Activation::ReLU) {
        kernels::relu_f32(act.data(), act.size());
      }
      observed[i + 1].insert(observed[i + 1].end(), act.begin(), act.end());
    }
  }

  for (std::size_t i = 0; i < num_layers; ++i) {
    Layer& L = pm.layers_[i];
    const QuantRange r = choose_range(observed[i], cal);
    if (r.hi > r.lo) {
      L.in_scale = (r.hi - r.lo) / 127.0f;
      L.in_zero = std::clamp<std::int32_t>(
          static_cast<std::int32_t>(std::lround(-r.lo / L.in_scale)), 0, 127);
    }  // degenerate (all-zero) input keeps the identity qparams {1.0, 0}

    // Symmetric per-output-row weight quantization.
    const std::size_t total = L.dim * L.input_dim;
    L.w8.resize(total);
    L.w_scale.resize(L.dim);
    L.w_rowsum.resize(L.dim);
    for (std::size_t n = 0; n < L.dim; ++n) {
      const float* row = wf[i].data() + n * L.input_dim;
      float amax = 0.0f;
      for (std::size_t j = 0; j < L.input_dim; ++j) amax = std::max(amax, std::fabs(row[j]));
      const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
      L.w_scale[n] = scale;
      const float inv = 1.0f / scale;
      std::int8_t* q = L.w8.data() + n * L.input_dim;
      std::int32_t rowsum = 0;
      for (std::size_t j = 0; j < L.input_dim; ++j) {
        const auto v = std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lrintf(row[j] * inv)), -127, 127);
        q[j] = static_cast<std::int8_t>(v);
        rowsum += v;
      }
      L.w_rowsum[n] = rowsum;
    }
  }
  pm.rebuild_lsh();
  return pm;
}

void PackedModel::rebuild_lsh() {
  ThreadPool& pool = global_pool();
  for (Layer& L : layers_) {
    if (L.cfg.lsh.kind == HashKind::None) continue;
    L.family = make_family(L);
    lsh::LshTablesConfig tcfg;
    tcfg.bucket_capacity = L.cfg.lsh.bucket_capacity;
    tcfg.policy = L.cfg.lsh.bucket_policy;
    tcfg.seed = mix64(L.seed, 0x7AB1E5ull, L.dim);
    L.tables = std::make_unique<lsh::LshTables>(L.family->num_tables(),
                                                L.family->bucket_range(), tcfg);

    const std::size_t num_tables = L.family->num_tables();
    std::vector<std::uint32_t> buckets(L.dim * num_tables);
    const bool bf16_w = precision_ == Precision::Bf16All;
    const bool int8_w = precision_ == Precision::Int8;
    const auto hash_range = [&](std::size_t begin, std::size_t end) {
      thread_local std::vector<float> widened;
      for (std::size_t n = begin; n < end; ++n) {
        if (bf16_w) {
          widened.resize(L.input_dim);
          kernels::bf16_to_fp32(L.row_bf16(static_cast<std::uint32_t>(n)), widened.data(),
                                L.input_dim);
          L.family->hash_dense(widened.data(), buckets.data() + n * num_tables);
        } else if (int8_w) {
          // Hash the dequantized row, not the pre-quantization fp32: the
          // tables must be a pure function of what the file stores so that
          // freeze-time and load-time rebuilds agree bucket for bucket.
          widened.resize(L.input_dim);
          const std::int8_t* row = L.row_i8(static_cast<std::uint32_t>(n));
          const float sc = L.w_scale[n];
          for (std::size_t j = 0; j < L.input_dim; ++j) {
            widened[j] = sc * static_cast<float>(row[j]);
          }
          L.family->hash_dense(widened.data(), buckets.data() + n * num_tables);
        } else {
          L.family->hash_dense(L.row_f32(static_cast<std::uint32_t>(n)),
                               buckets.data() + n * num_tables);
        }
      }
    };
    if (L.dim >= 128) {
      pool.parallel_for_dynamic(L.dim, 32, [&](unsigned, std::size_t b, std::size_t e) {
        hash_range(b, e);
      });
    } else {
      hash_range(0, L.dim);
    }
    L.tables->bulk_load(buckets.data(), L.dim, &pool);
  }
}

std::vector<LayerView> PackedModel::views() const {
  std::vector<LayerView> out;
  out.reserve(layers_.size());
  for (const Layer& L : layers_) out.push_back(L.view(precision_));
  return out;
}

std::size_t PackedModel::num_params() const {
  std::size_t total = 0;
  for (const Layer& L : layers_) total += L.dim * L.input_dim + L.dim;
  return total;
}

std::size_t PackedModel::arena_bytes() const {
  std::size_t total = 0;
  for (const Layer& L : layers_) total += L.arena_bytes();
  return total;
}

namespace {

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

// Reads a section's trailing CRC32C (v2 files) and compares it against the
// checksum of the bytes just consumed.  `section` names the section in the
// error, e.g. "layer 3 weights".
void check_section_crc(std::istream& in, std::uint32_t computed,
                       const std::string& section) {
  const auto at = in.tellg();
  const auto stored = io::read_pod<std::uint32_t>(in);
  if (stored != computed) {
    throw ModelIntegrityError("packed model: checksum mismatch in " + section +
                              " section at offset " +
                              std::to_string(static_cast<long long>(at)) +
                              " (stored " + hex32(stored) + ", computed " +
                              hex32(computed) + ")");
  }
}

}  // namespace

void PackedModel::save(std::ostream& out) const {
  io::write_pod(out, kMagic);
  io::write_pod(out, kPackedModelVersion);

  // Header section: precision + dimensions, then its CRC.
  const auto precision = static_cast<std::uint8_t>(precision_);
  const std::uint64_t input_dim = input_dim_;
  const std::uint64_t num_layers = layers_.size();
  io::write_pod(out, precision);
  io::write_pod(out, input_dim);
  io::write_pod(out, num_layers);
  std::uint32_t crc = util::crc32c(&precision, sizeof(precision));
  crc = util::crc32c(&input_dim, sizeof(input_dim), crc);
  crc = util::crc32c(&num_layers, sizeof(num_layers), crc);
  io::write_pod(out, crc);

  for (const Layer& L : layers_) {
    // Metadata section (config record + seed + biases) and its CRC.  The
    // config record is staged through a stringstream so the checksum covers
    // the exact wire bytes.
    std::ostringstream staged;
    io::write_layer_config(staged, L.cfg);
    const std::string cfg_bytes = staged.str();
    out.write(cfg_bytes.data(),
              static_cast<std::streamsize>(cfg_bytes.size()));
    io::write_pod<std::uint64_t>(out, L.seed);
    io::write_array(out, L.bias.data(), L.bias.size());
    std::uint32_t meta_crc = util::crc32c(cfg_bytes.data(), cfg_bytes.size());
    meta_crc = util::crc32c(&L.seed, sizeof(L.seed), meta_crc);
    meta_crc =
        util::crc32c(L.bias.data(), L.bias.size() * sizeof(float), meta_crc);
    io::write_pod(out, meta_crc);

    // Weights section and its CRC.  Int8 (v3) stores the quantized arena,
    // its per-row scales, and the layer's activation qparams under one
    // checksum; w_rowsum is derived, so it is recomputed on load instead.
    std::uint32_t w_crc;
    if (precision_ == Precision::Bf16All) {
      io::write_array(out, L.w16.data(), L.w16.size());
      w_crc = util::crc32c(L.w16.data(), L.w16.size() * sizeof(bf16));
    } else if (precision_ == Precision::Int8) {
      io::write_array(out, L.w8.data(), L.w8.size());
      io::write_array(out, L.w_scale.data(), L.w_scale.size());
      io::write_pod(out, L.in_scale);
      io::write_pod(out, L.in_zero);
      w_crc = util::crc32c(L.w8.data(), L.w8.size() * sizeof(std::int8_t));
      w_crc = util::crc32c(L.w_scale.data(), L.w_scale.size() * sizeof(float), w_crc);
      w_crc = util::crc32c(&L.in_scale, sizeof(L.in_scale), w_crc);
      w_crc = util::crc32c(&L.in_zero, sizeof(L.in_zero), w_crc);
    } else {
      io::write_array(out, L.w.data(), L.w.size());
      w_crc = util::crc32c(L.w.data(), L.w.size() * sizeof(float));
    }
    io::write_pod(out, w_crc);
  }
  if (!out) throw ModelIoError("packed model: write failed");
}

PackedModel PackedModel::load(std::istream& in) {
  try {
    if (io::read_pod<std::uint32_t>(in) != kMagic) {
      throw ModelIntegrityError("packed model: bad magic");
    }
    const auto version = io::read_pod<std::uint32_t>(in);
    if (version < kMinPackedModelVersion || version > kPackedModelVersion) {
      throw ModelIntegrityError("packed model: unsupported version " +
                                std::to_string(version));
    }
    const bool checked = version >= 2;  // v1 carries no checksums

    PackedModel pm;
    const auto precision = io::read_pod<std::uint8_t>(in);
    pm.precision_ = static_cast<Precision>(precision);
    pm.input_dim_ = io::read_pod<std::uint64_t>(in);
    const std::uint64_t num_layers = io::read_pod<std::uint64_t>(in);
    if (checked) {
      const std::uint64_t input_dim = pm.input_dim_;
      std::uint32_t crc = util::crc32c(&precision, sizeof(precision));
      crc = util::crc32c(&input_dim, sizeof(input_dim), crc);
      crc = util::crc32c(&num_layers, sizeof(num_layers), crc);
      check_section_crc(in, crc, "header");
    }
    if (precision > static_cast<std::uint8_t>(Precision::Int8)) {
      throw ModelIntegrityError("packed model: invalid precision byte");
    }
    if (pm.precision_ == Precision::Int8 && version < 3) {
      throw ModelIntegrityError(
          "packed model: int8 payload requires format v3, file claims v" +
          std::to_string(version));
    }
    if (pm.input_dim_ == 0 || num_layers == 0) {
      throw ModelIntegrityError("packed model: empty model");
    }

    std::size_t prev = pm.input_dim_;
    for (std::uint64_t i = 0; i < num_layers; ++i) {
      const std::string which = "layer " + std::to_string(i);
      Layer L;
      std::uint32_t meta_crc = 0;
      if (checked) {
        // Checksum the raw config record before trusting any field of it.
        char cfg_bytes[io::kLayerConfigWireBytes];
        in.read(cfg_bytes, sizeof(cfg_bytes));
        if (!in) throw ModelIntegrityError("packed model: truncated " + which);
        std::istringstream staged(std::string(cfg_bytes, sizeof(cfg_bytes)));
        L.cfg = io::read_layer_config(staged);
        meta_crc = util::crc32c(cfg_bytes, sizeof(cfg_bytes));
      } else {
        L.cfg = io::read_layer_config(in);
      }
      L.seed = io::read_pod<std::uint64_t>(in);
      L.input_dim = prev;
      L.dim = L.cfg.dim;
      if (L.dim == 0) {
        throw ModelIntegrityError("packed model: zero-width " + which);
      }
      prev = L.dim;
      L.bias.resize(L.dim);
      io::read_array(in, L.bias.data(), L.dim);
      if (checked) {
        meta_crc = util::crc32c(&L.seed, sizeof(L.seed), meta_crc);
        meta_crc =
            util::crc32c(L.bias.data(), L.bias.size() * sizeof(float), meta_crc);
        check_section_crc(in, meta_crc, which + " metadata");
      }

      const std::size_t total = L.dim * L.input_dim;
      std::uint32_t w_crc;
      if (pm.precision_ == Precision::Bf16All) {
        L.w16.resize(total);
        io::read_array(in, L.w16.data(), total);
        w_crc = util::crc32c(L.w16.data(), total * sizeof(bf16));
      } else if (pm.precision_ == Precision::Int8) {
        L.w8.resize(total);
        L.w_scale.resize(L.dim);
        io::read_array(in, L.w8.data(), total);
        io::read_array(in, L.w_scale.data(), L.dim);
        L.in_scale = io::read_pod<float>(in);
        L.in_zero = io::read_pod<std::int32_t>(in);
        w_crc = util::crc32c(L.w8.data(), total * sizeof(std::int8_t));
        w_crc = util::crc32c(L.w_scale.data(), L.dim * sizeof(float), w_crc);
        w_crc = util::crc32c(&L.in_scale, sizeof(L.in_scale), w_crc);
        w_crc = util::crc32c(&L.in_zero, sizeof(L.in_zero), w_crc);
      } else {
        L.w.resize(total);
        io::read_array(in, L.w.data(), total);
        w_crc = util::crc32c(L.w.data(), total * sizeof(float));
      }
      if (checked) check_section_crc(in, w_crc, which + " weights");
      if (pm.precision_ == Precision::Int8) {
        // Derived, not stored: the dense dot's zero-point correction term.
        L.w_rowsum.resize(L.dim);
        for (std::size_t n = 0; n < L.dim; ++n) {
          std::int32_t rowsum = 0;
          const std::int8_t* row = L.w8.data() + n * L.input_dim;
          for (std::size_t j = 0; j < L.input_dim; ++j) rowsum += row[j];
          L.w_rowsum[n] = rowsum;
        }
      }
      pm.layers_.push_back(std::move(L));
    }
    pm.rebuild_lsh();
    return pm;
  } catch (const ModelIntegrityError&) {
    throw;
  } catch (const std::runtime_error& e) {
    // serialize_io reports truncation as a plain runtime_error; fold it
    // into the integrity taxonomy so callers can branch on the type.
    throw ModelIntegrityError(std::string("packed model: ") + e.what());
  }
}

void PackedModel::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ModelIoError("packed model: cannot open for writing: " + path);
  save(out);
}

PackedModel PackedModel::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelIoError("packed model: cannot open: " + path);
  return load(in);
}

}  // namespace slide::infer
