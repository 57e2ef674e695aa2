#include "accel/decoder_accelerator.hpp"

#include <algorithm>
#include <stdexcept>

#include "hw/frequency_model.hpp"
#include "hw/hbm.hpp"
#include "hw/resource_model.hpp"
#include "runtime/inference_session.hpp"
#include "util/math_util.hpp"

namespace protea::accel {
namespace {

/// FFN-engine tile geometry shared by the full-forward and incremental
/// cycle models (one source of truth for the PaddingPolicy handling).
/// `per_access` is the per-target-row engine access cost; callers
/// multiply by their row count.
struct FfnTiling {
  uint64_t rows_d = 0, rows_f = 0, cols_d = 0, cols_f = 0;
  hw::Cycles per_access = 0;
};

FfnTiling ffn_tiling(const AccelConfig& config, uint64_t d, uint64_t f) {
  const hw::SynthParams& sp = config.synth;
  const bool fixed_rows = config.padding == PaddingPolicy::kSynthFixedRows;
  const auto ts_ffn = static_cast<uint64_t>(sp.ts_ffn);
  using util::ceil_div;
  FfnTiling t;
  t.rows_d = fixed_rows ? sp.tiles_ffn_max() : ceil_div(d, ts_ffn);
  t.rows_f = fixed_rows ? 4ull * sp.tiles_ffn_max() : ceil_div(f, ts_ffn);
  t.cols_d = ceil_div(d, ts_ffn);
  t.cols_f = ceil_div(f, ts_ffn);
  t.per_access = hw::pipelined_loop(ts_ffn, hw::achieved_ii(2 * sp.ts_ffn),
                                    config.timing.pipeline_depth);
  return t;
}

/// Shared tail of every decoder cycle model: derives clocking, latency,
/// throughput and DSP utilization from total_cycles and macs.
void finalize_report(const AccelConfig& config, PerfReport& report) {
  report.fmax_mhz = hw::fmax_mhz(config.synth);
  report.latency_ms = hw::cycles_to_ms(report.total_cycles, report.fmax_mhz);
  report.ops = 2 * report.macs;
  report.gops =
      static_cast<double>(report.ops) / (report.latency_ms * 1e-3) / 1e9;
  const auto resources = hw::estimate_resources(config.synth);
  report.dsp_utilization =
      static_cast<double>(report.macs) /
      (static_cast<double>(resources.total_pes) *
       static_cast<double>(report.total_cycles));
}

}  // namespace

ProteaDecoderAccelerator::ProteaDecoderAccelerator(AccelConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

void ProteaDecoderAccelerator::load_model(QuantizedDecoder model) {
  validate_runtime(config_.synth, model.config);
  gen_.reset();  // bound to the previous model's weights and shapes
  model_ = std::move(model);
  stats_ = EngineStats{};
}

const QuantizedDecoder& ProteaDecoderAccelerator::model() const {
  if (!model_) {
    throw std::logic_error("ProteaDecoderAccelerator: no model loaded");
  }
  return *model_;
}

tensor::MatrixF ProteaDecoderAccelerator::forward(
    const tensor::MatrixF& target, const tensor::MatrixF& memory) {
  const QuantizedDecoder& qd = model();
  // Single decoder forward implementation shared with the serving runtime
  // (runtime/inference_session.hpp): masked self-attention,
  // cross-attention and FFN all sequence the unified layer-op blocks.
  tensor::MatrixF result;
  runtime::decoder_forward_into(qd, config_, target, memory, ws_, &stats_,
                                result);
  return result;
}

tensor::MatrixF ProteaDecoderAccelerator::prefill(
    const tensor::MatrixF& prefix, const tensor::MatrixF& memory) {
  const QuantizedDecoder& qd = model();
  if (gen_ == nullptr) {
    gen_ = std::make_unique<runtime::GenerationSession>(config_, qd,
                                                        &stats_);
  }
  tensor::MatrixF states;
  gen_->prefill(prefix, memory, states);
  return states;
}

tensor::MatrixF ProteaDecoderAccelerator::decode_step(
    const tensor::MatrixF& token) {
  if (gen_ == nullptr) {
    throw std::logic_error(
        "ProteaDecoderAccelerator: prefill() before decode_step()");
  }
  tensor::MatrixF state;
  gen_->decode_step(token, state);
  return state;
}

size_t ProteaDecoderAccelerator::generation_position() const {
  return gen_ != nullptr ? gen_->position() : 0;
}

PerfReport ProteaDecoderAccelerator::performance(
    uint32_t target_len, uint32_t memory_len) const {
  return estimate_decoder_performance(config_, model().config, target_len,
                                      memory_len);
}

PerfReport ProteaDecoderAccelerator::step_performance(
    uint32_t pos, uint32_t memory_len) const {
  return estimate_decode_step_performance(config_, model().config, pos,
                                          memory_len);
}

PerfReport estimate_decoder_performance(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t target_len,
                                        uint32_t memory_len) {
  config.validate();
  validate_runtime(config.synth, model);
  if (target_len == 0 || target_len > model.seq_len) {
    throw std::invalid_argument("decoder perf: bad target length");
  }
  if (memory_len == 0 || memory_len > config.synth.max_seq_len) {
    throw std::invalid_argument("decoder perf: bad memory length");
  }

  const hw::SynthParams& sp = config.synth;
  const TimingConstants& tc = config.timing;
  const uint64_t t_len = target_len;
  const uint64_t s_len = memory_len;
  const uint64_t d = model.d_model;
  const uint64_t dk = d / model.num_heads;
  const uint64_t f = model.ffn_hidden();
  const hw::Cycles depth = tc.pipeline_depth;
  using util::ceil_div;

  PerfReport report;
  const uint64_t tiles_d = ceil_div(d, static_cast<uint64_t>(sp.ts_mha));
  const uint32_t ii_qkv = hw::achieved_ii(4 * sp.ts_mha);
  const uint32_t ii_proj = hw::achieved_ii(2 * sp.ts_mha);

  auto add_stage = [&report](const char* name, uint64_t invocations,
                             hw::Cycles cycles) {
    report.stages.push_back(StageTiming{
        .name = name, .invocations = invocations, .compute = cycles,
        .total = cycles, .bytes_loaded = 0});
  };

  // Self-attention (engines in parallel across heads).
  add_stage("self_qkv", tiles_d,
            tiles_d * t_len * hw::pipelined_loop(dk, ii_qkv, depth));
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
    add_stage("self_qk", 1, t_len * hw::pipelined_loop(t_len, ii, depth));
  }
  add_stage("self_softmax", 1,
            t_len * (2 * t_len + tc.softmax_row_overhead));
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(t_len, static_cast<uint64_t>(sp.sl_unroll)));
    add_stage("self_sv", 1, t_len * hw::pipelined_loop(dk, ii, depth));
  }

  // Cross-attention: Q from the target stream, K/V streamed over the
  // encoder memory — single-projection passes at half the QKV engine's
  // read parallelism.
  add_stage("cross_q", tiles_d,
            tiles_d * t_len * hw::pipelined_loop(dk, ii_proj, depth));
  add_stage("cross_kv", tiles_d,
            2 * tiles_d * s_len * hw::pipelined_loop(dk, ii_proj, depth));
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
    add_stage("cross_qk", 1, t_len * hw::pipelined_loop(s_len, ii, depth));
  }
  add_stage("cross_softmax", 1,
            t_len * (2 * s_len + tc.softmax_row_overhead));
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(s_len, static_cast<uint64_t>(sp.sl_unroll)));
    add_stage("cross_sv", 1, t_len * hw::pipelined_loop(dk, ii, depth));
  }

  // Projections + FFN on the FFN engines (same tiling rules as encoder).
  const FfnTiling ft = ffn_tiling(config, d, f);
  const hw::Cycles per_access = t_len * ft.per_access;
  add_stage("self_proj", ft.rows_d * ft.cols_d,
            ft.rows_d * ft.cols_d * per_access);
  add_stage("cross_proj", ft.rows_d * ft.cols_d,
            ft.rows_d * ft.cols_d * per_access);
  add_stage("ffn_expand", ft.rows_d * ft.cols_f,
            ft.rows_d * ft.cols_f * per_access);
  add_stage("ffn_contract", ft.rows_f * ft.cols_d,
            ft.rows_f * ft.cols_d * per_access);

  const hw::Cycles ln_row =
      3 * ceil_div(d, static_cast<uint64_t>(tc.ln_lanes)) +
      tc.ln_row_overhead;
  add_stage("layernorm", 3, 3 * t_len * ln_row);

  for (const auto& stage : report.stages) {
    report.layer_cycles += stage.total;
  }
  report.total_cycles = report.layer_cycles * model.num_layers;

  // Operation counts for a decoder stack.
  const uint64_t self_macs =
      3 * t_len * d * d + 2 * t_len * t_len * d + t_len * d * d;
  const uint64_t cross_macs = t_len * d * d + 2 * s_len * d * d +
                              2 * t_len * s_len * d + t_len * d * d;
  const uint64_t ffn_macs = 2 * t_len * d * f;
  report.macs = model.num_layers * (self_macs + cross_macs + ffn_macs);
  finalize_report(config, report);
  return report;
}

PerfReport estimate_decode_step_performance(const AccelConfig& config,
                                            const ref::ModelConfig& model,
                                            uint32_t pos,
                                            uint32_t memory_len,
                                            numeric::KvStorage kv_storage) {
  config.validate();
  validate_runtime(config.synth, model);
  if (pos >= model.seq_len) {
    throw std::invalid_argument("decode step perf: bad position");
  }
  if (memory_len == 0 || memory_len > config.synth.max_seq_len) {
    throw std::invalid_argument("decode step perf: bad memory length");
  }

  const hw::SynthParams& sp = config.synth;
  const TimingConstants& tc = config.timing;
  const uint64_t kv_len = uint64_t{pos} + 1;  // cached prefix + this row
  const uint64_t s_len = memory_len;
  const uint64_t d = model.d_model;
  const uint64_t dk = d / model.num_heads;
  const uint64_t f = model.ffn_hidden();
  const hw::Cycles depth = tc.pipeline_depth;
  using util::ceil_div;

  PerfReport report;
  const uint64_t tiles_d = ceil_div(d, static_cast<uint64_t>(sp.ts_mha));
  const uint32_t ii_qkv = hw::achieved_ii(4 * sp.ts_mha);
  const uint32_t ii_proj = hw::achieved_ii(2 * sp.ts_mha);

  auto add_stage = [&report](const char* name, uint64_t invocations,
                             hw::Cycles cycles) {
    report.stages.push_back(StageTiming{
        .name = name, .invocations = invocations, .compute = cycles,
        .total = cycles, .bytes_loaded = 0});
  };

  // Self-attention: one query row; K/V of the new row append into the
  // cache and QK/softmax/SV span the kv_len cached rows.
  add_stage("self_qkv", tiles_d,
            tiles_d * hw::pipelined_loop(dk, ii_qkv, depth));
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
    add_stage("self_qk", 1, hw::pipelined_loop(kv_len, ii, depth));
  }
  add_stage("self_softmax", 1, 2 * kv_len + tc.softmax_row_overhead);
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(kv_len, static_cast<uint64_t>(sp.sl_unroll)));
    add_stage("self_sv", 1, hw::pipelined_loop(dk, ii, depth));
  }

  // Cross-attention: only the Q projection of the new row is computed —
  // the memory's K/V projections were cached at prefill, so the per-step
  // cross_kv stage (the full model's dominant memory-length term)
  // disappears entirely.
  add_stage("cross_q", tiles_d,
            tiles_d * hw::pipelined_loop(dk, ii_proj, depth));
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
    add_stage("cross_qk", 1, hw::pipelined_loop(s_len, ii, depth));
  }
  add_stage("cross_softmax", 1, 2 * s_len + tc.softmax_row_overhead);
  {
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(s_len, static_cast<uint64_t>(sp.sl_unroll)));
    add_stage("cross_sv", 1, hw::pipelined_loop(dk, ii, depth));
  }

  // Single-row projections + FFN on the FFN engines.
  const FfnTiling ft = ffn_tiling(config, d, f);
  add_stage("self_proj", ft.rows_d * ft.cols_d,
            ft.rows_d * ft.cols_d * ft.per_access);
  add_stage("cross_proj", ft.rows_d * ft.cols_d,
            ft.rows_d * ft.cols_d * ft.per_access);
  add_stage("ffn_expand", ft.rows_d * ft.cols_f,
            ft.rows_d * ft.cols_f * ft.per_access);
  add_stage("ffn_contract", ft.rows_f * ft.cols_d,
            ft.rows_f * ft.cols_d * ft.per_access);

  const hw::Cycles ln_row =
      3 * ceil_div(d, static_cast<uint64_t>(tc.ln_lanes)) +
      tc.ln_row_overhead;
  add_stage("layernorm", 3, 3 * ln_row);

  if (kv_storage != numeric::KvStorage::kInt8) {
    // Block-strided path over a quantized cache: the QK/SV pack stage
    // streams the stored codes and decodes them through the 256-entry
    // LUT in flight. Zero engine cycles (the LUT rides the existing
    // pack loop), but the stored prefix bytes are real traffic the
    // int8 path's in-place reads don't re-count — model them so the
    // energy/bandwidth side of a quantized run is honest.
    report.stages.push_back(StageTiming{
        .name = "kv_dequant",
        .invocations = model.num_heads,
        .compute = 0,
        .total = 0,
        .bytes_loaded = uint64_t{model.num_heads} *
                        numeric::kv_storage_bytes(2 * kv_len * dk, kv_storage)});
  }

  for (const auto& stage : report.stages) {
    report.layer_cycles += stage.total;
    report.bytes_loaded += stage.bytes_loaded;
  }
  report.total_cycles = report.layer_cycles * model.num_layers;
  report.bytes_loaded *= model.num_layers;

  // Per-step MAC count, matching the executed incremental schedule (and
  // the EngineStats deltas a real decode_step records).
  const uint64_t self_macs = 3 * d * d + 2 * kv_len * d + d * d;
  const uint64_t cross_macs = d * d + 2 * s_len * d + d * d;
  const uint64_t ffn_macs = 2 * d * f;
  report.macs = model.num_layers * (self_macs + cross_macs + ffn_macs);
  finalize_report(config, report);
  return report;
}

KvFootprint estimate_kv_footprint(const ref::ModelConfig& model,
                                  uint32_t rows, uint32_t block_rows,
                                  numeric::KvStorage storage) {
  if (rows == 0 || rows > model.seq_len || block_rows == 0) {
    throw std::invalid_argument("kv footprint: bad rows/block_rows");
  }
  KvFootprint fp;
  // Per-head stored width, NOT kv_storage_bytes(row elements): this is
  // exactly how KvCache/KvBlockPool size their rows, and packed fp4
  // rounds up per head (odd head_dim is rejected by the runtime).
  fp.row_bytes = uint64_t{model.num_layers} * model.num_heads * 2 *
                 numeric::kv_storage_bytes(model.head_dim(), storage);
  // Dense arena stays 1 byte/element regardless of storage (quantized
  // formats round-trip in place there; only the paged pool packs).
  fp.dense_bytes = uint64_t{model.num_layers} * model.num_heads * 2 *
                   model.head_dim() * model.seq_len;
  fp.blocks = util::ceil_div(rows, block_rows);
  fp.paged_bytes = uint64_t{fp.blocks} * block_rows * fp.row_bytes;
  return fp;
}

ForkedKvFootprint estimate_forked_kv_footprint(const ref::ModelConfig& model,
                                               uint32_t prompt_rows,
                                               uint32_t new_rows,
                                               uint32_t beams,
                                               uint32_t block_rows,
                                               numeric::KvStorage storage) {
  if (prompt_rows == 0 || beams == 0 || block_rows == 0 ||
      prompt_rows + new_rows > model.seq_len) {
    throw std::invalid_argument("forked kv footprint: bad arguments");
  }
  ForkedKvFootprint fp;
  fp.row_bytes = uint64_t{model.num_layers} * model.num_heads * 2 *
                 numeric::kv_storage_bytes(model.head_dim(), storage);
  const uint64_t block_bytes = uint64_t{block_rows} * fp.row_bytes;
  const uint32_t full = util::ceil_div(prompt_rows + new_rows, block_rows);
  fp.shared_blocks = util::ceil_div(prompt_rows, block_rows);
  // A beam's private worst case: every block past the last fully-shared
  // one — its divergent tail plus the COW copy of the straddling block.
  fp.private_blocks = full - prompt_rows / block_rows;
  fp.cow_bytes =
      (uint64_t{fp.shared_blocks} + uint64_t{beams} * fp.private_blocks) *
      block_bytes;
  fp.eager_bytes = uint64_t{beams} * full * block_bytes;
  fp.bytes_saved = fp.eager_bytes - fp.cow_bytes;
  return fp;
}

PerfReport estimate_beam_generation_performance(const AccelConfig& config,
                                                const ref::ModelConfig& model,
                                                uint32_t prefill_len,
                                                uint32_t total_len,
                                                uint32_t memory_len,
                                                uint32_t beam_width) {
  // total_len may exceed seq_len by one: the last selected token is
  // scored from the final decoded state and never appended, so the
  // deepest modeled step position is total_len - 2 <= seq_len - 1.
  if (prefill_len == 0 || beam_width == 0 || prefill_len > total_len ||
      total_len > uint32_t{model.seq_len} + 1) {
    throw std::invalid_argument("beam generation perf: bad lengths");
  }
  const PerfReport prefill =
      estimate_decoder_performance(config, model, prefill_len, memory_len);

  PerfReport report;
  hw::Cycles step_cycles = 0;
  uint64_t step_macs = 0;
  for (uint32_t pos = prefill_len; pos + 1 < total_len; ++pos) {
    const PerfReport step =
        estimate_decode_step_performance(config, model, pos, memory_len);
    step_cycles += beam_width * step.total_cycles;
    step_macs += beam_width * step.macs;
  }
  report.stages.push_back(StageTiming{.name = "prefill",
                                      .invocations = 1,
                                      .compute = prefill.total_cycles,
                                      .total = prefill.total_cycles,
                                      .bytes_loaded = 0});
  const uint64_t beam_steps =
      uint64_t{beam_width} *
      (total_len > prefill_len ? total_len - prefill_len - 1 : 0);
  report.stages.push_back(StageTiming{.name = "beam_steps",
                                      .invocations = beam_steps,
                                      .compute = step_cycles,
                                      .total = step_cycles,
                                      .bytes_loaded = 0});
  report.total_cycles = prefill.total_cycles + step_cycles;
  report.layer_cycles = report.total_cycles / model.num_layers;
  report.macs = prefill.macs + step_macs;
  finalize_report(config, report);
  return report;
}

PerfReport estimate_prefill_performance(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t prefill_len,
                                        uint32_t memory_len,
                                        const GenerationCosting& costing) {
  config.validate();
  validate_runtime(config.synth, model);
  if (prefill_len == 0 || prefill_len > model.seq_len) {
    throw std::invalid_argument("prefill perf: bad prefill length");
  }
  if (memory_len == 0 || memory_len > config.synth.max_seq_len) {
    throw std::invalid_argument("prefill perf: bad memory length");
  }
  if (costing.adopted_rows >= prefill_len) {
    throw std::invalid_argument(
        "prefill perf: adopted_rows must leave a tail row");
  }

  const hw::SynthParams& sp = config.synth;
  const TimingConstants& tc = config.timing;
  const uint64_t s_len = memory_len;
  const uint64_t d = model.d_model;
  const uint64_t dk = d / model.num_heads;
  const uint64_t f = model.ffn_hidden();
  const hw::Cycles depth = tc.pipeline_depth;
  using util::ceil_div;

  PerfReport report;
  const uint64_t tiles_d = ceil_div(d, static_cast<uint64_t>(sp.ts_mha));
  const uint32_t ii_qkv = hw::achieved_ii(4 * sp.ts_mha);
  const uint32_t ii_proj = hw::achieved_ii(2 * sp.ts_mha);
  const uint32_t ii_dk = static_cast<uint32_t>(
      ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
  const FfnTiling ft = ffn_tiling(config, d, f);
  const hw::Cycles ln_row =
      3 * ceil_div(d, static_cast<uint64_t>(tc.ln_lanes)) +
      tc.ln_row_overhead;

  // Replay the executed pass schedule: rows [adopted_rows, prefill_len)
  // in chunk-sized passes, each pass's self-attention spanning every row
  // cached so far (pos + n keys, NOT prefill_len — chunking genuinely
  // changes the QK/SV totals, which is why the model must walk it).
  struct Acc {
    uint64_t inv = 0;
    hw::Cycles cyc = 0;
  };
  Acc self_qkv, self_qk, self_softmax, self_sv, cross_q, cross_qk,
      cross_softmax, cross_sv, self_proj, cross_proj, ffn_expand,
      ffn_contract, layernorm;
  uint64_t layer_macs = 0;  // per layer; scaled by num_layers below

  const uint64_t t_len = prefill_len;
  const uint64_t start = costing.adopted_rows;
  const uint64_t chunk =
      costing.prefill_chunk == 0 ? t_len - start : costing.prefill_chunk;
  for (uint64_t pos = start; pos < t_len; pos += chunk) {
    const uint64_t n = std::min(chunk, t_len - pos);
    const uint64_t kv = pos + n;
    self_qkv.inv += tiles_d;
    self_qkv.cyc += tiles_d * n * hw::pipelined_loop(dk, ii_qkv, depth);
    self_qk.inv += 1;
    self_qk.cyc += n * hw::pipelined_loop(kv, ii_dk, depth);
    self_softmax.inv += 1;
    self_softmax.cyc += n * (2 * kv + tc.softmax_row_overhead);
    {
      const uint32_t ii = static_cast<uint32_t>(
          ceil_div(kv, static_cast<uint64_t>(sp.sl_unroll)));
      self_sv.inv += 1;
      self_sv.cyc += n * hw::pipelined_loop(dk, ii, depth);
    }
    cross_q.inv += tiles_d;
    cross_q.cyc += tiles_d * n * hw::pipelined_loop(dk, ii_proj, depth);
    cross_qk.inv += 1;
    cross_qk.cyc += n * hw::pipelined_loop(s_len, ii_dk, depth);
    cross_softmax.inv += 1;
    cross_softmax.cyc += n * (2 * s_len + tc.softmax_row_overhead);
    {
      const uint32_t ii = static_cast<uint32_t>(
          ceil_div(s_len, static_cast<uint64_t>(sp.sl_unroll)));
      cross_sv.inv += 1;
      cross_sv.cyc += n * hw::pipelined_loop(dk, ii, depth);
    }
    const hw::Cycles per_access = n * ft.per_access;
    self_proj.inv += ft.rows_d * ft.cols_d;
    self_proj.cyc += ft.rows_d * ft.cols_d * per_access;
    cross_proj.inv += ft.rows_d * ft.cols_d;
    cross_proj.cyc += ft.rows_d * ft.cols_d * per_access;
    ffn_expand.inv += ft.rows_d * ft.cols_f;
    ffn_expand.cyc += ft.rows_d * ft.cols_f * per_access;
    ffn_contract.inv += ft.rows_f * ft.cols_d;
    ffn_contract.cyc += ft.rows_f * ft.cols_d * per_access;
    layernorm.inv += 3;
    layernorm.cyc += 3 * n * ln_row;

    layer_macs += 3 * n * d * d + 2 * n * kv * d + n * d * d;  // self
    layer_macs += n * d * d + 2 * n * s_len * d + n * d * d;   // cross
    layer_macs += 2 * n * d * f;                               // ffn
  }

  auto add_stage = [&report](const char* name, uint64_t invocations,
                             hw::Cycles cycles) {
    report.stages.push_back(StageTiming{
        .name = name, .invocations = invocations, .compute = cycles,
        .total = cycles, .bytes_loaded = 0});
  };
  add_stage("self_qkv", self_qkv.inv, self_qkv.cyc);
  add_stage("self_qk", self_qk.inv, self_qk.cyc);
  add_stage("self_softmax", self_softmax.inv, self_softmax.cyc);
  add_stage("self_sv", self_sv.inv, self_sv.cyc);
  add_stage("cross_q", cross_q.inv, cross_q.cyc);
  if (!costing.cross_cached) {
    // The one-time memory projection — the stage a cross-cache hit
    // removes wholesale.
    add_stage("cross_kv", tiles_d,
              2 * tiles_d * s_len * hw::pipelined_loop(dk, ii_proj, depth));
    layer_macs += 2 * s_len * d * d;
  }
  add_stage("cross_qk", cross_qk.inv, cross_qk.cyc);
  add_stage("cross_softmax", cross_softmax.inv, cross_softmax.cyc);
  add_stage("cross_sv", cross_sv.inv, cross_sv.cyc);
  add_stage("self_proj", self_proj.inv, self_proj.cyc);
  add_stage("cross_proj", cross_proj.inv, cross_proj.cyc);
  add_stage("ffn_expand", ffn_expand.inv, ffn_expand.cyc);
  add_stage("ffn_contract", ffn_contract.inv, ffn_contract.cyc);
  add_stage("layernorm", layernorm.inv, layernorm.cyc);

  for (const auto& stage : report.stages) {
    report.layer_cycles += stage.total;
  }
  report.total_cycles = report.layer_cycles * model.num_layers;
  report.macs = model.num_layers * layer_macs;
  finalize_report(config, report);
  return report;
}

PerfReport estimate_generation_performance(const AccelConfig& config,
                                           const ref::ModelConfig& model,
                                           uint32_t prefill_len,
                                           uint32_t total_len,
                                           uint32_t memory_len) {
  return estimate_generation_performance(config, model, prefill_len,
                                         total_len, memory_len,
                                         GenerationCosting{});
}

PerfReport estimate_generation_performance(const AccelConfig& config,
                                           const ref::ModelConfig& model,
                                           uint32_t prefill_len,
                                           uint32_t total_len,
                                           uint32_t memory_len,
                                           const GenerationCosting& costing) {
  if (prefill_len == 0 || prefill_len > total_len ||
      total_len > model.seq_len) {
    throw std::invalid_argument("generation perf: bad lengths");
  }
  const PerfReport prefill = estimate_prefill_performance(
      config, model, prefill_len, memory_len, costing);

  PerfReport report;
  hw::Cycles step_cycles = 0;
  uint64_t step_macs = 0;
  uint64_t step_bytes = 0;
  for (uint32_t pos = prefill_len; pos < total_len; ++pos) {
    const PerfReport step = estimate_decode_step_performance(
        config, model, pos, memory_len, costing.kv_storage);
    step_cycles += step.total_cycles;
    step_macs += step.macs;
    step_bytes += step.bytes_loaded;
  }
  report.stages.push_back(StageTiming{.name = "prefill",
                                      .invocations = 1,
                                      .compute = prefill.total_cycles,
                                      .total = prefill.total_cycles,
                                      .bytes_loaded = 0});
  report.stages.push_back(StageTiming{.name = "decode_steps",
                                      .invocations = total_len - prefill_len,
                                      .compute = step_cycles,
                                      .total = step_cycles,
                                      .bytes_loaded = step_bytes});
  report.bytes_loaded = step_bytes;
  report.total_cycles = prefill.total_cycles + step_cycles;
  report.layer_cycles = report.total_cycles / model.num_layers;
  report.macs = prefill.macs + step_macs;
  finalize_report(config, report);
  return report;
}

PrefixCacheSavings estimate_prefix_cache_savings(
    const AccelConfig& config, const ref::ModelConfig& model,
    uint32_t prefill_len, uint32_t memory_len,
    const GenerationCosting& costing) {
  GenerationCosting cold = costing;
  cold.adopted_rows = 0;
  cold.cross_cached = false;
  const PerfReport cold_r = estimate_prefill_performance(
      config, model, prefill_len, memory_len, cold);
  const PerfReport warm_r = estimate_prefill_performance(
      config, model, prefill_len, memory_len, costing);
  PrefixCacheSavings s;
  s.macs_saved = cold_r.macs - warm_r.macs;
  s.rows_skipped = costing.adopted_rows;
  // Adopted rows live in the shared pool, so they count at the stored
  // width (matching the runtime's prefix_bytes_saved, which multiplies
  // by the pool's storage-aware row_bytes). Cross projections below
  // stay 1 byte/element: the cross cache always stores int8 rows.
  const uint64_t row_bytes =
      uint64_t{model.num_layers} * model.num_heads * 2 *
      numeric::kv_storage_bytes(model.head_dim(), costing.kv_storage);
  s.kv_bytes = uint64_t{costing.adopted_rows} * row_bytes;
  s.cross_bytes = costing.cross_cached
                      ? uint64_t{model.num_layers} * model.num_heads * 2 *
                            memory_len * model.head_dim()
                      : 0;
  s.ms_saved = cold_r.latency_ms - warm_r.latency_ms;
  return s;
}

PreemptionCost estimate_preemption_cost(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t rows_cached,
                                        uint32_t memory_len,
                                        uint32_t block_rows,
                                        numeric::KvStorage storage) {
  if (rows_cached == 0 || rows_cached > model.seq_len || block_rows == 0) {
    throw std::invalid_argument("preemption cost: bad rows/block_rows");
  }
  PreemptionCost cost;
  // Swap moves the victim's whole block-table bytes twice: spill at
  // eviction, rescatter at restore. Partial tail blocks travel whole —
  // the same bytes KvCache::swap_out actually copies, at the pool's
  // stored width (quantized storage tilts victim selection toward swap
  // exactly as the executed spill shrinks).
  const KvFootprint fp =
      estimate_kv_footprint(model, rows_cached, block_rows, storage);
  cost.swap_bytes = 2 * fp.paged_bytes;
  const hw::HbmModel hbm;
  const uint32_t channels =
      std::min(config.synth.hbm_channels_used, hbm.config().channels);
  const double fmax = hw::fmax_mhz(config.synth);
  cost.swap_ms =
      hw::cycles_to_ms(hbm.load_cycles(cost.swap_bytes, channels), fmax);
  // Drop-and-recompute re-runs the cached rows through the stack. The
  // replay is chunked (prompt pass + fed-token pass) but every cycle
  // model here is row-wise, so one prefill-shaped estimate is exact.
  const PerfReport recompute =
      estimate_decoder_performance(config, model, rows_cached, memory_len);
  cost.recompute_macs = recompute.macs;
  cost.recompute_ms = recompute.latency_ms;
  cost.prefer_swap = cost.swap_ms < cost.recompute_ms;
  return cost;
}

}  // namespace protea::accel
