// Extension bench (paper §VI future work): decoder-layer latency as a
// function of target and memory lengths, plus the autoregressive
// generation cost curve — full-recompute (the naive controller reruns
// the whole prefix every step, O(T^2) total work) against the KV-cached
// generation engine (prefill + O(len) incremental steps, O(T) total).
// Emits BENCH_generation.json in the unified record schema, including an
// executed small-model comparison whose outputs are checked bit-identical.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/engines.hpp"
#include "accel/softmax_unit.hpp"
#include "bench_common.hpp"
#include "numeric/fp8.hpp"
#include "ref/decoder.hpp"
#include "ref/model_zoo.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/prefix_cache.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "runtime/workspace_arena.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

/// Greedy argmax against a random vocabulary head (stand-in for the
/// trained output projection).
uint32_t argmax_token(const protea::tensor::MatrixF& head,
                      std::span<const float> state) {
  uint32_t best = 0;
  double best_score = -1e300;
  for (uint32_t v = 0; v < head.rows(); ++v) {
    double score = 0.0;
    for (size_t c = 0; c < state.size(); ++c) {
      score += static_cast<double>(head(v, c)) * state[c];
    }
    if (score > best_score) {
      best_score = score;
      best = v;
    }
  }
  return best;
}

/// One short-mix request: a 2-row random prompt, 2 new tokens, fed back
/// as a scaled copy of the newest state (4 cached rows in all).
protea::runtime::GenerationRequest short_request(
    uint32_t d, const protea::tensor::MatrixF& memory,
    protea::util::Xoshiro256& rng) {
  protea::runtime::GenerationRequest req;
  req.prefix = protea::tensor::MatrixF(2, d);
  for (float& x : req.prefix.flat()) x = static_cast<float>(rng.normal());
  req.memory = &memory;
  req.max_new_tokens = 2;
  req.next_token = [d](std::span<const float> state,
                       protea::tensor::MatrixF& next) {
    if (next.rows() != 1 || next.cols() != d) {
      next = protea::tensor::MatrixF(1, d);
    }
    for (size_t c = 0; c < d; ++c) next(0, c) = 0.5f * state[c];
    return true;
  };
  return req;
}

/// Every request served alone by generate_solo (the engine-independent
/// reference) on the engine's model, with `options`' cache layout.
std::vector<protea::runtime::GenerationResult> solo_reference(
    const protea::runtime::TrafficEngine& engine,
    const std::vector<protea::runtime::TrafficRequest>& requests,
    const protea::runtime::GenerationOptions& options) {
  std::vector<protea::runtime::GenerationResult> out;
  out.reserve(requests.size());
  for (const auto& r : requests) {
    out.push_back(protea::runtime::generate_solo(
        engine.config(), engine.model(), r.gen, options));
  }
  return out;
}

/// Every engine request completed with the reference's exact states.
bool same_outputs(const std::vector<protea::runtime::TrafficResult>& got,
                  const std::vector<protea::runtime::GenerationResult>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].outcome != protea::runtime::TrafficOutcome::kCompleted ||
        got[i].states != want[i].states) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace protea;

  // --ci marks the gated CI invocation (mirroring bench_traffic): the
  // workload is identical — same seeds, same bit-identity gates — and
  // small enough to run on every push; the flag only tags the output.
  // --trace <path> arms runtime telemetry on the executed scheduler mix
  // and writes its Chrome trace-event JSON there.
  bool ci = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--ci") ci = true;
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  runtime::Telemetry telemetry;  // unconfigured = inert
  if (!trace_path.empty()) {
#ifdef PROTEA_TELEMETRY
    telemetry.configure();
#else
    std::fprintf(
        stderr,
        "bench_decoder_scaling: --trace ignored (PROTEA_TELEMETRY off)\n");
    trace_path.clear();
#endif
  }

  const accel::AccelConfig cfg;
  ref::ModelConfig model;
  model.name = "decoder-bert";
  model.seq_len = 128;   // max target length
  model.d_model = 768;
  model.num_heads = 8;
  model.num_layers = 6;
  model.activation = ref::Activation::kGelu;

  std::vector<bench::BenchRecord> records;
  bool identical = true;  // executed cached-vs-full token cross-check

  util::Table table({"Target len", "Memory len", "Latency (ms)", "GOPS",
                     "Self-attn share", "Cross-attn share", "FFN share"});
  table.set_title(
      "EXTENSION (paper SVI) — decoder latency vs target/memory length "
      "(d=768, h=8, N=6)");
  util::CsvWriter csv(bench::results_dir() + "/decoder_scaling.csv",
                      {"target_len", "memory_len", "latency_ms", "gops",
                       "self_cycles", "cross_cycles", "ffn_cycles"});

  for (uint32_t t_len : {16u, 32u, 64u, 128u}) {
    for (uint32_t s_len : {32u, 64u, 128u}) {
      const auto report =
          accel::estimate_decoder_performance(cfg, model, t_len, s_len);
      hw::Cycles self = 0, cross = 0, ffn = 0;
      for (const auto& stage : report.stages) {
        if (stage.name.rfind("self_", 0) == 0 &&
            stage.name != "self_proj") {
          self += stage.total;
        } else if (stage.name.rfind("cross_", 0) == 0 &&
                   stage.name != "cross_proj") {
          cross += stage.total;
        } else {
          ffn += stage.total;
        }
      }
      const auto pct = [&](hw::Cycles c) {
        return bench::fmt(100.0 * static_cast<double>(c) /
                              static_cast<double>(report.layer_cycles),
                          0) +
               "%";
      };
      table.row({std::to_string(t_len), std::to_string(s_len),
                 bench::fmt(report.latency_ms, 1),
                 bench::fmt(report.gops, 1), pct(self), pct(cross),
                 pct(ffn)});
      csv.row({std::to_string(t_len), std::to_string(s_len),
               bench::fmt(report.latency_ms, 3),
               bench::fmt(report.gops, 2), std::to_string(self),
               std::to_string(cross), std::to_string(ffn)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- generation cost: full recompute vs KV cache (cycle model) -----------
  // Full recompute: step t reruns the whole t-row prefix (and reprojects
  // the memory's cross K/V). KV cache: one prefill plus one-row steps.
  util::Table gen({"Tokens", "Full recompute (ms)", "KV-cached (ms)",
                   "Speedup", "MAC ratio"});
  gen.set_title(
      "Greedy generation cost from BOS (memory len 64): naive "
      "full-recompute controller vs KV-cached engine");
  const uint32_t mem_len = 64;
  for (uint32_t total : {8u, 16u, 32u, 64u, 128u}) {
    double full_ms = 0.0;
    uint64_t full_macs = 0;
    for (uint32_t t = 1; t <= total; ++t) {
      const auto step =
          accel::estimate_decoder_performance(cfg, model, t, mem_len);
      full_ms += step.latency_ms;
      full_macs += step.macs;
    }
    const auto cached = accel::estimate_generation_performance(
        cfg, model, /*prefill_len=*/1, total, mem_len);
    const double speedup = full_ms / cached.latency_ms;
    const double mac_ratio = static_cast<double>(full_macs) /
                             static_cast<double>(cached.macs);
    gen.row({std::to_string(total), bench::fmt(full_ms, 1),
             bench::fmt(cached.latency_ms, 1), bench::fmt(speedup, 2),
             bench::fmt(mac_ratio, 2)});
    const std::string name =
        "gen_T" + std::to_string(total) + "_S" + std::to_string(mem_len);
    records.push_back({name, "full_recompute_ms", full_ms, "ms"});
    records.push_back({name, "kv_cached_ms", cached.latency_ms, "ms"});
    records.push_back({name, "model_speedup", speedup, "x"});
    records.push_back({name, "mac_ratio", mac_ratio, "x"});
  }
  std::printf("%s\n", gen.to_string().c_str());

  // --- executed comparison (small model, wall clock + bit-identity) --------
  {
    constexpr uint32_t kVocab = 64;
    ref::ModelConfig small;
    small.name = "decoder-small";
    small.seq_len = 32;
    small.d_model = 128;
    small.num_heads = 4;
    small.num_layers = 2;
    small.activation = ref::Activation::kRelu;

    const auto weights = ref::make_random_decoder_weights(small, 11);
    tensor::MatrixF memory(16, small.d_model);
    tensor::MatrixF calib(small.seq_len, small.d_model);
    util::Xoshiro256 rng(12);
    for (float& x : memory.flat()) {
      x = static_cast<float>(rng.normal());
    }
    for (float& x : calib.flat()) {
      x = static_cast<float>(rng.normal());
    }
    tensor::MatrixF vocab_head(kVocab, small.d_model);
    for (float& x : vocab_head.flat()) {
      x = static_cast<float>(rng.normal());
    }
    tensor::MatrixF embed(kVocab, small.d_model);
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    const auto embed_rows = [&](const std::vector<uint32_t>& tokens) {
      tensor::MatrixF m(tokens.size(), small.d_model);
      for (size_t r = 0; r < tokens.size(); ++r) {
        for (size_t c = 0; c < small.d_model; ++c) {
          m(r, c) = embed(tokens[r], c);
        }
      }
      return m;
    };

    accel::AccelConfig hw_cfg;
    accel::ProteaDecoderAccelerator dec(hw_cfg);
    dec.load_model(accel::prepare_decoder(weights, calib, memory));

    const uint32_t steps = small.seq_len - 1;
    // Full-recompute greedy decode.
    std::vector<uint32_t> full_tokens = {0};
    util::Stopwatch full_watch;
    for (uint32_t t = 0; t < steps; ++t) {
      const auto states = dec.forward(embed_rows(full_tokens), memory);
      full_tokens.push_back(
          argmax_token(vocab_head, states.row(states.rows() - 1)));
    }
    const double full_ms = full_watch.milliseconds();

    // KV-cached greedy decode (prefill BOS, then one row per step). A
    // throwaway prefill first, so the one-time session construction +
    // arena warmup isn't charged to the timed steady-state path.
    std::vector<uint32_t> cached_tokens = {0};
    (void)dec.prefill(embed_rows(cached_tokens), memory);
    util::Stopwatch cached_watch;
    auto states = dec.prefill(embed_rows(cached_tokens), memory);
    cached_tokens.push_back(
        argmax_token(vocab_head, states.row(states.rows() - 1)));
    for (uint32_t t = 1; t < steps; ++t) {
      const auto state =
          dec.decode_step(embed_rows({cached_tokens.back()}));
      cached_tokens.push_back(argmax_token(vocab_head, state.row(0)));
    }
    const double cached_ms = cached_watch.milliseconds();

    identical = full_tokens == cached_tokens;
    std::printf(
        "executed greedy decode, %u steps (d=%u, N=%u): "
        "full recompute %.2f ms, KV-cached %.2f ms (%.2fx), tokens %s\n\n",
        steps, small.d_model, small.num_layers, full_ms, cached_ms,
        full_ms / cached_ms, identical ? "IDENTICAL" : "DIVERGED");
    records.push_back(
        {"exec_T31_d128", "full_recompute_ms", full_ms, "ms"});
    records.push_back({"exec_T31_d128", "kv_cached_ms", cached_ms, "ms"});
    records.push_back(
        {"exec_T31_d128", "wall_speedup", full_ms / cached_ms, "x"});
    records.push_back({"exec_T31_d128", "outputs_bit_identical",
                       identical ? 1.0 : 0.0, "bool"});
  }

  // --- paged KV: footprint model + executed max concurrency ----------------
  // Dense self-K/V reserves the full programmed capacity per slot; the
  // paged layout holds ceil(rows / block_rows) blocks per sequence. For
  // short-sequence mixes the ratio is the extra concurrency a shared
  // block pool admits at equal arena footprint.
  {
    util::Table kv({"Cached rows", "Dense self-KV (KiB)",
                    "Paged self-KV (KiB)", "Footprint ratio"});
    kv.set_title(
        "Self-KV footprint per sequence (d=768, N=6, capacity 128, "
        "16-row blocks): dense slot reservation vs paged blocks");
    const uint32_t kv_block_rows = 16;
    for (uint32_t rows : {8u, 16u, 32u, 64u, 128u}) {
      const auto fp =
          accel::estimate_kv_footprint(model, rows, kv_block_rows);
      const double ratio = static_cast<double>(fp.dense_bytes) /
                           static_cast<double>(fp.paged_bytes);
      kv.row({std::to_string(rows),
              bench::fmt(static_cast<double>(fp.dense_bytes) / 1024.0, 1),
              bench::fmt(static_cast<double>(fp.paged_bytes) / 1024.0, 1),
              bench::fmt(ratio, 2)});
      const std::string name = "kv_footprint_rows" + std::to_string(rows);
      records.push_back({name, "dense_self_bytes",
                         static_cast<double>(fp.dense_bytes), "B"});
      records.push_back({name, "paged_self_bytes",
                         static_cast<double>(fp.paged_bytes), "B"});
      records.push_back({name, "footprint_ratio", ratio, "x"});
    }
    std::printf("%s\n", kv.to_string().c_str());
  }

  // Executed: a short-sequence mix served paged on the serving engine
  // from one shared pool of the self-KV byte budget that holds 4 dense
  // full-capacity slots. A dense slot reserves seq_len rows whatever the
  // sequence length, so that budget holds exactly 4 dense sequences at
  // once — computed, not executed. The engine's executed peak
  // concurrency is the paged record; every paged output must stay bit
  // identical to the dense solo reference.
  {
    ref::ModelConfig small;
    small.name = "decoder-paged";
    small.seq_len = 32;
    small.d_model = 128;
    small.num_heads = 4;
    small.num_layers = 2;
    small.activation = ref::Activation::kRelu;
    const auto weights = ref::make_random_decoder_weights(small, 21);
    tensor::MatrixF memory(8, small.d_model);
    tensor::MatrixF calib(small.seq_len, small.d_model);
    util::Xoshiro256 rng(22);
    for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
    for (float& x : calib.flat()) x = static_cast<float>(rng.normal());

    runtime::TrafficEngine engine(
        accel::AccelConfig{}, accel::prepare_decoder(weights, calib, memory));
    std::vector<runtime::TrafficRequest> requests(48);
    for (auto& req : requests) {  // short mix: 4 rows per sequence
      req.gen = short_request(small.d_model, memory, rng);
    }
    const std::vector<runtime::GenerationResult> dense_results =
        solo_reference(engine, requests, {.kv_block_rows = 0});

    constexpr uint32_t kDenseSlots = 4;
    const uint64_t dense_bytes =
        accel::estimate_kv_footprint(small, small.seq_len, 4).dense_bytes *
        kDenseSlots;

    runtime::TrafficOptions paged;
    paged.kv_block_rows = 4;
    // Equal self-KV budget: (4 slots x 32 rows) / 4-row blocks.
    paged.kv_pool_blocks = kDenseSlots * small.seq_len / paged.kv_block_rows;
    paged.slots = paged.kv_pool_blocks;  // let the pool be the limiter
    paged.telemetry = &telemetry;  // inert unless --trace configured it
    const auto paged_results = engine.run(requests, paged);
    const auto paged_stats = engine.last_run();
    const uint64_t paged_bytes =
        uint64_t{paged.kv_pool_blocks} * paged.kv_block_rows *
        accel::estimate_kv_footprint(small, 1, 1).row_bytes;

    const bool paged_identical = same_outputs(paged_results, dense_results);
    identical = identical && paged_identical;
    const double ratio = static_cast<double>(paged_stats.max_active) /
                         static_cast<double>(kDenseSlots);
    std::printf(
        "executed short-sequence mix (48 x 4 rows, capacity %u): dense %u "
        "concurrent @ %llu KiB, paged %u concurrent @ %llu KiB (%.1fx), "
        "outputs %s\n\n",
        small.seq_len, kDenseSlots,
        static_cast<unsigned long long>(dense_bytes / 1024),
        paged_stats.max_active,
        static_cast<unsigned long long>(paged_bytes / 1024), ratio,
        paged_identical ? "IDENTICAL" : "DIVERGED");
    records.push_back({"paged_concurrency", "dense_max_concurrent",
                       static_cast<double>(kDenseSlots), "seqs"});
    records.push_back({"paged_concurrency", "paged_max_concurrent",
                       static_cast<double>(paged_stats.max_active), "seqs"});
    records.push_back({"paged_concurrency", "concurrency_ratio", ratio,
                       "x"});
    records.push_back({"paged_concurrency", "self_kv_budget_bytes",
                       static_cast<double>(paged_bytes), "B"});
    records.push_back({"paged_concurrency", "kv_blocks_peak",
                       static_cast<double>(paged_stats.kv_blocks_peak),
                       "blocks"});
    records.push_back({"paged_concurrency", "outputs_bit_identical",
                       paged_identical ? 1.0 : 0.0, "bool"});
    // Telemetry from the paged run: full lifecycle recorded, histogram
    // percentiles folded into the same record file, Chrome trace to
    // --trace. The engine stamps events with its virtual round.
    if (telemetry.enabled()) {
      using TE = runtime::TraceEventType;
      identical = identical &&
                  telemetry.trace.count(TE::kAdmit) == requests.size() &&
                  telemetry.trace.count(TE::kComplete) == requests.size();
      for (const auto& s : runtime::metric_samples(telemetry)) {
        records.push_back(
            {"paged_concurrency", s.name + "_" + s.metric, s.value, s.unit});
      }
      if (!trace_path.empty()) {
        const auto events = telemetry.trace.snapshot();
        runtime::write_chrome_trace(trace_path, events);
        std::printf("bench_decoder_scaling: wrote %zu trace events to %s\n",
                    events.size(), trace_path.c_str());
      }
    }
  }

  // --- quantized KV storage: fp8 determinism + fp4-packed concurrency ------
  // fp8 (e4m3) re-encodes stored K/V at the same 1 byte/element as int8 —
  // the datapath win is the fused LUT dequant, so the gate here is
  // reproducibility: paged fp8 decode must equal dense fp8 decode bit for
  // bit, twice. Packed fp4 (e2m1) honestly halves the stored row width,
  // so the SAME pool byte budget as the int8 run above carves twice the
  // blocks and must serve >= 2x the concurrent sequences, executed.
  {
    ref::ModelConfig small;
    small.name = "decoder-quant-kv";
    small.seq_len = 32;
    small.d_model = 128;
    small.num_heads = 4;  // head_dim 32 — even, fp4 packing legal
    small.num_layers = 2;
    small.activation = ref::Activation::kRelu;
    const auto weights = ref::make_random_decoder_weights(small, 31);
    tensor::MatrixF memory(8, small.d_model);
    tensor::MatrixF calib(small.seq_len, small.d_model);
    util::Xoshiro256 rng(32);
    for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
    for (float& x : calib.flat()) x = static_cast<float>(rng.normal());

    runtime::TrafficEngine engine(
        accel::AccelConfig{}, accel::prepare_decoder(weights, calib, memory));
    std::vector<runtime::TrafficRequest> requests(96);
    for (auto& req : requests) {  // short mix: 4 rows per sequence
      req.gen = short_request(small.d_model, memory, rng);
    }

    // Stored row widths straight from the (storage-aware) footprint
    // model — the same figures KvBlockPool carves.
    const uint64_t row_int8 =
        accel::estimate_kv_footprint(small, 1, 1, numeric::KvStorage::kInt8)
            .row_bytes;
    const uint64_t row_fp8 =
        accel::estimate_kv_footprint(small, 1, 1, numeric::KvStorage::kFp8E4M3)
            .row_bytes;
    const uint64_t row_fp4 =
        accel::estimate_kv_footprint(small, 1, 1, numeric::KvStorage::kFp4E2M1)
            .row_bytes;
    const bool widths_ok = row_fp8 == row_int8 && row_fp4 == row_int8 / 2;

    // fp8 reproducibility: dense solo reference vs paged engine runs, and
    // paged run-to-run.
    const auto fp8_dense_results = solo_reference(
        engine, requests,
        {.kv_block_rows = 0, .kv_storage = numeric::KvStorage::kFp8E4M3});
    runtime::TrafficOptions fp8_paged;
    fp8_paged.kv_block_rows = 4;
    fp8_paged.kv_pool_blocks = 32;
    fp8_paged.slots = 32;
    fp8_paged.kv_storage = numeric::KvStorage::kFp8E4M3;
    const auto fp8_paged_a = engine.run(requests, fp8_paged);
    const auto fp8_paged_b = engine.run(requests, fp8_paged);
    const bool fp8_identical =
        same_outputs(fp8_paged_a, fp8_dense_results) &&
        same_outputs(fp8_paged_b, fp8_dense_results);

    // Fixed pool byte budget (the int8 paged run's 4-slot capacity
    // budget): int8 carves 32 blocks, fp4's half-width rows carve 64 —
    // executed concurrency must at least double.
    const uint64_t budget_bytes = uint64_t{32} * 4 * row_int8;
    runtime::TrafficOptions int8_run;
    int8_run.kv_block_rows = 4;
    int8_run.kv_pool_blocks =
        budget_bytes / (4 * row_int8);  // 32 blocks
    int8_run.slots = 96;                // pool is the limiter
    engine.run(requests, int8_run);
    const auto int8_stats = engine.last_run();

    runtime::TrafficOptions fp4_run = int8_run;
    fp4_run.kv_storage = numeric::KvStorage::kFp4E2M1;
    fp4_run.kv_pool_blocks = budget_bytes / (4 * row_fp4);  // 64 blocks
    const auto fp4_a = engine.run(requests, fp4_run);
    const auto fp4_stats = engine.last_run();
    const auto fp4_b = engine.run(requests, fp4_run);
    bool fp4_deterministic = fp4_a.size() == fp4_b.size();
    for (size_t i = 0; fp4_deterministic && i < fp4_a.size(); ++i) {
      fp4_deterministic = fp4_a[i].outcome == fp4_b[i].outcome &&
                          fp4_a[i].states == fp4_b[i].states;
    }
    const double conc_ratio = static_cast<double>(fp4_stats.max_active) /
                              static_cast<double>(int8_stats.max_active);
    const bool fp4_doubles = conc_ratio >= 2.0;

    identical = identical && widths_ok && fp8_identical &&
                fp4_deterministic && fp4_doubles;
    std::printf(
        "quantized KV (96 x 4 rows, %llu KiB pool budget): int8 row %llu B "
        "-> fp8 %llu B, fp4 %llu B; fp8 paged==dense %s; int8 %u concurrent "
        "-> fp4 %u (%.1fx, deterministic %s)\n\n",
        static_cast<unsigned long long>(budget_bytes / 1024),
        static_cast<unsigned long long>(row_int8),
        static_cast<unsigned long long>(row_fp8),
        static_cast<unsigned long long>(row_fp4),
        fp8_identical ? "IDENTICAL" : "DIVERGED", int8_stats.max_active,
        fp4_stats.max_active, conc_ratio, fp4_deterministic ? "yes" : "NO");
    records.push_back({"quant_kv", "row_bytes_int8",
                       static_cast<double>(row_int8), "B"});
    records.push_back({"quant_kv", "row_bytes_fp8",
                       static_cast<double>(row_fp8), "B"});
    records.push_back({"quant_kv", "row_bytes_fp4",
                       static_cast<double>(row_fp4), "B"});
    records.push_back({"quant_kv", "fp8_outputs_bit_identical",
                       fp8_identical ? 1.0 : 0.0, "bool"});
    records.push_back({"quant_kv", "pool_budget_bytes",
                       static_cast<double>(budget_bytes), "B"});
    records.push_back({"quant_kv", "int8_max_concurrent",
                       static_cast<double>(int8_stats.max_active), "seqs"});
    records.push_back({"quant_kv", "fp4_max_concurrent",
                       static_cast<double>(fp4_stats.max_active), "seqs"});
    records.push_back({"quant_kv", "fp4_concurrency_ratio", conc_ratio, "x"});
    records.push_back({"quant_kv", "fp4_deterministic",
                       fp4_deterministic ? 1.0 : 0.0, "bool"});
  }

  // --- COW forking: footprint model + executed beam search -----------------
  // Beam search forks K branches off one prefill. COW shares the prompt
  // lineage once (each beam privately holds only its divergent tail);
  // the eager reference copies the whole lineage per beam. The model
  // table quantifies the bytes saved; the executed run verifies the
  // sharing through pool accounting AND that COW beams emit hypotheses
  // bit-identical to eager-copy caches.
  {
    util::Table fk({"Beams", "Shared blocks", "Private/beam",
                    "COW self-KV (KiB)", "Eager self-KV (KiB)",
                    "Saved by COW"});
    fk.set_title(
        "Forked self-KV footprint (d=768, N=6, prompt 64 + 32 new, "
        "16-row blocks): COW prompt sharing vs eager per-beam copies");
    for (uint32_t beams : {2u, 4u, 8u}) {
      const auto fp = accel::estimate_forked_kv_footprint(
          model, /*prompt_rows=*/64, /*new_rows=*/32, beams,
          /*block_rows=*/16);
      fk.row({std::to_string(beams), std::to_string(fp.shared_blocks),
              std::to_string(fp.private_blocks),
              bench::fmt(static_cast<double>(fp.cow_bytes) / 1024.0, 1),
              bench::fmt(static_cast<double>(fp.eager_bytes) / 1024.0, 1),
              bench::fmt(100.0 * static_cast<double>(fp.bytes_saved) /
                             static_cast<double>(fp.eager_bytes),
                         0) +
                  "%"});
      const std::string name = "fork_footprint_K" + std::to_string(beams);
      records.push_back({name, "cow_self_bytes",
                         static_cast<double>(fp.cow_bytes), "B"});
      records.push_back({name, "eager_self_bytes",
                         static_cast<double>(fp.eager_bytes), "B"});
      records.push_back({name, "cow_bytes_saved",
                         static_cast<double>(fp.bytes_saved), "B"});
    }
    std::printf("%s\n", fk.to_string().c_str());

    const auto beam_perf = accel::estimate_beam_generation_performance(
        cfg, model, /*prefill_len=*/64, /*total_len=*/96, mem_len,
        /*beam_width=*/4);
    records.push_back({"beam4_T96_S64", "model_ms", beam_perf.latency_ms,
                       "ms"});
    records.push_back({"beam4_T96_S64", "model_macs",
                       static_cast<double>(beam_perf.macs), "MACs"});
  }

  // Executed: width-4 beam search on the small model — a COW group on
  // the serving engine against the eager-copy beam_search_solo
  // reference. Gates: identical hypotheses, sharing actually happening
  // (COW peak under both the eager peak and K dense lineages), and the
  // reserve-at-admission bound honored.
  {
    constexpr uint32_t kVocab = 64;
    ref::ModelConfig small;
    small.name = "decoder-beam";
    small.seq_len = 32;
    small.d_model = 128;
    small.num_heads = 4;
    small.num_layers = 2;
    small.activation = ref::Activation::kRelu;
    const auto weights = ref::make_random_decoder_weights(small, 31);
    tensor::MatrixF memory(8, small.d_model);
    tensor::MatrixF calib(small.seq_len, small.d_model);
    util::Xoshiro256 rng(32);
    for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
    for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
    tensor::MatrixF head(kVocab, small.d_model);
    tensor::MatrixF embed(kVocab, small.d_model);
    for (float& x : head.flat()) x = static_cast<float>(rng.normal());
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    const runtime::VocabModel vocab{&head, &embed};
    const auto qd = accel::prepare_decoder(weights, calib, memory);
    std::vector<uint32_t> prompt(12);
    for (size_t i = 0; i < prompt.size(); ++i) {
      prompt[i] = static_cast<uint32_t>(rng.next() % kVocab);
    }

    runtime::BeamSearchOptions opts;
    opts.beam_width = 4;
    opts.max_new_tokens = 8;
    constexpr size_t kBlockRows = 4;
    const size_t worst_case_blocks = runtime::beam_worst_case_blocks(
        prompt.size(), opts.max_new_tokens, opts.beam_width, kBlockRows);

    // COW: the group rides the serving engine alone, so the run's pool
    // peak and COW copies are the group's. The pool is twice the
    // admission bound, so a peak past the bound fails the gate below
    // instead of being capped by the pool.
    runtime::KvBlockPool cow_pool;
    cow_pool.configure(2 * worst_case_blocks, kBlockRows,
                       size_t{small.num_layers} * small.num_heads * 2 *
                           small.head_dim());
    runtime::BeamSearch cow_beam(opts, vocab);
    cow_beam.reset(prompt);
    std::vector<runtime::TrafficRequest> beam_reqs(1);
    beam_reqs[0].gen.prefix = tensor::MatrixF(prompt.size(), small.d_model);
    for (size_t r = 0; r < prompt.size(); ++r) {
      std::copy(embed.row(prompt[r]).begin(), embed.row(prompt[r]).end(),
                beam_reqs[0].gen.prefix.row(r).begin());
    }
    beam_reqs[0].gen.memory = &memory;
    beam_reqs[0].gen.max_new_tokens = opts.max_new_tokens;
    beam_reqs[0].beam = &cow_beam;
    runtime::TrafficOptions beam_serve;
    beam_serve.slots = opts.beam_width;
    beam_serve.kv_block_rows = kBlockRows;
    beam_serve.kv_pool = &cow_pool;
    runtime::TrafficEngine beam_engine(cfg, qd);
    util::Stopwatch cow_watch;
    beam_engine.run(beam_reqs, beam_serve);
    const double cow_ms = cow_watch.milliseconds();
    const auto cow_hyps = cow_beam.hypotheses();
    const uint64_t cow_peak = beam_engine.last_run().kv_blocks_peak;
    const uint64_t cow_copies = cow_pool.cow_copies();

    // Eager: the one-thread reference, every fork a full lineage copy.
    runtime::BeamSearch eager_beam(opts, vocab);
    accel::EngineStats eager_stats;
    const auto eager_hyps =
        runtime::beam_search_solo(cfg, qd, prompt, memory, eager_beam,
                                  kBlockRows, &eager_stats);
    const uint64_t eager_peak = eager_stats.kv_blocks_peak;

    bool beams_identical = cow_hyps.size() == eager_hyps.size();
    for (size_t i = 0; beams_identical && i < cow_hyps.size(); ++i) {
      beams_identical = cow_hyps[i].tokens == eager_hyps[i].tokens &&
                        cow_hyps[i].score == eager_hyps[i].score;
    }
    // K dense lineages at the executed shape (the no-sharing baseline).
    const uint64_t dense_equiv_blocks =
        uint64_t{opts.beam_width} *
        ((prompt.size() + opts.max_new_tokens - 1 + kBlockRows - 1) /
         kBlockRows);
    const bool sharing_happened = cow_copies > 0 && cow_peak < eager_peak &&
                                  cow_peak < dense_equiv_blocks &&
                                  cow_peak <= worst_case_blocks;
    identical = identical && beams_identical && sharing_happened;

    std::printf(
        "executed beam search K=4 (prompt 12 + 8 new, 4-row blocks): "
        "engine COW peak %llu blocks vs solo eager %llu (dense-equivalent "
        "%llu), %llu COW copies, %.2f ms, hypotheses %s\n\n",
        static_cast<unsigned long long>(cow_peak),
        static_cast<unsigned long long>(eager_peak),
        static_cast<unsigned long long>(dense_equiv_blocks),
        static_cast<unsigned long long>(cow_copies), cow_ms,
        beams_identical ? "IDENTICAL" : "DIVERGED");
    records.push_back({"beam_cow", "beam_width", 4.0, "beams"});
    records.push_back({"beam_cow", "cow_kv_blocks_peak",
                       static_cast<double>(cow_peak), "blocks"});
    records.push_back({"beam_cow", "eager_kv_blocks_peak",
                       static_cast<double>(eager_peak), "blocks"});
    records.push_back({"beam_cow", "dense_equiv_blocks",
                       static_cast<double>(dense_equiv_blocks), "blocks"});
    records.push_back({"beam_cow", "cow_copies",
                       static_cast<double>(cow_copies), "copies"});
    records.push_back({"beam_cow", "worst_case_blocks",
                       static_cast<double>(worst_case_blocks), "blocks"});
    records.push_back({"beam_cow", "outputs_bit_identical",
                       beams_identical ? 1.0 : 0.0, "bool"});
    records.push_back({"beam_cow", "prompt_sharing_verified",
                       sharing_happened ? 1.0 : 0.0, "bool"});
  }

  // --- block-strided paged decode vs the dense reference -------------------
  // The same quantized model decodes the same token rows through the
  // dense layout (block_rows = 0: contiguous K/V, the bit-exact layout
  // reference) and the paged default (QK/SV stream the block table in
  // place, softmax fused on the i32 accumulator). Steps are timed
  // around T=128; outputs must match bit for bit and the paged session
  // must stream span runs — both folded into the exit gate.
  {
    ref::ModelConfig mid;
    mid.name = "decoder-strided";
    mid.seq_len = 128;  // synthesized maximum: the last timed step's
    mid.d_model = 256;  // self-attention spans the full 128-row prefix
    mid.num_heads = 4;
    mid.num_layers = 2;
    mid.ffn_dim = 256;  // thin FFN keeps the step attention-dominated
    mid.activation = ref::Activation::kRelu;
    const auto weights = ref::make_random_decoder_weights(mid, 41);
    tensor::MatrixF memory(16, mid.d_model);
    tensor::MatrixF calib(mid.seq_len, mid.d_model);
    util::Xoshiro256 rng(42);
    for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
    for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
    const auto qd = accel::prepare_decoder(weights, calib, memory);

    const uint32_t prefix_rows = 95;
    const uint32_t steps = 33;  // decode positions 95..127 inclusive
    tensor::MatrixF prefix(prefix_rows, mid.d_model);
    tensor::MatrixF tokens(steps, mid.d_model);
    for (float& x : prefix.flat()) x = static_cast<float>(rng.normal());
    for (float& x : tokens.flat()) x = static_cast<float>(rng.normal());

    const accel::AccelConfig hw_cfg;  // sessions bind by reference
    accel::EngineStats strided_stats;
    runtime::GenerationOptions dense_opts;
    dense_opts.kv_block_rows = 0;
    runtime::GenerationSession dense(hw_cfg, qd, nullptr, dense_opts);
    runtime::GenerationOptions strided_opts;
    strided_opts.kv_block_rows = 16;
    runtime::GenerationSession strided(hw_cfg, qd, &strided_stats,
                                       strided_opts);

    tensor::MatrixF ds, ss, state;
    dense.prefill(prefix, memory, ds);
    strided.prefill(prefix, memory, ss);
    bool strided_identical = ds == ss;

    // Interleave the timed steps (dense, strided, dense, ...) so both
    // layouts see the same clock/thermal conditions; per-step wall times
    // accumulate separately.
    const uint64_t runs_before = strided_stats.span_runs;
    tensor::MatrixF dstate;
    std::vector<double> dense_samples, strided_samples;
    util::Stopwatch watch;
    for (uint32_t t = 0; t < steps; ++t) {
      const auto token = tokens.slice_rows(t, 1);
      watch.reset();
      dense.decode_step(token, dstate);
      dense_samples.push_back(watch.milliseconds());
      watch.reset();
      strided.decode_step(token, state);
      strided_samples.push_back(watch.milliseconds());
      strided_identical = strided_identical && state == dstate;
    }
    const double dense_ms = bench::median(dense_samples);
    const double strided_ms = bench::median(strided_samples);
    const uint64_t span_runs = strided_stats.span_runs - runs_before;
    strided_identical = strided_identical && span_runs > 0;
    identical = identical && strided_identical;

    std::printf(
        "executed paged decode @ T=128 (%s, d=%u, h=%u, N=%u, 16-row "
        "blocks, %u timed steps): dense %.3f ms/step, block-strided "
        "%.3f ms/step (%llu span runs), outputs %s\n\n",
        ci ? "ci" : "full", mid.d_model, mid.num_heads, mid.num_layers,
        steps, dense_ms, strided_ms,
        static_cast<unsigned long long>(span_runs),
        strided_identical ? "IDENTICAL" : "DIVERGED");
    records.push_back({"decode_T128_d256", "dense_step_ms", dense_ms, "ms"});
    records.push_back(
        {"decode_T128_d256", "strided_step_ms", strided_ms, "ms"});
    records.push_back({"decode_T128_d256", "strided_span_runs",
                       static_cast<double>(span_runs), "runs"});
    records.push_back({"decode_T128_d256", "outputs_bit_identical",
                       strided_identical ? 1.0 : 0.0, "bool"});

    // Isolated attention stage at the same shape (one head, 128 cached
    // rows): span engines straight off the block table vs the contiguous
    // engines over the same rows held densely. The full step above is
    // dominated by weight packing/GEMM work identical in both layouts;
    // this isolates exactly the stage the block-strided path rewrites.
    {
      runtime::KvCache cache;
      runtime::KvCacheOptions kv_opts;
      kv_opts.block_rows = 16;
      const uint32_t rows = 128, dk = mid.head_dim();
      cache.configure(mid.num_layers, mid.num_heads, dk, mid.seq_len,
                      rows, kv_opts);
      cache.begin_sequence(rows);
      if (!cache.try_reserve_rows(rows)) throw std::logic_error("bench kv");
      tensor::MatrixI8 fill(rows, dk);  // every (layer, head)'s K and V
      for (int8_t& x : fill.flat()) {
        x = static_cast<int8_t>(rng.next() % 255 - 127);
      }
      for (size_t l = 0; l < mid.num_layers; ++l) {
        for (size_t h = 0; h < mid.num_heads; ++h) {
          cache.scatter_self(l, h, 0, fill, fill);
        }
      }
      cache.append(rows);

      tensor::MatrixI8 q(1, dk);
      for (int8_t& x : q.flat()) {
        x = static_cast<int8_t>(rng.next() % 255 - 127);
      }
      const auto rq_logit = numeric::make_requant_params(1.0 / (8.0 * dk));
      const auto rq_sv = numeric::make_requant_params(1.0 / 160.0);
      const accel::SoftmaxUnit softmax(0.08);
      runtime::WorkspaceArena ws(1 << 20);
      tensor::MatrixI8 attn(1, rows), scores(1, dk);
      tensor::MatrixI8 attn_ref(1, rows), scores_ref(1, dk);

      const uint32_t reps = 300;
      std::vector<double> span_us, contiguous_us;
      for (uint32_t r = 0; r < reps; ++r) {
        const size_t layer = r % mid.num_layers;
        const size_t head = r % mid.num_heads;
        watch.reset();
        {
          const auto m = ws.mark();
          auto k_runs =
              ws.span_of<tensor::RowSpanI8>(cache.max_self_span_runs(rows));
          auto v_runs =
              ws.span_of<tensor::RowSpanI8>(cache.max_self_span_runs(rows));
          const auto k = cache.self_spans(layer, head, 0, rows, k_runs);
          const auto v = cache.self_spans(layer, head, 1, rows, v_runs);
          accel::run_qk_softmax_engine(q, k, rq_logit, softmax, rows - 1,
                                       attn, ws);
          accel::run_sv_engine(attn, v, rq_sv, scores, ws);
          ws.rewind(m);
        }
        span_us.push_back(watch.microseconds());
        watch.reset();
        {
          const auto m = ws.mark();
          auto logits = ws.matrix_i8(1, rows);
          accel::run_qk_engine(q, fill, rq_logit, logits, ws);
          softmax.run_causal_into(logits, attn_ref, rows - 1);
          accel::run_sv_engine(attn_ref, fill, rq_sv, scores_ref, ws);
          ws.rewind(m);
        }
        contiguous_us.push_back(watch.microseconds());
        strided_identical =
            strided_identical && attn == attn_ref && scores == scores_ref;
      }
      const double span_med = bench::median(span_us);
      const double contiguous_med = bench::median(contiguous_us);
      identical = identical && strided_identical;
      std::printf(
          "isolated attention stage (1 head, %u cached rows, dk=%u, "
          "median of %u reps): contiguous %.1f us, block-strided spans "
          "%.1f us, outputs %s\n\n",
          rows, dk, reps, contiguous_med, span_med,
          strided_identical ? "IDENTICAL" : "DIVERGED");
      records.push_back(
          {"attn_stage_T128", "contiguous_stage_us", contiguous_med, "us"});
      records.push_back(
          {"attn_stage_T128", "strided_stage_us", span_med, "us"});
    }
  }

  // --- cross-request prefix cache: shared-document fleet, cold vs warm -----
  // Six requests share one 12-row document prefix (75% of each 16-row
  // prompt) over one encoder memory. The cold pass prefills every prompt
  // from scratch; the warm pass routes the same prompts through a
  // PrefixCache, so request 0 publishes and requests 1..5 adopt the
  // document blocks by refcount and reuse the cached cross projections.
  // Exit gates: warm outputs bit-identical to cold (prefill AND decode),
  // each adopter's executed cold-minus-warm prefill MAC delta EXACTLY
  // equals estimate_prefix_cache_savings, aggregate adopter prefill MACs
  // cut by >= 2x, and a nonzero hit rate.
  {
    ref::ModelConfig small;
    small.name = "decoder-prefix";
    small.seq_len = 32;
    small.d_model = 128;
    small.num_heads = 4;
    small.num_layers = 2;
    small.activation = ref::Activation::kRelu;
    const auto weights = ref::make_random_decoder_weights(small, 51);
    tensor::MatrixF memory(8, small.d_model);
    tensor::MatrixF calib(small.seq_len, small.d_model);
    util::Xoshiro256 rng(52);
    for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
    for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
    const auto qd = accel::prepare_decoder(weights, calib, memory);
    const accel::AccelConfig hw_cfg;

    constexpr size_t kRequests = 6;
    constexpr uint32_t kDocRows = 12;   // shared prefix (75% overlap)
    constexpr uint32_t kTailRows = 4;   // unique per request
    constexpr uint32_t kPromptRows = kDocRows + kTailRows;
    constexpr size_t kBlockRows = 4;
    constexpr size_t kChunk = 3;
    constexpr uint32_t kDecodeSteps = 2;
    tensor::MatrixF doc(kDocRows, small.d_model);
    for (float& x : doc.flat()) x = static_cast<float>(rng.normal());
    std::vector<tensor::MatrixF> prompts;
    for (size_t i = 0; i < kRequests; ++i) {
      tensor::MatrixF p(kPromptRows, small.d_model);
      for (uint32_t r = 0; r < kDocRows; ++r) {
        for (size_t c = 0; c < small.d_model; ++c) p(r, c) = doc(r, c);
      }
      for (uint32_t r = kDocRows; r < kPromptRows; ++r) {
        for (size_t c = 0; c < small.d_model; ++c) {
          p(r, c) = static_cast<float>(rng.normal());
        }
      }
      prompts.push_back(std::move(p));
    }
    // Chunked tail feed shared by both passes (same schedule the
    // scheduler runs, so the MAC model replays it exactly).
    const auto feed_tail = [&](runtime::GenerationSession& s,
                               const tensor::MatrixF& prompt, size_t from,
                               tensor::MatrixF& states) {
      tensor::MatrixF chunk_out;
      for (size_t pos = from; pos < prompt.rows();) {
        const size_t n = kChunk == 0 ? prompt.rows() - pos
                                     : std::min(kChunk, prompt.rows() - pos);
        s.prefill_rows(prompt.slice_rows(pos, n), chunk_out);
        for (size_t r = 0; r < n; ++r) {
          for (size_t c = 0; c < small.d_model; ++c) {
            states(pos + r, c) = chunk_out(r, c);
          }
        }
        pos += n;
      }
    };
    const auto next_token = [&](std::span<const float> state,
                                tensor::MatrixF& next) {
      if (next.rows() != 1 || next.cols() != small.d_model) {
        next = tensor::MatrixF(1, small.d_model);
      }
      for (size_t c = 0; c < small.d_model; ++c) next(0, c) = 0.5f * state[c];
    };

    // Cold pass: private sessions, no cache. Per-request prefill MACs.
    std::vector<tensor::MatrixF> cold_states(kRequests);
    std::vector<std::vector<tensor::MatrixF>> cold_decodes(kRequests);
    std::vector<uint64_t> cold_macs(kRequests, 0);
    for (size_t i = 0; i < kRequests; ++i) {
      accel::EngineStats st;
      runtime::GenerationOptions opts;
      opts.kv_block_rows = kBlockRows;
      opts.prefill_chunk = kChunk;
      runtime::GenerationSession s(hw_cfg, qd, &st, opts);
      cold_states[i] = tensor::MatrixF(kPromptRows, small.d_model);
      s.prefill_begin(memory);
      feed_tail(s, prompts[i], 0, cold_states[i]);
      cold_macs[i] = st.macs;
      tensor::MatrixF token, state;
      next_token(cold_states[i].row(kPromptRows - 1), token);
      for (uint32_t t = 0; t < kDecodeSteps; ++t) {
        s.decode_step(token, state);
        cold_decodes[i].push_back(state);
        next_token(state.row(0), token);
      }
      s.end_sequence();
    }

    // Warm pass: one shared pool + PrefixCache across the fleet.
    runtime::KvBlockPool pool;
    pool.configure(/*num_blocks=*/64, kBlockRows,
                   accel::estimate_kv_footprint(small, 1, 1).row_bytes);
    runtime::PrefixCache cache;
    cache.configure(pool, kBlockRows, small.d_model);
    bool prefix_identical = true;
    bool model_match = true;
    uint64_t warm_hit_macs = 0, cold_hit_macs = 0;
    size_t adopters = 0;
    for (size_t i = 0; i < kRequests; ++i) {
      accel::EngineStats st;
      runtime::GenerationOptions opts;
      opts.kv_block_rows = kBlockRows;
      opts.kv_pool = &pool;
      opts.prefill_chunk = kChunk;
      runtime::GenerationSession s(hw_cfg, qd, &st, opts);
      tensor::MatrixF states(kPromptRows, small.d_model);
      bool cross_hit = false;
      const size_t adopted = s.prefill_begin_cached(
          cache, prompts[i], memory, states, nullptr, &cross_hit);
      feed_tail(s, prompts[i], adopted, states);
      const uint64_t warm_macs = st.macs;
      s.publish_prefix(cache, prompts[i], memory, states);
      prefix_identical = prefix_identical && states == cold_states[i];
      tensor::MatrixF token, state;
      next_token(states.row(kPromptRows - 1), token);
      for (uint32_t t = 0; t < kDecodeSteps; ++t) {
        s.decode_step(token, state);
        prefix_identical = prefix_identical && state == cold_decodes[i][t];
        next_token(state.row(0), token);
      }
      s.end_sequence();
      if (adopted > 0) {
        ++adopters;
        warm_hit_macs += warm_macs;
        cold_hit_macs += cold_macs[i];
        accel::GenerationCosting costing;
        costing.prefill_chunk = kChunk;
        costing.adopted_rows = static_cast<uint32_t>(adopted);
        costing.cross_cached = cross_hit;
        const auto sv = accel::estimate_prefix_cache_savings(
            hw_cfg, small, kPromptRows, /*memory_len=*/8, costing);
        model_match =
            model_match && cold_macs[i] - warm_macs == sv.macs_saved;
      }
    }
    const auto ps = cache.stats();
    cache.clear();
    const bool pool_drained = pool.used_blocks() == 0;
    const double mac_reduction =
        static_cast<double>(cold_hit_macs) /
        static_cast<double>(std::max<uint64_t>(warm_hit_macs, 1));
    const uint64_t bytes_saved = ps.bytes_adopted + ps.cross_bytes_reused;
    const bool hits_ok = adopters == kRequests - 1 &&
                         ps.prefix_hits == kRequests - 1 &&
                         ps.cross_hits == kRequests - 1;
    identical = identical && prefix_identical && model_match && hits_ok &&
                pool_drained && mac_reduction >= 2.0;

    std::printf(
        "executed prefix-cache fleet (%zu prompts, %u-row shared doc of "
        "%u, %zu-row blocks, %zu-row chunks): %llu/%llu prefix hit/miss, "
        "%llu rows adopted, %llu KV+cross bytes saved, adopter prefill "
        "MACs %.2fx lower (model match %s), outputs %s\n\n",
        kRequests, kDocRows, kPromptRows, kBlockRows, kChunk,
        static_cast<unsigned long long>(ps.prefix_hits),
        static_cast<unsigned long long>(ps.prefix_misses),
        static_cast<unsigned long long>(ps.rows_adopted),
        static_cast<unsigned long long>(bytes_saved), mac_reduction,
        model_match ? "EXACT" : "DIVERGED",
        prefix_identical ? "IDENTICAL" : "DIVERGED");
    records.push_back({"prefix_cache", "prefix_hits",
                       static_cast<double>(ps.prefix_hits), "hits"});
    records.push_back({"prefix_cache", "prefix_misses",
                       static_cast<double>(ps.prefix_misses), "misses"});
    records.push_back({"prefix_cache", "cross_kv_hits",
                       static_cast<double>(ps.cross_hits), "hits"});
    records.push_back({"prefix_cache", "rows_skipped",
                       static_cast<double>(ps.rows_adopted), "rows"});
    records.push_back({"prefix_cache", "bytes_saved",
                       static_cast<double>(bytes_saved), "B"});
    records.push_back({"prefix_cache", "cold_prefill_macs",
                       static_cast<double>(cold_hit_macs), "MACs"});
    records.push_back({"prefix_cache", "warm_prefill_macs",
                       static_cast<double>(warm_hit_macs), "MACs"});
    records.push_back(
        {"prefix_cache", "prefill_mac_reduction", mac_reduction, "x"});
    records.push_back({"prefix_cache", "model_macs_exact",
                       model_match ? 1.0 : 0.0, "bool"});
    records.push_back({"prefix_cache", "outputs_bit_identical",
                       prefix_identical ? 1.0 : 0.0, "bool"});
  }

  bench::write_bench_records("BENCH_generation.json",
                             "bench_decoder_scaling", records);
  std::printf("CSV written to bench_results/decoder_scaling.csv\n");
  // Fail the CI bench step if the cached engine ever diverges from the
  // full-recompute controller in this configuration.
  return identical ? 0 : 1;
}
