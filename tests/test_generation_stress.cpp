// Randomized stress/property tests for continuous batching on the serving
// engine: mixed prompt lengths, staggered admission, early finishes, slot
// reuse and shared-pool block exhaustion, run with fixed seeds. The
// invariant throughout: every scheduling mode — stepped or threaded,
// roomy or starved pool, any block size, chunked or one-shot prefill —
// emits token-for-token (bit-for-bit) the results of the dense solo
// reference (generate_solo), because per-sequence work is
// scheduling-invariant and the int8 datapath is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/traffic.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

struct StressFixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit StressFixture(uint64_t seed = 500) {
    cfg.seq_len = 12;
    cfg.d_model = 48;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(8, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }
};

/// Builds a FRESH randomized request mix from `seed` — fresh because
/// early-EOS requests carry a countdown that must restart for every
/// scheduler run (the callback sequence is per-request deterministic, so
/// identical counters give identical runs). The mix covers: prompt
/// lengths 1..seq_len-2, max_new 0..6, early EOS, and one
/// capacity-edge request (prefix + max_new == seq_len + 1).
std::vector<runtime::GenerationRequest> build_requests(
    const StressFixture& fx, size_t count, uint64_t seed) {
  const uint32_t d = fx.cfg.d_model;
  std::vector<runtime::GenerationRequest> requests;
  util::Xoshiro256 rng(seed);
  for (size_t i = 0; i < count; ++i) {
    runtime::GenerationRequest req;
    const size_t prefix_rows = 1 + rng.next() % (fx.cfg.seq_len - 2);
    req.prefix = random_input(prefix_rows, d, seed + 10 + i);
    req.memory = &fx.memory;
    // Clamp to the request bound: prefix + max_new <= seq_len + 1.
    req.max_new_tokens = static_cast<uint32_t>(
        std::min<size_t>(rng.next() % 7, fx.cfg.seq_len + 1 - prefix_rows));
    if (i == 0) {  // capacity edge: wants one more token than cache rows
      req.prefix = random_input(fx.cfg.seq_len, d, seed + 10 + i);
      req.max_new_tokens = 1;
    }
    // Deterministic pure token policy: feed a scaled copy back. Every
    // third request finishes early through the callback (EOS).
    const float scale = 0.25f + 0.05f * static_cast<float>(i % 5);
    const int eos_after =
        (i % 3 == 2) ? static_cast<int>(rng.next() % 3) : -1;
    auto countdown = std::make_shared<int>(eos_after);
    req.next_token = [d, scale, countdown](std::span<const float> state,
                                           tensor::MatrixF& next) {
      if (*countdown == 0) return false;
      if (*countdown > 0) --*countdown;
      if (next.rows() != 1 || next.cols() != d) {
        next = tensor::MatrixF(1, d);
      }
      for (size_t c = 0; c < d; ++c) next(0, c) = scale * state[c];
      return true;
    };
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Same scrubbed mix as build_requests, wrapped for the engine (all
/// arrive at round 0 in one priority class: FCFS by submission order).
std::vector<runtime::TrafficRequest> build_traffic(const StressFixture& fx,
                                                   size_t count,
                                                   uint64_t seed) {
  auto gens = build_requests(fx, count, seed);
  std::vector<runtime::TrafficRequest> out(gens.size());
  for (size_t i = 0; i < gens.size(); ++i) out[i].gen = std::move(gens[i]);
  return out;
}

/// The oracle: every request served alone on a dense cache.
std::vector<runtime::GenerationResult> solo_reference(const StressFixture& fx,
                                                      size_t count,
                                                      uint64_t seed) {
  std::vector<runtime::GenerationResult> out;
  for (const auto& req : build_requests(fx, count, seed)) {
    out.push_back(runtime::generate_solo(
        fx.acfg, fx.qd, req, runtime::GenerationOptions{.kv_block_rows = 0}));
  }
  return out;
}

runtime::TrafficOptions engine_options(size_t slots, size_t block_rows,
                                       size_t pool_blocks) {
  runtime::TrafficOptions opts;
  opts.slots = slots;
  opts.kv_block_rows = block_rows;
  opts.kv_pool_blocks = pool_blocks;
  return opts;
}

void expect_same_results(const std::vector<runtime::TrafficResult>& got,
                         const std::vector<runtime::GenerationResult>& want,
                         const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].outcome, runtime::TrafficOutcome::kCompleted)
        << what << " request " << i << ": " << got[i].shed_reason;
    EXPECT_EQ(got[i].steps, want[i].steps) << what << " request " << i;
    ASSERT_EQ(got[i].states, want[i].states) << what << " request " << i;
  }
}

TEST(GenerationStress, AllSchedulingModesMatchTokenForToken) {
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  constexpr size_t kRequests = 10;
  constexpr uint64_t kSeed = 600;
  const auto expected = solo_reference(fx, kRequests, kSeed);

  // Stepped, multi-slot, a pool backing every seat at full capacity.
  const size_t full = util::ceil_div<size_t>(fx.cfg.seq_len, 4);
  expect_same_results(
      engine.run(build_traffic(fx, kRequests, kSeed),
                 engine_options(4, 4, 4 * full)),
      expected, "stepped/roomy");
  EXPECT_EQ(engine.last_run().prefill_chunks, kRequests);

  // Stepped, a contended shared pool + chunked prefill.
  auto shared = engine_options(4, 4, 16);
  shared.prefill_chunk = 3;
  expect_same_results(engine.run(build_traffic(fx, kRequests, kSeed), shared),
                      expected, "stepped/shared/chunked");
  EXPECT_GT(engine.last_run().prefill_chunks, kRequests);

  // Threaded continuous batching over the module-slot semaphores (the
  // paper's single two-stage accelerator), shared pool.
  auto threaded = engine_options(4, 4, 16);
  threaded.threads = 4;
  threaded.mha_slots = 1;
  threaded.ffn_slots = 1;
  expect_same_results(
      engine.run(build_traffic(fx, kRequests, kSeed), threaded), expected,
      "threaded/shared");
  EXPECT_EQ(engine.last_run().prefill_chunks, kRequests);
}

TEST(GenerationStress, BlockExhaustionDefersAdmissionWithoutCorruption) {
  // Shared pool sized for ~1.5 worst-case sequences: admissions must
  // WAIT for retiring sequences' blocks (kv_block_waits > 0) and the
  // outputs must still match the solo reference exactly.
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  constexpr size_t kRequests = 8;
  constexpr uint64_t kSeed = 700;
  const auto expected = solo_reference(fx, kRequests, kSeed);

  // One request can need up to 6 two-row blocks.
  const auto starved = engine_options(4, 2, 9);
  expect_same_results(engine.run(build_traffic(fx, kRequests, kSeed), starved),
                      expected, "stepped/starved");
  const runtime::SchedulerStats stats = engine.last_run();
  EXPECT_GT(stats.total(&runtime::TrafficClassStats::kv_block_waits), 0u);
  EXPECT_LE(stats.kv_blocks_peak, 9u);

  // Same starvation level, threaded: pool mutations stay
  // coordinator-serial, so the run completes with identical outputs
  // and the identical wait/preemption schedule.
  auto starved_threaded = starved;
  starved_threaded.threads = 4;
  starved_threaded.mha_slots = 2;
  starved_threaded.ffn_slots = 2;
  expect_same_results(
      engine.run(build_traffic(fx, kRequests, kSeed), starved_threaded),
      expected, "threaded/starved");
  const auto& threaded_stats = engine.last_run();
  EXPECT_EQ(threaded_stats.total(&runtime::TrafficClassStats::kv_block_waits),
            stats.total(&runtime::TrafficClassStats::kv_block_waits));
  EXPECT_EQ(threaded_stats.total(&runtime::TrafficClassStats::preemptions),
            stats.total(&runtime::TrafficClassStats::preemptions));
  EXPECT_EQ(threaded_stats.rounds, stats.rounds);
}

TEST(GenerationStress, SlotReuseAcrossManySequences) {
  // 12 requests through 2 slots: each slot serves ~6 sequences
  // back-to-back, recycling its session storage and blocks every time.
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  constexpr size_t kRequests = 12;
  constexpr uint64_t kSeed = 800;
  const auto expected = solo_reference(fx, kRequests, kSeed);

  expect_same_results(
      engine.run(build_traffic(fx, kRequests, kSeed), engine_options(2, 3, 10)),
      expected, "two-slot reuse");
  EXPECT_EQ(engine.last_run().prefill_chunks, kRequests);
  EXPECT_LE(engine.last_run().max_active, 2u);
}

TEST(GenerationStress, FixedSeedRunsAreReproducible) {
  // The engine is deterministic end to end: two runs from the same seed
  // produce identical schedules and identical bits, including under
  // backpressure.
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  auto opts = engine_options(3, 2, 12);
  opts.prefill_chunk = 2;

  const auto first = engine.run(build_traffic(fx, 9, 900), opts);
  const runtime::SchedulerStats stats_first = engine.last_run();
  const auto second = engine.run(build_traffic(fx, 9, 900), opts);
  const auto& stats_second = engine.last_run();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].outcome, second[i].outcome) << i;
    EXPECT_EQ(first[i].steps, second[i].steps) << i;
    ASSERT_EQ(first[i].states, second[i].states) << i;
    EXPECT_EQ(first[i].admitted_round, second[i].admitted_round) << i;
    EXPECT_EQ(first[i].retired_round, second[i].retired_round) << i;
    EXPECT_EQ(first[i].preemptions, second[i].preemptions) << i;
  }
  EXPECT_EQ(stats_first.rounds, stats_second.rounds);
  EXPECT_EQ(stats_first.decode_steps, stats_second.decode_steps);
  EXPECT_EQ(stats_first.prefill_chunks, stats_second.prefill_chunks);
  EXPECT_EQ(stats_first.replayed_rows, stats_second.replayed_rows);
  EXPECT_EQ(stats_first.total(&runtime::TrafficClassStats::kv_block_waits),
            stats_second.total(&runtime::TrafficClassStats::kv_block_waits));
}

}  // namespace
}  // namespace protea
