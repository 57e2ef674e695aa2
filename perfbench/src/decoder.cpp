// decode_fleet and prefix_storm: TrafficEngine passes over a seeded
// batch of greedy requests, each pass submitted at once (arrival round
// 0) into a closed system of `slots` seats, served by one engine thread.
//
// Request SHAPES (prompt/output lengths, system-prompt choice) come from
// a fixed per-workload seed and request VALUES (weights, tokens,
// memories) from --seed, so every count- and model-domain metric is the
// same for any seed while the numbers flowing through the kernels vary.
#include <algorithm>
#include <cstring>
#include <memory>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "bench.hpp"
#include "ref/decoder.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/prefix_cache.hpp"
#include "runtime/traffic.hpp"

namespace perfbench {
namespace {

using namespace protea;

constexpr size_t kVocab = 512;
constexpr size_t kMemoryRows = 32;
constexpr size_t kRequests = 48;
constexpr size_t kSlots = 8;
// One engine thread. On a 4-vCPU KVM guest of a shared host, a second
// busy engine thread let the host steal 11-14% of the guest's CPU time
// (about 1% with one thread) and widened the run-to-run spread of
// decode_fleet tok_s about fourfold.
constexpr size_t kThreads = 1;
constexpr size_t kBlockRows = 16;
constexpr int kSetups = 9;

struct DecoderSpec {
  const char* name;
  uint64_t shape_seed;
  size_t pool_blocks;
  size_t prefill_chunk;  // 0 = whole prompt in one pass
  bool storm;            // shared system prompts + prefix cache
};

// decode_fleet: 2-8 row prompts, 24-96 greedy tokens, an ample pool.
constexpr DecoderSpec kFleet{"decode_fleet", 0xF1EE7, 64, 0, false};
// prefix_storm: 3 system prompts of 64 rows (4 full blocks) + a 4-16
// row unique tail, 2-6 tokens; 28 blocks forces a few preemptions.
constexpr DecoderSpec kStorm{"prefix_storm", 0x5707A, 28, 32, true};
constexpr size_t kSystemPrompts = 3;
constexpr uint32_t kSystemRows = 64;

ref::ModelConfig decoder_config() {
  ref::ModelConfig cfg;
  cfg.name = "decode_T128_d256";
  cfg.seq_len = 128;
  cfg.d_model = 256;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  return cfg;
}

/// One request's inputs, its reference output and the stamp buffers its
/// next_token callback fills. Buffers are sized before any pass so the
/// callback never allocates.
struct Client {
  std::vector<uint32_t> prompt;
  tensor::MatrixF prefix;
  const tensor::MatrixF* memory = nullptr;
  uint32_t max_new = 0;
  tensor::MatrixF expected;
  std::unique_ptr<runtime::TokenStream> stream;
  std::vector<uint64_t> begin_ns, end_ns;
  size_t calls = 0;
  bool traced = false;

  bool next_token(std::span<const float> state, tensor::MatrixF& next) {
    const uint64_t t0 = traced ? now_ns() : 0;
    const bool more = stream->next_token(state, next);
    if (calls < end_ns.size()) {
      begin_ns[calls] = t0;
      end_ns[calls] = now_ns();
    }
    ++calls;
    return more;
  }
};

struct Inputs {
  ref::ModelConfig cfg = decoder_config();
  ref::DecoderWeights weights;
  tensor::MatrixF calib_target, calib_memory;
  tensor::MatrixF head, embed;
  runtime::VocabModel vocab;
  runtime::DecodePolicy policy;  // greedy, no EOS
  std::vector<tensor::MatrixF> memories;
  std::vector<Client> clients;
};

tensor::MatrixF embed_rows(const tensor::MatrixF& embed,
                           const std::vector<uint32_t>& tokens) {
  tensor::MatrixF m(tokens.size(), embed.cols());
  for (size_t r = 0; r < tokens.size(); ++r) {
    std::copy(embed.row(tokens[r]).begin(), embed.row(tokens[r]).end(),
              m.row(r).begin());
  }
  return m;
}

void make_inputs(const DecoderSpec& spec, uint64_t seed, Inputs& in) {
  const size_t d = in.cfg.d_model;
  in.weights = ref::make_random_decoder_weights(in.cfg, mix_seed(seed, 1));
  Rng values(mix_seed(seed, 2));
  in.calib_target = random_matrix(in.cfg.seq_len, d, values);
  in.calib_memory = random_matrix(kMemoryRows, d, values);
  in.head = random_matrix(kVocab, d, values);
  in.embed = random_matrix(kVocab, d, values);
  in.vocab = {&in.head, &in.embed};

  const auto tokens = [&](size_t n) {
    std::vector<uint32_t> t(n);
    for (uint32_t& x : t) x = values.between(0, kVocab - 1);
    return t;
  };
  std::vector<std::vector<uint32_t>> systems;
  const size_t memories = spec.storm ? kSystemPrompts : kRequests;
  for (size_t i = 0; i < memories; ++i) {
    in.memories.push_back(random_matrix(kMemoryRows, d, values));
    if (spec.storm) systems.push_back(tokens(kSystemRows));
  }

  Rng shapes(spec.shape_seed);
  in.clients.resize(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    Client& c = in.clients[i];
    if (spec.storm) {
      const uint32_t system = shapes.between(0, kSystemPrompts - 1);
      const uint32_t tail = shapes.between(4, 16);
      c.max_new = shapes.between(2, 6);
      c.prompt = systems[system];
      const auto unique = tokens(tail);
      c.prompt.insert(c.prompt.end(), unique.begin(), unique.end());
      c.memory = &in.memories[system];
    } else {
      c.prompt = tokens(shapes.between(2, 8));
      c.max_new = shapes.between(24, 96);
      c.memory = &in.memories[i];
    }
    c.prefix = embed_rows(in.embed, c.prompt);
    c.stream = std::make_unique<runtime::TokenStream>(in.policy, in.vocab,
                                                      in.cfg.seq_len);
    c.begin_ns.assign(c.max_new, 0);
    c.end_ns.assign(c.max_new, 0);
  }
}

/// Where a solo run records its spans: per request, one root "replay"
/// span, one child span per library call, MHA/FFN stages under each call.
struct SoloTrace {
  SpanLog* log = nullptr;
  int64_t request = -1;
};

/// Runs one request alone through `session` with the engine's call
/// sequence (begin, prompt chunks, next_token / decode_step alternation)
/// and returns its output states. With `cache` the begin adopts cached
/// prompt blocks and the prompt is published afterwards.
tensor::MatrixF run_solo(runtime::GenerationSession& session,
                         const Client& c, runtime::TokenStream& stream,
                         size_t chunk, runtime::PrefixCache* cache,
                         SoloTrace trace) {
  SpanLog* log = trace.log;
  const int64_t id = trace.request;
  StageTimer timer(log, id);
  runtime::StageGate* gate = log != nullptr ? &timer : nullptr;
  const SpanScope root(log, "replay", kNoParent, id);
  const auto call = [&](const char* name, uint32_t rows, const auto& fn) {
    const SpanScope span(log, name, root.id(), id, rows);
    timer.set_parent(span.id());
    fn();
  };

  const size_t p = c.prefix.rows();
  const size_t d = c.prefix.cols();
  tensor::MatrixF out(p + c.max_new, d);
  tensor::MatrixF prompt_states(p, d), chunk_states, next(1, d), state(1, d);
  stream.reset(c.prompt);
  size_t done = 0;
  if (cache != nullptr) {
    call("prefill_begin_cached", 0, [&] {
      done = session.prefill_begin_cached(*cache, c.prefix, *c.memory,
                                          prompt_states, gate);
    });
  } else {
    call("prefill_begin", 0,
         [&] { session.prefill_begin(*c.memory, gate); });
  }
  while (done < p) {
    const size_t n = chunk == 0 ? p - done : std::min(chunk, p - done);
    const auto rows = c.prefix.slice_rows(done, n);
    call("prefill_rows", static_cast<uint32_t>(n),
         [&] { session.prefill_rows(rows, chunk_states, gate); });
    for (size_t r = 0; r < n; ++r) {
      std::copy(chunk_states.row(r).begin(), chunk_states.row(r).end(),
                prompt_states.row(done + r).begin());
    }
    done += n;
  }
  if (cache != nullptr) {
    call("publish_prefix", 0, [&] {
      session.publish_prefix(*cache, c.prefix, *c.memory, prompt_states);
    });
  }
  std::copy(prompt_states.flat().begin(), prompt_states.flat().end(),
            out.flat().begin());

  bool more = false;
  if (c.max_new > 0) {
    call("next_token", 0,
         [&] { more = stream.next_token(prompt_states.row(p - 1), next); });
  }
  uint32_t steps = 0;
  while (more && session.position() < session.capacity()) {
    call("decode_step", 1, [&] { session.decode_step(next, state, gate); });
    std::copy(state.row(0).begin(), state.row(0).end(),
              out.row(p + steps).begin());
    if (++steps >= c.max_new) break;
    call("next_token", 0,
         [&] { more = stream.next_token(state.row(0), next); });
  }
  session.end_sequence();
  return steps == c.max_new ? out : out.slice_rows(0, p + steps);
}

/// Dense (kv_block_rows = 0) solo references.
void compute_references(const accel::AccelConfig& config,
                        const accel::QuantizedDecoder& model, Inputs& in) {
  runtime::GenerationOptions dense;
  dense.kv_block_rows = 0;
  runtime::GenerationSession session(config, model, nullptr, dense);
  runtime::TokenStream stream(in.policy, in.vocab, in.cfg.seq_len);
  for (Client& c : in.clients) {
    c.expected = run_solo(session, c, stream, 0, nullptr, {});
  }
}

/// Per-pass counters that must repeat exactly (everything but wall time).
std::vector<runtime::StatSample> count_stats(
    const runtime::SchedulerStats& stats, uint64_t exhaustion) {
  std::vector<runtime::StatSample> out;
  for (runtime::StatSample& s : runtime::flatten_stats(stats)) {
    if (s.metric != "wall_ms") out.push_back(std::move(s));
  }
  out.push_back({"exhaustion_events", static_cast<double>(exhaustion)});
  return out;
}

struct PassTotals {
  uint64_t tokens = 0;
  double wall_s = 0.0;
  double tok_s() const { return wall_s > 0.0 ? tokens / wall_s : 0.0; }
};

Outcome run_decoder(const DecoderSpec& spec, const Options& opts) {
  Outcome result;
  Report& report = result.report;
  Inputs in;
  make_inputs(spec, opts.seed, in);
  const accel::AccelConfig config;

  auto engine = timed_setup(report, kSetups, [&] {
    return std::make_unique<runtime::TrafficEngine>(
        config,
        accel::prepare_decoder(in.weights, in.calib_target, in.calib_memory));
  });
  const accel::QuantizedDecoder& model = engine->model();
  compute_references(config, model, in);

  const ref::ModelConfig& cfg = in.cfg;
  runtime::KvBlockPool pool;
  pool.configure(spec.pool_blocks, kBlockRows,
                 cfg.num_layers * cfg.num_heads * 2 * cfg.head_dim());
  runtime::TrafficOptions topts;
  topts.slots = kSlots;
  topts.threads = kThreads;
  topts.kv_block_rows = kBlockRows;
  topts.kv_pool = &pool;
  topts.prefill_chunk = spec.prefill_chunk;
  topts.prefix_cache = spec.storm;
  topts.recovery = runtime::PreemptionRecovery::kAuto;

  std::vector<runtime::TrafficRequest> requests(in.clients.size());
  for (size_t i = 0; i < in.clients.size(); ++i) {
    Client* c = &in.clients[i];
    requests[i].gen.prefix = c->prefix;
    requests[i].gen.memory = c->memory;
    requests[i].gen.max_new_tokens = c->max_new;
    requests[i].gen.next_token = [c](std::span<const float> state,
                                      tensor::MatrixF& next) {
      return c->next_token(state, next);
    };
  }

  // --- timed passes ---------------------------------------------------------
  std::vector<double> ttft_ms, gap_ms, callback_us;
  PassTotals untraced, traced;
  double traced_callback_s = 0.0;
  std::vector<runtime::StatSample> first_counts;
  runtime::SchedulerStats stats;
  uint64_t exhaustion = 0;
  size_t passes = 0;
  const uint64_t window = now_ns();
  do {
    const bool trace_pass = opts.trace && passes % 2 == 1;
    for (Client& c : in.clients) {
      c.stream->reset(c.prompt);
      c.calls = 0;
      c.traced = trace_pass;
    }
    const uint64_t exhaustion_before = pool.exhaustion_events();
    const uint64_t t0 = now_ns();
    const std::vector<runtime::TrafficResult> results =
        engine->run(requests, topts);
    const uint64_t t1 = now_ns();
    ++passes;

    stats = engine->last_run();
    exhaustion = pool.exhaustion_events() - exhaustion_before;
    const auto counts = count_stats(stats, exhaustion);
    if (first_counts.empty()) {
      first_counts = counts;
    } else if (counts.size() != first_counts.size() ||
               !std::equal(counts.begin(), counts.end(), first_counts.begin(),
                           [](const auto& a, const auto& b) {
                             return a.metric == b.metric && a.value == b.value;
                           })) {
      result.correct = false;
      result.notes.push_back("scheduler counters differ between passes");
    }

    const size_t ttft_from = ttft_ms.size(), gap_from = gap_ms.size();
    PassTotals& totals = trace_pass ? traced : untraced;
    const uint64_t tokens_before = totals.tokens;
    totals.wall_s += static_cast<double>(t1 - t0) * 1e-9;
    int32_t pass_span = kNoParent;
    if (trace_pass) pass_span = result.spans.add({"pass", kNoParent, -1, t0, t1});
    for (size_t i = 0; i < in.clients.size(); ++i) {
      const Client& c = in.clients[i];
      const runtime::TrafficResult& r = results[i];
      ++result.attempted;
      const bool ok = r.outcome == runtime::TrafficOutcome::kCompleted &&
                      r.steps == c.max_new && c.calls == c.max_new &&
                      same_bits(r.states, c.expected);
      if (!ok) {
        ++result.failed;
        continue;
      }
      totals.tokens += c.calls;
      ttft_ms.push_back(static_cast<double>(c.end_ns[0] - t0) * 1e-6);
      for (size_t k = 1; k < c.calls; ++k) {
        gap_ms.push_back(static_cast<double>(c.end_ns[k] - c.end_ns[k - 1]) *
                         1e-6);
      }
      if (trace_pass) {
        const auto id = static_cast<int64_t>(i);
        const int32_t req = result.spans.add(
            {"request", pass_span, id, t0, c.end_ns[c.calls - 1]});
        for (size_t k = 0; k < c.calls; ++k) {
          result.spans.add({"next_token", req, id, c.begin_ns[k], c.end_ns[k]});
          const double us =
              static_cast<double>(c.end_ns[k] - c.begin_ns[k]) * 1e-3;
          callback_us.push_back(us);
          traced_callback_s += us * 1e-6;
        }
      }
    }
    const std::vector<double> pass_ttft(ttft_ms.begin() + ttft_from,
                                        ttft_ms.end());
    const std::vector<double> pass_gap(gap_ms.begin() + gap_from, gap_ms.end());
    result.passes.push_back({static_cast<double>(t1 - t0) * 1e-9,
                             totals.tokens - tokens_before,
                             percentile(pass_ttft, 50), percentile(pass_ttft, 90),
                             percentile(pass_gap, 50), percentile(pass_gap, 99),
                             trace_pass});
  } while (static_cast<double>(now_ns() - window) * 1e-9 < opts.seconds ||
           (opts.trace && passes < 2));

  if (result.failed > 0) {
    result.correct = false;
    result.notes.push_back("outputs differ from the dense solo references");
  }
  PassTotals all = untraced;
  all.tokens += traced.tokens;
  all.wall_s += traced.wall_s;
  report.add("tok_s", all.tok_s(), "tok/s", Domain::kWall, passes);
  report.add("ttft_ms_p50", percentile(ttft_ms, 50), "ms", Domain::kWall,
             ttft_ms.size());
  report.add("ttft_ms_p90", percentile(ttft_ms, 90), "ms", Domain::kWall,
             ttft_ms.size());
  report.add("gap_ms_p50", percentile(gap_ms, 50), "ms", Domain::kWall,
             gap_ms.size());
  report.add("gap_ms_p90", percentile(gap_ms, 90), "ms", Domain::kWall,
             gap_ms.size());
  if (gap_ms.size() >= 1000) {
    report.add("gap_ms_p99", percentile(gap_ms, 99), "ms", Domain::kWall,
               gap_ms.size());
  }
  if (!opts.trace) return result;

  // --- traced-run attribution -------------------------------------------------
  report.add("trace.tok_s_untraced", untraced.tok_s(), "tok/s", Domain::kWall);
  report.add("trace.tok_s_traced", traced.tok_s(), "tok/s", Domain::kWall);
  report.add("trace.overhead_share",
             untraced.tok_s() > 0 ? 1.0 - traced.tok_s() / untraced.tok_s() : 0,
             "ratio", Domain::kWall);
  add_timing(report, "decode_policy.next_token_us", callback_us, "us");
  report.add("decode_policy.busy_share",
             traced.wall_s > 0 ? traced_callback_s / traced.wall_s : 0,
             "ratio", Domain::kWall);

  uint64_t prompt_rows = 0;
  for (const Client& c : in.clients) prompt_rows += c.prefix.rows();
  const double executed_prefill = static_cast<double>(
      prompt_rows - stats.prefix_rows_adopted + stats.replayed_rows);
  const auto count = [&](const char* name, double value) {
    report.add(name, value, "count", Domain::kCount);
  };
  const auto ratio = [&](const char* name, double num, double den) {
    report.add(name, den > 0 ? num / den : 0.0, "ratio", Domain::kCount);
  };
  using TCS = runtime::TrafficClassStats;
  count("traffic.rounds", stats.rounds);
  count("traffic.decode_steps", stats.decode_steps);
  count("traffic.prefill_chunks", stats.prefill_chunks);
  count("traffic.max_active", stats.max_active);
  ratio("traffic.batch_mean", stats.decode_steps, stats.rounds);
  count("traffic.preemptions", stats.total(&TCS::preemptions));
  count("traffic.swap_outs", stats.total(&TCS::swap_outs));
  count("traffic.recomputes", stats.total(&TCS::recomputes));
  count("traffic.replayed_rows", stats.replayed_rows);
  ratio("traffic.replay_share", stats.replayed_rows, executed_prefill);
  count("traffic.kv_block_waits", stats.total(&TCS::kv_block_waits));
  count("kv_cache.blocks_peak", stats.kv_blocks_peak);
  ratio("kv_cache.peak_share", stats.kv_blocks_peak, pool.num_blocks());
  count("kv_cache.exhaustion_events", exhaustion);
  report.add("kv_cache.swap_bytes", stats.swap_bytes, "bytes", Domain::kCount);
  count("prefix_cache.hits", stats.prefix_hits);
  count("prefix_cache.misses", stats.prefix_misses);
  ratio("prefix_cache.hit_ratio", stats.prefix_hits,
        stats.prefix_hits + stats.prefix_misses);
  count("prefix_cache.rows_adopted", stats.prefix_rows_adopted);
  ratio("prefix_cache.adopted_row_share", stats.prefix_rows_adopted,
        prompt_rows);
  count("prefix_cache.cross_kv_hits", stats.cross_kv_hits);
  count("prefix_cache.evictions", stats.prefix_evictions);

  // Model-domain cycles of the workload's decode steps (mean per step).
  double cycles = 0.0;
  uint64_t steps = 0;
  for (const Client& c : in.clients) {
    for (uint32_t k = 0; k < c.max_new; ++k, ++steps) {
      cycles += static_cast<double>(
          accel::estimate_decode_step_performance(
              config, cfg, static_cast<uint32_t>(c.prefix.rows()) + k,
              kMemoryRows)
              .total_cycles);
    }
  }
  report.add("perf_model.decode_step_cycles", cycles / steps, "cycles",
             Domain::kModel);

  // Seat warm-up the engine pays once per seat on every run.
  SpanLog calls;
  const runtime::GenerationOptions seat_opts{.kv_block_rows = kBlockRows,
                                             .kv_pool = &pool,
                                             .prefill_chunk = spec.prefill_chunk};
  for (size_t s = 0; s < kSlots; ++s) {
    const SpanScope span(&calls, "session_build", kNoParent, -1);
    runtime::GenerationSession seat(config, model, nullptr, seat_opts);
  }
  std::vector<double> build_ms = span_us(calls, "session_build");
  for (double& v : build_ms) v *= 1e-3;
  add_timing(report, "generation.session_build_ms", build_ms, "ms");

  // Replay every request's call sequence through the layer publics, on
  // the engine's paged layout, with spans per call and per stage. On the
  // storm the begin adopts the prompts published by earlier requests.
  accel::EngineStats replay_stats;
  SpanLog replay;
  uint64_t replay_tokens = 0;
  bool replay_ok = true;
  runtime::KvBlockPool replay_pool;
  replay_pool.configure(2 * kRequests, kBlockRows, pool.row_bytes());
  runtime::PrefixCache cache;
  if (spec.storm) cache.configure(replay_pool, kBlockRows, cfg.d_model);
  const runtime::GenerationOptions paged{.kv_block_rows = kBlockRows,
                                         .kv_pool = &replay_pool,
                                         .prefill_chunk = spec.prefill_chunk};
  {
    runtime::GenerationSession session(config, model, &replay_stats, paged);
    runtime::TokenStream stream(in.policy, in.vocab, cfg.seq_len);
    for (size_t i = 0; i < in.clients.size(); ++i) {
      const Client& c = in.clients[i];
      replay_ok &= same_bits(
          run_solo(session, c, stream, spec.prefill_chunk,
                   spec.storm ? &cache : nullptr,
                   {&replay, static_cast<int64_t>(i)}),
          c.expected);
      replay_tokens += c.max_new;
    }
  }
  if (spec.storm) {
    // Cross-K/V fill and a swap-out / swap-in round trip of one
    // storm-shaped sequence (system prompt + unique tail), on a session
    // of their own so their MACs stay out of tensor.macs_per_tok.
    const Client& shaped = in.clients[0];
    runtime::GenerationSession micro(config, model, nullptr, paged);
    for (int r = 0; r < 16; ++r) {
      {
        const SpanScope span(&calls, "prefill_begin", kNoParent, -1);
        micro.prefill_begin(*shaped.memory);
      }
      micro.end_sequence();
    }
    tensor::MatrixF states;
    micro.prefill_begin(*shaped.memory);
    micro.prefill_rows(shaped.prefix, states);
    std::vector<int8_t> spill;
    for (int r = 0; r < 16; ++r) {
      size_t cached = 0;
      {
        const SpanScope span(&calls, "swap_out", kNoParent, -1);
        cached = micro.swap_out(spill);
      }
      micro.prefill_begin(*shaped.memory);
      const SpanScope span(&calls, "swap_in", kNoParent, -1);
      replay_ok &= micro.try_swap_in(spill, cached);
    }
    micro.end_sequence();
    cache.clear();
    add_timing(report, "kv_cache.swap_out_us", span_us(calls, "swap_out"),
               "us");
    add_timing(report, "kv_cache.swap_in_us", span_us(calls, "swap_in"),
               "us");
    add_timing(report, "generation.cross_fill_us",
               span_us(calls, "prefill_begin"), "us");
  }
  if (!replay_ok) {
    result.correct = false;
    result.notes.push_back("layer replay differs from the references");
  }

  report.add("tensor.macs_per_tok",
             static_cast<double>(replay_stats.macs) / replay_tokens, "MAC/tok",
             Domain::kCount);
  add_timing(report, "generation.decode_step_us",
             span_us(replay, "decode_step"), "us");
  add_timing(report, "generation.prefill_row_us",
             span_us(replay, "prefill_rows", nullptr, true), "us");
  if (!spec.storm) {
    add_timing(report, "generation.cross_fill_us",
               span_us(replay, "prefill_begin"), "us");
  }
  add_timing(report, "layer_ops.decode_mha_us",
             span_us(replay, "decode_step", "mha"), "us");
  add_timing(report, "layer_ops.decode_ffn_us",
             span_us(replay, "decode_step", "ffn"), "us");
  add_timing(report, "layer_ops.prefill_mha_us_row",
             span_us(replay, "prefill_rows", "mha", true), "us");
  add_timing(report, "layer_ops.prefill_ffn_us_row",
             span_us(replay, "prefill_rows", "ffn", true), "us");
  if (spec.storm) {
    add_timing(report, "prefix_cache.adopt_us",
               span_us(replay, "prefill_begin_cached"), "us");
    add_timing(report, "prefix_cache.publish_us",
               span_us(replay, "publish_prefix"), "us");
  }

  // Contrast checks the workload was designed to show.
  const double decode_share =
      stats.decode_steps / (stats.decode_steps + executed_prefill);
  if (spec.storm) {
    const Metric* hit = report.find("prefix_cache.hit_ratio");
    result.notes.push_back(
        std::string("contrast: hit_ratio >= 0.5 ") +
        (hit->value >= 0.5 ? "holds" : "FAILS") + ", preemptions >= 1 " +
        (stats.total(&TCS::preemptions) >= 1 ? "holds" : "FAILS"));
  } else {
    const bool no_prefix = stats.prefix_hits + stats.prefix_misses +
                               stats.prefix_rows_adopted + stats.cross_kv_hits +
                               stats.prefix_evictions ==
                           0;
    result.notes.push_back(
        std::string("contrast: prefix_cache all 0 ") +
        (no_prefix ? "holds" : "FAILS") + ", preemptions == 0 " +
        (stats.total(&TCS::preemptions) == 0 ? "holds" : "FAILS") +
        ", decode share of executed rows " + std::to_string(decode_share) +
        (decode_share >= 0.9 ? " >= 0.9 holds" : " >= 0.9 FAILS"));
  }

  result.spans.append(replay);
  result.spans.append(calls);
  return result;
}

}  // namespace

Outcome run_decode_fleet(const Options& opts) { return run_decoder(kFleet, opts); }
Outcome run_prefix_storm(const Options& opts) { return run_decoder(kStorm, opts); }

}  // namespace perfbench
