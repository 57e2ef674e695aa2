// Domain example: decode policies over one serving stack — greedy,
// seeded sampling and width-K beam search, all against the same
// KV-cached generation engine (runtime/decode_policy.hpp).
//
// Greedy and sampled requests plug into the continuous-batching
// serving engine through TokenStream callbacks (the engine stays
// vocabulary-free); a beam request rides the same engine as one group
// of K seats on copy-on-write KV forking: one prefill of the prompt,
// then every beam adopts the prompt's block table by refcount and pays
// a single block copy at its first divergent append. The run prints the
// pool accounting that makes the sharing visible — K beams at near-1x
// prompt footprint — and cross-checks the COW beams against the
// eager-copy beam_search_solo reference (bit-identical hypotheses).
#include <cstdio>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

int main() {
  using namespace protea;

  constexpr uint32_t kVocab = 48;
  ref::ModelConfig model;
  model.name = "decode-policies";
  model.seq_len = 24;  // max target length
  model.d_model = 64;
  model.num_heads = 4;
  model.num_layers = 2;
  model.activation = ref::Activation::kRelu;

  // Random weights + a float vocab head / embedding table stand-in.
  util::Xoshiro256 rng(77);
  tensor::MatrixF memory(8, model.d_model);
  tensor::MatrixF calib(model.seq_len, model.d_model);
  for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
  for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
  tensor::MatrixF head(kVocab, model.d_model);
  tensor::MatrixF embed(kVocab, model.d_model);
  for (float& x : head.flat()) x = static_cast<float>(rng.normal());
  for (float& x : embed.flat()) x = static_cast<float>(rng.normal() * 0.5);
  const runtime::VocabModel vocab{&head, &embed};

  const auto weights = ref::make_random_decoder_weights(model, 5);
  auto qd = accel::prepare_decoder(weights, calib, memory);
  const accel::AccelConfig hw_config;

  const std::vector<uint32_t> prompt = {7, 3, 19, 4};
  const auto embed_rows = [&](const std::vector<uint32_t>& tokens) {
    tensor::MatrixF m(tokens.size(), model.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      for (size_t c = 0; c < model.d_model; ++c) {
        m(r, c) = embed(tokens[r], c);
      }
    }
    return m;
  };
  const auto print_tokens = [](const char* label,
                               const std::vector<uint32_t>& tokens) {
    std::printf("%-28s", label);
    for (uint32_t t : tokens) std::printf(" %2u", t);
    std::printf("\n");
  };

  // --- greedy + sampled streams through the serving engine -----------------
  // One greedy request plus three sampled ones with different seeds; the
  // per-request TokenStream owns all policy state, so the engine's
  // slot/thread choices cannot change the streams.
  runtime::TrafficEngine engine(hw_config, std::move(qd));
  std::vector<std::unique_ptr<runtime::TokenStream>> streams;
  std::vector<runtime::TrafficRequest> requests;
  for (int i = 0; i < 4; ++i) {
    runtime::DecodePolicy policy;
    if (i > 0) {
      policy.sample = true;
      policy.temperature = 0.9f;
      policy.top_k = 8;
      policy.repetition_penalty = 1.2f;
      policy.seed = 100 + static_cast<uint64_t>(i);
    }
    streams.push_back(
        std::make_unique<runtime::TokenStream>(policy, vocab, 32));
    streams.back()->reset(prompt);
    runtime::TrafficRequest req;
    req.gen.prefix = embed_rows(prompt);
    req.gen.memory = &memory;
    req.gen.max_new_tokens = 10;
    req.gen.next_token = streams.back()->callback();
    requests.push_back(std::move(req));
  }
  runtime::TrafficOptions serve_opts;
  serve_opts.slots = 2;
  serve_opts.kv_block_rows = 4;
  // Two full-capacity sequences' worth of 4-row blocks: nothing waits.
  serve_opts.kv_pool_blocks = serve_opts.slots * model.seq_len / 4;
  engine.run(requests, serve_opts);
  std::printf("decode policies over one engine (prompt: 7 3 19 4)\n\n");
  print_tokens("greedy:", streams[0]->tokens());
  for (int i = 1; i < 4; ++i) {
    char label[64];
    std::snprintf(label, sizeof(label),
                  "sampled (T=0.9 k=8 seed %d):", 100 + i);
    print_tokens(label, streams[i]->tokens());
  }

  // --- width-4 beam search on COW forks, same engine -----------------------
  runtime::BeamSearchOptions beam_opts;
  beam_opts.beam_width = 4;
  beam_opts.max_new_tokens = 10;
  constexpr size_t kBlockRows = 4;
  const size_t bound = runtime::beam_worst_case_blocks(
      prompt.size(), beam_opts.max_new_tokens, beam_opts.beam_width,
      kBlockRows);
  runtime::KvBlockPool beam_pool;  // exactly the group's admission bound
  beam_pool.configure(bound, kBlockRows,
                      size_t{model.num_layers} * model.num_heads * 2 *
                          model.head_dim());
  runtime::BeamSearch beam(beam_opts, vocab);
  beam.reset(prompt);
  std::vector<runtime::TrafficRequest> beam_request(1);
  beam_request[0].gen.prefix = embed_rows(prompt);
  beam_request[0].gen.memory = &memory;
  beam_request[0].gen.max_new_tokens = beam_opts.max_new_tokens;
  beam_request[0].beam = &beam;
  runtime::TrafficOptions beam_serve;
  beam_serve.slots = beam_opts.beam_width;
  beam_serve.kv_block_rows = kBlockRows;
  beam_serve.kv_pool = &beam_pool;
  engine.run(beam_request, beam_serve);
  const auto hyps = beam.hypotheses();

  runtime::BeamSearch eager(beam_opts, vocab);
  accel::EngineStats eager_stats;
  const auto eager_hyps = runtime::beam_search_solo(
      hw_config, engine.model(), prompt, memory, eager, kBlockRows,
      &eager_stats);
  bool identical = hyps.size() == eager_hyps.size();
  for (size_t i = 0; identical && i < hyps.size(); ++i) {
    identical = hyps[i].tokens == eager_hyps[i].tokens;
  }

  std::printf("\nbeam search K=4 (length-normalized scores):\n");
  for (size_t i = 0; i < hyps.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "beam %zu (score %.3f):", i,
                  hyps[i].score);
    print_tokens(label, hyps[i].tokens);
  }
  std::printf(
      "\nCOW pool accounting: peak %llu unique blocks "
      "(admission bound %zu, eager reference %llu), %llu block copies; "
      "hypotheses vs eager-copy caches: %s\n",
      static_cast<unsigned long long>(engine.last_run().kv_blocks_peak),
      bound, static_cast<unsigned long long>(eager_stats.kv_blocks_peak),
      static_cast<unsigned long long>(beam_pool.cow_copies()),
      identical ? "IDENTICAL" : "DIVERGED");
  return identical ? 0 : 1;
}
