// Decode-policy subsystem: logits post-processing + token selection on
// top of the vocabulary-free generation engine.
//
// The generation layer (runtime/generation.hpp) deliberately knows
// nothing about vocabularies: requests carry a next_token callback from
// output states to input embeddings. This subsystem supplies the policy
// side of that contract:
//
//   * LogitsProcessor — the standard serving-stack logits pipeline:
//     repetition penalty (over the emitted history), temperature,
//     top-k and nucleus (top-p) masking. Pure in-place float math with
//     preallocated scratch; masked entries become -inf.
//   * TokenStream — per-request policy state (processor scratch, a
//     seeded util::Xoshiro256, the token history) that turns a (V x d)
//     vocab head + (V x d) embedding table into a
//     GenerationRequest::next_token callback: greedy argmax or seeded
//     stochastic sampling, reproducible for any scheduler interleaving
//     because the RNG is per-request.
//   * BeamSearch — width-K beam-search POLICY with length-normalized
//     (GNMT) scoring: per-request selection state shaped like
//     TokenStream, owning no sessions, pool or threads. TrafficEngine
//     (runtime/traffic.hpp) serves a beam request as one group of
//     beam_width seats whose KV caches fork copy-on-write, so K beams
//     hold the prompt at near-1x footprint. beam_search_solo() is the
//     one reference (one thread, eager block copies): engine == solo
//     checks COW == eager and batched == solo at once.
//
// The vocab head and embedding table are caller-owned float stand-ins
// (as in the benches); their projections run off-accelerator and are
// not part of the engines' MAC accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "accel/engines.hpp"
#include "runtime/generation.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace protea::runtime {

/// Logits shaping + selection knobs. Defaults are a no-op pipeline with
/// greedy selection.
struct DecodePolicy {
  /// Divides logits before masking; must be > 0. Values < 1 sharpen,
  /// > 1 flatten.
  float temperature = 1.0f;
  /// Keep only the k largest logits (0 = off).
  uint32_t top_k = 0;
  /// Nucleus sampling: keep the smallest prefix of the probability-sorted
  /// vocabulary whose mass reaches top_p (1 = off).
  float top_p = 1.0f;
  /// CTRL-style repetition penalty over the emitted history (> 1 demotes
  /// repeats; 1 = off).
  float repetition_penalty = 1.0f;
  /// false = greedy argmax; true = sample from the processed
  /// distribution with the stream's seeded RNG.
  bool sample = false;
  uint64_t seed = 0;
  /// Emitting this token finishes the stream / hypothesis (< 0 = none).
  int64_t eos_token = -1;

  void validate(size_t vocab) const;
};

/// Caller-owned float stand-ins for the output projection and the input
/// embedding table (both V x d_model), the same shapes the benches use.
struct VocabModel {
  const tensor::MatrixF* head = nullptr;
  const tensor::MatrixF* embed = nullptr;

  size_t vocab_size() const { return head != nullptr ? head->rows() : 0; }
  void validate(size_t d_model) const;
};

/// logits[v] = head.row(v) . state (double accumulation, float store).
void project_logits(const tensor::MatrixF& head,
                    std::span<const float> state, std::span<float> logits);

/// In-place log-softmax (double accumulation; -inf entries stay -inf).
void log_softmax_inplace(std::span<float> logits);

/// Greedy selection; the lowest index wins ties, so results are
/// reproducible across platforms.
uint32_t argmax_logit(std::span<const float> logits);

/// Applies repetition penalty -> temperature -> top-k -> top-p in place.
/// Scratch is preallocated at the vocab size, so process() never touches
/// the heap.
class LogitsProcessor {
 public:
  LogitsProcessor(const DecodePolicy& policy, size_t vocab);

  void process(std::span<float> logits,
               std::span<const uint32_t> history);

 private:
  DecodePolicy policy_;
  size_t vocab_;
  std::vector<uint32_t> order_;  // index scratch for top-k / top-p
  std::vector<double> probs_;    // nucleus mass scratch
};

/// Per-request decode-policy state, shaped to plug straight into
/// GenerationRequest::next_token — the engine and its schedulers stay
/// untouched and vocabulary-free. Greedy and sampled streams emit
/// identical tokens for any slot/thread/chunk interleaving because all
/// policy state (RNG, history) lives here, per request.
class TokenStream {
 public:
  /// `max_tokens` sizes the history/token storage so steady-state
  /// selection never allocates.
  TokenStream(const DecodePolicy& policy, const VocabModel& vocab,
              size_t max_tokens);

  /// Starts a fresh stream; `prompt_tokens` seeds the repetition-penalty
  /// history (prompt embeddings themselves are the caller's business).
  void reset(std::span<const uint32_t> prompt_tokens = {});

  /// GenerationRequest::next_token contract: selects the next token from
  /// `state`, writes its embedding into `next` (1 x d) and returns false
  /// when the policy's EOS was emitted.
  bool next_token(std::span<const float> state, tensor::MatrixF& next);

  /// Binds this stream as a GenerationRequest callback (the stream must
  /// outlive the request).
  std::function<bool(std::span<const float>, tensor::MatrixF&)> callback();

  /// Tokens emitted since the last reset (EOS included).
  const std::vector<uint32_t>& tokens() const { return tokens_; }

 private:
  DecodePolicy policy_;
  VocabModel vocab_;
  LogitsProcessor processor_;
  util::Xoshiro256 rng_;
  std::vector<float> logits_;
  std::vector<uint32_t> tokens_;
  std::vector<uint32_t> history_;  // prompt + emitted, for the penalty
};

// --- beam search on copy-on-write KV forking --------------------------------

struct BeamSearchOptions {
  uint32_t beam_width = 4;
  uint32_t max_new_tokens = 1;
  /// GNMT length normalization exponent alpha: hypotheses are ranked by
  /// sum_logprob / ((5 + len) / 6)^alpha. 0 disables normalization.
  float length_penalty = 0.6f;
  /// Logits shaping applied before scoring (temperature, top-k/p
  /// masking, repetition penalty over each beam's own history).
  /// `sample`/`seed` are ignored — beam expansion is exhaustive over the
  /// unmasked vocabulary; `eos_token` finishes a hypothesis.
  DecodePolicy logits;

  void validate() const;
};

struct BeamHypothesis {
  std::vector<uint32_t> tokens;  // generated tokens, EOS included
  double sum_logprob = 0.0;
  double score = 0.0;  // length-normalized
  bool finished = false;  // ended on EOS (vs ran out of budget)
};

/// COW-aware worst-case unique-block bound for a width-K group decoding
/// `max_new_tokens` off a `prompt_rows`-row prefill: the shared prompt
/// lineage counts ONCE, plus each beam's worst-case divergent tail
/// (its blocks past the last fully-shared block, including the COW copy
/// of the straddling block). TrafficEngine reserves it as a group's
/// admission credit, so a running group never comes up short.
size_t beam_worst_case_blocks(size_t prompt_rows, size_t max_new_tokens,
                              size_t beam_width, size_t block_rows);

/// Selection survivor i (its index in the returned span) continues member
/// `source`'s lineage with `token` pending.
struct BeamPick {
  uint32_t source = 0;
  uint32_t token = 0;
};

/// Width-K beam-search policy: the per-request selection state a serving
/// loop drives. After reset() there is one member (the prompt); the
/// driver scores each live member's newest state, calls select(),
/// rebuilds its members from the picks (the first pick of a source takes
/// over its KV cache, each further pick forks it), decodes every
/// member's pending token and repeats until done(). Rounds never
/// allocate.
class BeamSearch {
 public:
  /// `vocab` (head + embedding table) must outlive the policy.
  BeamSearch(const BeamSearchOptions& options, const VocabModel& vocab);

  /// Starts a fresh search; `prompt_tokens` seed every beam's history.
  void reset(std::span<const uint32_t> prompt_tokens);

  /// Projects member `member`'s newest output state through the vocab
  /// head, shapes it by the member's history and log-softmaxes it.
  /// Distinct members may be scored concurrently.
  void score(size_t member, std::span<const float> state);

  /// One selection round over the scored members: ranks every (member,
  /// token) extension by summed log-probability, offers EOS ones to the
  /// finished set and returns the best beam_width others as the next
  /// members (valid until the next select()).
  std::span<const BeamPick> select();

  /// Writes member `member`'s pending (not yet decoded) token embedding
  /// into `next` (1 x d).
  void embed_pending(size_t member, tensor::MatrixF& next) const;
  /// Member `member`'s tokens so far; all but the last (pending) one
  /// are cached in its lineage.
  std::span<const uint32_t> tokens(size_t member) const;

  size_t live() const { return live_; }
  /// Selection rounds run since reset() (tokens chosen per beam).
  uint32_t generated() const { return generated_; }
  bool done() const {
    return live_ == 0 || generated_ >= options_.max_new_tokens;
  }
  /// At most beam_width hypotheses, best score first: the finished ones
  /// plus the live beams scored at their current length.
  std::vector<BeamHypothesis> hypotheses() const;

  const BeamSearchOptions& options() const { return options_; }
  const VocabModel& vocab() const { return vocab_; }
  /// Prompt length of the current search (0 before the first reset()).
  size_t prompt_rows() const { return prompt_rows_; }

 private:
  struct Beam {
    uint32_t pending = 0;  // selected token, decoded next round
    double sum_logprob = 0.0;
    std::vector<uint32_t> tokens;
    std::vector<uint32_t> history;  // prompt + tokens (penalty window)
  };

  double length_norm(size_t len) const;
  void offer_finished(const Beam& beam, uint32_t token, double sum);

  BeamSearchOptions options_;
  VocabModel vocab_;
  size_t prompt_rows_ = 0;
  size_t live_ = 0;
  uint32_t generated_ = 0;
  std::vector<Beam> cur_beams_, next_beams_;
  std::vector<LogitsProcessor> processors_;  // one per member
  tensor::MatrixF logits_;                   // (K x V) per-member scratch
  std::vector<uint64_t> cand_order_;  // flat (member, token) candidates
  std::vector<double> cand_scores_;
  std::vector<BeamPick> picks_;
  std::vector<BeamHypothesis> finished_;  // best-K finished, preallocated
  size_t finished_count_ = 0;
};

/// The beam reference: resets `beam` for `prompt_tokens` and serves it
/// against `memory` on one thread — one prompt prefill, then select /
/// rebuild / decode rounds — on a private pool of `kv_block_rows`-row
/// blocks with EAGER fork copies (two generations of lineages, the
/// double-buffered re-fork order). It shares no code with the serving
/// engine. `stats` optionally collects the sessions' MACs and the pool's
/// block peak. Returns beam.hypotheses().
std::vector<BeamHypothesis> beam_search_solo(
    const accel::AccelConfig& config, const accel::QuantizedDecoder& model,
    std::span<const uint32_t> prompt_tokens, const tensor::MatrixF& memory,
    BeamSearch& beam, size_t kv_block_rows = 16,
    accel::EngineStats* stats = nullptr);

}  // namespace protea::runtime
