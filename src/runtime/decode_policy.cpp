#include "runtime/decode_policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "util/math_util.hpp"

namespace protea::runtime {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

}  // namespace

// --- DecodePolicy / VocabModel ----------------------------------------------

void DecodePolicy::validate(size_t vocab) const {
  if (vocab == 0) {
    throw std::invalid_argument("DecodePolicy: empty vocabulary");
  }
  if (!(temperature > 0.0f)) {
    throw std::invalid_argument("DecodePolicy: temperature must be > 0");
  }
  if (!(top_p > 0.0f) || top_p > 1.0f) {
    throw std::invalid_argument("DecodePolicy: top_p must be in (0, 1]");
  }
  if (!(repetition_penalty > 0.0f)) {
    throw std::invalid_argument(
        "DecodePolicy: repetition_penalty must be > 0");
  }
  if (top_k > vocab) {
    throw std::invalid_argument("DecodePolicy: top_k exceeds vocabulary");
  }
  if (eos_token >= static_cast<int64_t>(vocab)) {
    throw std::invalid_argument("DecodePolicy: eos_token out of range");
  }
}

void VocabModel::validate(size_t d_model) const {
  if (head == nullptr || embed == nullptr) {
    throw std::invalid_argument("VocabModel: head/embed missing");
  }
  if (head->rows() == 0 || head->rows() != embed->rows()) {
    throw std::invalid_argument("VocabModel: head/embed row mismatch");
  }
  if (head->cols() != d_model || embed->cols() != d_model) {
    throw std::invalid_argument("VocabModel: width != d_model");
  }
}

// --- free helpers ------------------------------------------------------------

void project_logits(const tensor::MatrixF& head,
                    std::span<const float> state,
                    std::span<float> logits) {
  if (state.size() != head.cols() || logits.size() != head.rows()) {
    throw std::invalid_argument("project_logits: shape mismatch");
  }
  for (size_t v = 0; v < head.rows(); ++v) {
    double acc = 0.0;
    const auto row = head.row(v);
    for (size_t c = 0; c < row.size(); ++c) {
      acc += static_cast<double>(row[c]) * static_cast<double>(state[c]);
    }
    logits[v] = static_cast<float>(acc);
  }
}

void log_softmax_inplace(std::span<float> logits) {
  float max_l = kNegInf;
  for (float l : logits) max_l = std::max(max_l, l);
  if (max_l == kNegInf) return;  // everything masked: leave as-is
  double sum = 0.0;
  for (float l : logits) {
    if (l != kNegInf) sum += std::exp(static_cast<double>(l - max_l));
  }
  const float log_z = max_l + static_cast<float>(std::log(sum));
  for (float& l : logits) {
    if (l != kNegInf) l -= log_z;
  }
}

uint32_t argmax_logit(std::span<const float> logits) {
  if (logits.empty()) {
    throw std::invalid_argument("argmax_logit: empty logits");
  }
  uint32_t best = 0;
  for (uint32_t v = 1; v < logits.size(); ++v) {
    if (logits[v] > logits[best]) best = v;
  }
  return best;
}

// --- LogitsProcessor ---------------------------------------------------------

LogitsProcessor::LogitsProcessor(const DecodePolicy& policy, size_t vocab)
    : policy_(policy), vocab_(vocab) {
  policy.validate(vocab);
  order_.resize(vocab);
  probs_.resize(vocab);
}

void LogitsProcessor::process(std::span<float> logits,
                              std::span<const uint32_t> history) {
  if (logits.size() != vocab_) {
    throw std::invalid_argument("LogitsProcessor: vocab size mismatch");
  }
  // CTRL-style repetition penalty, applied once per distinct history
  // token: positive logits divide, negative multiply (both demote).
  if (policy_.repetition_penalty != 1.0f && !history.empty()) {
    for (uint32_t t : history) {
      if (t >= vocab_) {
        throw std::invalid_argument(
            "LogitsProcessor: history token out of range");
      }
      order_[t] = 0;  // reuse the index scratch as a seen marker
    }
    // Two passes keep the penalty idempotent for repeated tokens.
    for (uint32_t t : history) {
      if (order_[t] != 0) continue;
      order_[t] = 1;
      float& l = logits[t];
      l = l > 0.0f ? l / policy_.repetition_penalty
                   : l * policy_.repetition_penalty;
    }
  }
  if (policy_.temperature != 1.0f) {
    for (float& l : logits) {
      if (l != kNegInf) l /= policy_.temperature;
    }
  }
  const auto by_logit_desc = [&](uint32_t a, uint32_t b) {
    if (logits[a] != logits[b]) return logits[a] > logits[b];
    return a < b;  // deterministic ties
  };
  if (policy_.top_k > 0 && policy_.top_k < vocab_) {
    for (uint32_t v = 0; v < vocab_; ++v) order_[v] = v;
    std::nth_element(order_.begin(), order_.begin() + policy_.top_k - 1,
                     order_.end(), by_logit_desc);
    for (size_t i = policy_.top_k; i < vocab_; ++i) {
      logits[order_[i]] = kNegInf;
    }
  }
  if (policy_.top_p < 1.0f) {
    // Nucleus: keep the smallest probability-sorted prefix whose mass
    // reaches top_p (always at least the argmax).
    for (uint32_t v = 0; v < vocab_; ++v) order_[v] = v;
    std::sort(order_.begin(), order_.end(), by_logit_desc);
    double sum = 0.0;
    const double max_l = logits[order_[0]];
    if (logits[order_[0]] == kNegInf) return;  // everything masked already
    for (uint32_t v = 0; v < vocab_; ++v) {
      probs_[v] = logits[v] == kNegInf
                      ? 0.0
                      : std::exp(static_cast<double>(logits[v]) - max_l);
      sum += probs_[v];
    }
    double mass = 0.0;
    size_t kept = 0;
    while (kept < vocab_) {
      const uint32_t v = order_[kept];
      if (probs_[v] == 0.0) break;
      mass += probs_[v] / sum;
      ++kept;
      if (mass >= static_cast<double>(policy_.top_p)) break;
    }
    for (size_t i = kept; i < vocab_; ++i) logits[order_[i]] = kNegInf;
  }
}

// --- TokenStream -------------------------------------------------------------

TokenStream::TokenStream(const DecodePolicy& policy,
                         const VocabModel& vocab, size_t max_tokens)
    : policy_(policy),
      vocab_(vocab),
      processor_(policy, vocab.vocab_size()),
      rng_(policy.seed) {
  vocab.validate(vocab.head != nullptr ? vocab.head->cols() : 0);
  logits_.resize(vocab.vocab_size());
  tokens_.reserve(max_tokens);
  history_.reserve(2 * max_tokens);
}

void TokenStream::reset(std::span<const uint32_t> prompt_tokens) {
  tokens_.clear();
  history_.clear();
  for (uint32_t t : prompt_tokens) {
    if (t >= vocab_.vocab_size()) {
      throw std::invalid_argument("TokenStream: prompt token out of range");
    }
    history_.push_back(t);
  }
  rng_ = util::Xoshiro256(policy_.seed);
}

bool TokenStream::next_token(std::span<const float> state,
                             tensor::MatrixF& next) {
  project_logits(*vocab_.head, state, logits_);
  processor_.process(logits_, history_);

  uint32_t token = 0;
  if (!policy_.sample) {
    token = argmax_logit(logits_);
  } else {
    // Seeded CDF walk over the processed distribution (double softmax).
    float max_l = kNegInf;
    for (float l : logits_) max_l = std::max(max_l, l);
    double sum = 0.0;
    for (float l : logits_) {
      if (l != kNegInf) sum += std::exp(static_cast<double>(l - max_l));
    }
    const double r = rng_.next_double() * sum;
    double acc = 0.0;
    token = 0;
    for (uint32_t v = 0; v < logits_.size(); ++v) {
      if (logits_[v] == kNegInf) continue;
      acc += std::exp(static_cast<double>(logits_[v] - max_l));
      token = v;  // last unmasked token backstops rounding
      if (r < acc) break;
    }
  }

  tokens_.push_back(token);
  history_.push_back(token);
  if (policy_.eos_token >= 0 &&
      token == static_cast<uint32_t>(policy_.eos_token)) {
    return false;
  }
  const size_t d = vocab_.embed->cols();
  if (next.rows() != 1 || next.cols() != d) {
    next = tensor::MatrixF(1, d);
  }
  std::copy(vocab_.embed->row(token).begin(),
            vocab_.embed->row(token).end(), next.row(0).begin());
  return true;
}

std::function<bool(std::span<const float>, tensor::MatrixF&)>
TokenStream::callback() {
  return [this](std::span<const float> state, tensor::MatrixF& next) {
    return next_token(state, next);
  };
}

// --- beam search -------------------------------------------------------------

void BeamSearchOptions::validate() const {
  if (beam_width == 0) {
    throw std::invalid_argument("BeamSearchOptions: zero beam width");
  }
  if (max_new_tokens == 0) {
    throw std::invalid_argument("BeamSearchOptions: zero max_new_tokens");
  }
  if (length_penalty < 0.0f) {
    throw std::invalid_argument(
        "BeamSearchOptions: negative length_penalty");
  }
}

size_t beam_worst_case_blocks(size_t prompt_rows, size_t max_new_tokens,
                              size_t beam_width, size_t block_rows) {
  if (prompt_rows == 0 || max_new_tokens == 0 || beam_width == 0 ||
      block_rows == 0) {
    throw std::invalid_argument("beam_worst_case_blocks: zero argument");
  }
  // The last selected token's embedding is never appended, so K beams
  // emitting max_new tokens cache prompt + max_new - 1 rows each.
  const size_t total = prompt_rows + max_new_tokens - 1;
  const size_t full = util::ceil_div(total, block_rows);
  // The prompt lineage is counted once; each beam can privately hold
  // only blocks past the last fully-shared one (its divergent tail plus
  // the write-triggered copy of the straddling block).
  const size_t shared = util::ceil_div(prompt_rows, block_rows);
  const size_t tail = full - prompt_rows / block_rows;
  return shared + beam_width * tail;
}

BeamSearch::BeamSearch(const BeamSearchOptions& options,
                       const VocabModel& vocab)
    : options_(options), vocab_(vocab) {
  options_.validate();
  vocab.validate(vocab.head != nullptr ? vocab.head->cols() : 0);
  const size_t vsize = vocab.vocab_size();
  options_.logits.validate(vsize);
  if (options_.beam_width > vsize) {
    throw std::invalid_argument(
        "BeamSearch: beam width exceeds the vocabulary");
  }
  const size_t k = options_.beam_width;
  cur_beams_.resize(k);  // reset() sizes their storage
  next_beams_.resize(k);
  processors_.reserve(k);
  for (size_t j = 0; j < k; ++j) {
    processors_.emplace_back(options_.logits, vsize);
  }
  logits_ = tensor::MatrixF(k, vsize);
  cand_order_.reserve(k * vsize);
  cand_scores_.resize(k * vsize);
  picks_.reserve(k);
  finished_.resize(k);
  for (BeamHypothesis& h : finished_) {
    h.tokens.reserve(options_.max_new_tokens);
  }
}

void BeamSearch::reset(std::span<const uint32_t> prompt_tokens) {
  if (prompt_tokens.empty()) {
    throw std::invalid_argument("BeamSearch: empty prompt");
  }
  for (uint32_t t : prompt_tokens) {
    if (t >= vocab_.vocab_size()) {
      throw std::invalid_argument("BeamSearch: prompt token out of range");
    }
  }
  for (std::vector<Beam>* beams : {&cur_beams_, &next_beams_}) {
    for (Beam& b : *beams) {
      b.tokens.reserve(options_.max_new_tokens);
      b.history.reserve(prompt_tokens.size() + options_.max_new_tokens);
    }
  }
  // One member — the prompt itself — whose first selection round seeds
  // the beams from the prefill's last state.
  Beam& root = cur_beams_[0];
  root.pending = 0;
  root.sum_logprob = 0.0;
  root.tokens.clear();
  root.history.assign(prompt_tokens.begin(), prompt_tokens.end());
  prompt_rows_ = prompt_tokens.size();
  live_ = 1;
  generated_ = 0;
  finished_count_ = 0;
  picks_.clear();
}

double BeamSearch::length_norm(size_t len) const {
  if (options_.length_penalty == 0.0f) return 1.0;
  return std::pow((5.0 + static_cast<double>(len)) / 6.0,
                  static_cast<double>(options_.length_penalty));
}

void BeamSearch::score(size_t member, std::span<const float> state) {
  if (member >= live_) {
    throw std::out_of_range("BeamSearch::score: no such live member");
  }
  auto logits = logits_.row(member);
  project_logits(*vocab_.head, state, logits);
  processors_[member].process(logits, cur_beams_[member].history);
  log_softmax_inplace(logits);
}

void BeamSearch::offer_finished(const Beam& beam, uint32_t token,
                                double sum) {
  const size_t len = beam.tokens.size() + 1;
  const double score = sum / length_norm(len);
  size_t slot;
  if (finished_count_ < finished_.size()) {
    slot = finished_count_++;
  } else {
    slot = 0;  // replace the worst kept hypothesis if we beat it
    for (size_t i = 1; i < finished_count_; ++i) {
      if (finished_[i].score < finished_[slot].score) slot = i;
    }
    if (finished_[slot].score >= score) return;
  }
  BeamHypothesis& h = finished_[slot];
  h.tokens = beam.tokens;
  h.tokens.push_back(token);
  h.sum_logprob = sum;
  h.score = score;
  h.finished = true;
}

std::span<const BeamPick> BeamSearch::select() {
  if (done()) {
    throw std::logic_error("BeamSearch::select: search is done");
  }
  const size_t k = options_.beam_width;
  const size_t vsize = vocab_.vocab_size();
  // Deterministic candidate ranking over live x vocab.
  cand_order_.clear();
  for (size_t j = 0; j < live_; ++j) {
    for (uint32_t v = 0; v < vsize; ++v) {
      const uint64_t flat = j * vsize + v;
      cand_scores_[flat] =
          cur_beams_[j].sum_logprob + static_cast<double>(logits_(j, v));
      cand_order_.push_back(flat);
    }
  }
  // The selection scan consumes at most K survivors + K EOS offers
  // (EOS is one token id, so each live beam contributes at most one),
  // so only the true top 2K candidates are ever read — partial_sort
  // keeps per-token selection near-linear in live x vocab instead of
  // paying a full sort.
  const auto mid =
      cand_order_.begin() + std::min<size_t>(2 * k, cand_order_.size());
  std::partial_sort(cand_order_.begin(), mid, cand_order_.end(),
                    [&](uint64_t a, uint64_t b) {
                      if (cand_scores_[a] != cand_scores_[b]) {
                        return cand_scores_[a] > cand_scores_[b];
                      }
                      return a < b;
                    });

  picks_.clear();
  const int64_t eos = options_.logits.eos_token;
  for (size_t rank = 0; rank < cand_order_.size() && picks_.size() < k;
       ++rank) {
    const uint64_t flat = cand_order_[rank];
    const size_t j = flat / vsize;
    const uint32_t v = static_cast<uint32_t>(flat % vsize);
    const double sum = cand_scores_[flat];
    if (sum == -std::numeric_limits<double>::infinity()) break;
    if (eos >= 0 && v == static_cast<uint32_t>(eos)) {
      offer_finished(cur_beams_[j], v, sum);
      continue;
    }
    Beam& dst = next_beams_[picks_.size()];
    const Beam& src = cur_beams_[j];
    dst.pending = v;
    dst.sum_logprob = sum;
    dst.tokens = src.tokens;
    dst.tokens.push_back(v);
    dst.history = src.history;
    dst.history.push_back(v);
    picks_.push_back(BeamPick{static_cast<uint32_t>(j), v});
  }
  std::swap(cur_beams_, next_beams_);
  live_ = picks_.size();
  ++generated_;
  return picks_;
}

void BeamSearch::embed_pending(size_t member,
                               tensor::MatrixF& next) const {
  const auto row = vocab_.embed->row(cur_beams_.at(member).pending);
  if (next.rows() != 1 || next.cols() != row.size()) {
    next = tensor::MatrixF(1, row.size());
  }
  std::copy(row.begin(), row.end(), next.row(0).begin());
}

std::span<const uint32_t> BeamSearch::tokens(size_t member) const {
  return cur_beams_.at(member).tokens;
}

std::vector<BeamHypothesis> BeamSearch::hypotheses() const {
  std::vector<BeamHypothesis> out;
  out.reserve(finished_count_ + live_);
  for (size_t i = 0; i < finished_count_; ++i) out.push_back(finished_[i]);
  for (size_t j = 0; generated_ > 0 && j < live_; ++j) {  // not the root
    const Beam& b = cur_beams_[j];
    out.push_back(BeamHypothesis{
        b.tokens, b.sum_logprob,
        b.sum_logprob / length_norm(b.tokens.size()), /*finished=*/false});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const BeamHypothesis& a, const BeamHypothesis& b) {
                     return a.score > b.score;
                   });
  if (out.size() > options_.beam_width) out.resize(options_.beam_width);
  return out;
}

// --- solo reference ----------------------------------------------------------

std::vector<BeamHypothesis> beam_search_solo(
    const accel::AccelConfig& config, const accel::QuantizedDecoder& model,
    std::span<const uint32_t> prompt_tokens, const tensor::MatrixF& memory,
    BeamSearch& beam, size_t kv_block_rows, accel::EngineStats* stats) {
  if (kv_block_rows == 0) {
    throw std::invalid_argument(
        "beam_search_solo: forking requires the paged layout "
        "(kv_block_rows > 0)");
  }
  const ref::ModelConfig& mc = model.config;
  beam.vocab().validate(mc.d_model);
  beam.reset(prompt_tokens);
  const size_t k = beam.options().beam_width;
  GenerationRequest request;
  request.prefix = tensor::MatrixF(prompt_tokens.size(), mc.d_model);
  request.memory = &memory;
  request.max_new_tokens = beam.options().max_new_tokens;
  const tensor::MatrixF& prompt = request.prefix;
  for (size_t r = 0; r < prompt_tokens.size(); ++r) {
    const auto row = beam.vocab().embed->row(prompt_tokens[r]);
    std::copy(row.begin(), row.end(), request.prefix.row(r).begin());
  }
  validate_generation_request(request, mc, config.synth, &beam);

  // Private pool sized for two generations of K full lineages: the
  // current members plus the next generation copied off them.
  const size_t full = util::ceil_div(size_t{mc.seq_len}, kv_block_rows);
  KvBlockPool pool;
  pool.configure(2 * k * full, kv_block_rows,
                 mc.num_layers * mc.num_heads * 2 * mc.head_dim());
  const GenerationOptions session_opts{.kv_block_rows = kv_block_rows,
                                       .kv_pool = &pool};
  std::vector<std::unique_ptr<GenerationSession>> cur, next;
  for (size_t j = 0; j < k; ++j) {
    cur.push_back(std::make_unique<GenerationSession>(config, model, stats,
                                                      session_opts));
    next.push_back(std::make_unique<GenerationSession>(config, model, stats,
                                                       session_opts));
  }

  tensor::MatrixF states;
  cur[0]->prefill(prompt, memory, states);
  beam.score(0, states.row(prompt.rows() - 1));
  std::vector<size_t> adopter(k);
  tensor::MatrixF token(1, mc.d_model), state(1, mc.d_model);
  while (true) {
    const size_t live = beam.live();
    const auto picks = beam.select();
    // The first survivor of a source takes its session over; each
    // further survivor copies the adopter's whole lineage. Sources
    // nobody continued retire only afterwards.
    std::fill(adopter.begin(), adopter.end(), SIZE_MAX);
    for (size_t i = 0; i < picks.size(); ++i) {
      const size_t src = picks[i].source;
      if (adopter[src] == SIZE_MAX) {
        std::swap(next[i], cur[src]);
        adopter[src] = i;
      } else {
        next[i]->fork_from(*next[adopter[src]], /*eager_copy=*/true);
      }
    }
    for (size_t j = 0; j < live; ++j) cur[j]->end_sequence();
    std::swap(cur, next);
    if (beam.done()) break;
    for (size_t i = 0; i < beam.live(); ++i) {
      beam.embed_pending(i, token);
      cur[i]->decode_step(token, state);
      beam.score(i, state.row(0));
    }
  }
  return beam.hypotheses();
}

}  // namespace protea::runtime
