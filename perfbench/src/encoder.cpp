// encoder_batch: the paper's own workload, Table I Test 7 (d=256, h=8,
// N=12, SL=64), served as batches of 8 sequences through
// BatchScheduler::run_batched. It bypasses the traffic engine, the KV
// cache, the prefix cache and the decode policy.
#include <memory>

#include "accel/perf_model.hpp"
#include "accel/quantized_model.hpp"
#include "bench.hpp"
#include "ref/encoder.hpp"
#include "ref/model_zoo.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/inference_session.hpp"

namespace perfbench {

namespace {

using namespace protea;

constexpr size_t kSequences = 8;
// One worker, for the reason given in decoder.cpp: a second busy thread
// lets a shared host steal CPU time from the guest and widens the spread
// of timings across runs.
constexpr size_t kThreads = 1;
constexpr int kSetups = 9;

}  // namespace

Outcome run_encoder_batch(const Options& opts) {
  Outcome result;
  Report& report = result.report;
  const ref::ModelConfig cfg = ref::table1_tests().at(6);  // Test 7
  const ref::EncoderWeights weights =
      ref::make_random_weights(cfg, mix_seed(opts.seed, 1));
  Rng values(mix_seed(opts.seed, 2));
  const tensor::MatrixF calib = random_matrix(cfg.seq_len, cfg.d_model, values);
  std::vector<tensor::MatrixF> inputs;
  for (size_t i = 0; i < kSequences; ++i) {
    inputs.push_back(random_matrix(cfg.seq_len, cfg.d_model, values));
  }
  const accel::AccelConfig config;

  auto scheduler = timed_setup(report, kSetups, [&] {
    return std::make_unique<runtime::BatchScheduler>(
        config, accel::prepare_model(weights, calib));
  });

  // References: one batch-1 InferenceSession forward per sequence, timed
  // per MHA/FFN stage in the traced run.
  SpanLog forwards;
  SpanLog* log = opts.trace ? &forwards : nullptr;
  runtime::InferenceSession session(config, scheduler->model());
  std::vector<tensor::MatrixF> expected(kSequences);
  for (size_t i = 0; i < kSequences; ++i) {
    const auto id = static_cast<int64_t>(i);
    StageTimer timer(log, id);
    const SpanScope span(log, "forward", kNoParent, id);
    timer.set_parent(span.id());
    session.forward_into(inputs[i], expected[i], log != nullptr ? &timer : nullptr);
  }

  const runtime::BatchOptions bopts{.threads = kThreads};
  std::vector<double> pass_ms;
  double untraced_s = 0.0, traced_s = 0.0;
  uint64_t untraced_rows = 0, traced_rows = 0;
  size_t passes = 0;
  const uint64_t window = now_ns();
  do {
    const bool trace_pass = opts.trace && passes % 2 == 1;
    const uint64_t t0 = now_ns();
    const std::vector<tensor::MatrixF> outputs =
        scheduler->run_batched(inputs, bopts);
    const uint64_t t1 = now_ns();
    ++passes;
    if (trace_pass) result.spans.add({"pass", kNoParent, -1, t0, t1});
    uint64_t rows = 0;
    for (size_t i = 0; i < kSequences; ++i) {
      ++result.attempted;
      if (i < outputs.size() && same_bits(outputs[i], expected[i])) {
        rows += cfg.seq_len;
      } else {
        ++result.failed;
      }
    }
    const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
    (trace_pass ? traced_s : untraced_s) += wall_s;
    (trace_pass ? traced_rows : untraced_rows) += rows;
    pass_ms.push_back(wall_s * 1e3);
    result.passes.push_back({wall_s, rows, wall_s * 1e3, wall_s * 1e3,
                             wall_s * 1e3 / kSequences,
                             wall_s * 1e3 / kSequences, trace_pass});
  } while (static_cast<double>(now_ns() - window) * 1e-9 < opts.seconds ||
           (opts.trace && passes < 2));

  if (result.failed > 0) {
    result.correct = false;
    result.notes.push_back("batched outputs differ from the session references");
  }
  // An encoder returns each sequence's whole output when its batch
  // completes: time to first output is the batch latency, and the gap
  // between outputs is the batch latency shared over its sequences.
  std::vector<double> gap_ms = pass_ms;
  for (double& v : gap_ms) v /= kSequences;
  report.add("tok_s",
             static_cast<double>(untraced_rows + traced_rows) /
                 (untraced_s + traced_s),
             "tok/s", Domain::kWall, passes);
  report.add("ttft_ms_p50", percentile(pass_ms, 50), "ms", Domain::kWall,
             pass_ms.size());
  report.add("ttft_ms_p90", percentile(pass_ms, 90), "ms", Domain::kWall,
             pass_ms.size());
  report.add("gap_ms_p50", percentile(gap_ms, 50), "ms", Domain::kWall,
             gap_ms.size());
  report.add("gap_ms_p90", percentile(gap_ms, 90), "ms", Domain::kWall,
             gap_ms.size());
  if (!opts.trace) return result;

  const double untraced_tok_s = untraced_rows / untraced_s;
  const double traced_tok_s = traced_rows / traced_s;
  report.add("trace.tok_s_untraced", untraced_tok_s, "tok/s", Domain::kWall);
  report.add("trace.tok_s_traced", traced_tok_s, "tok/s", Domain::kWall);
  report.add("trace.overhead_share", 1.0 - traced_tok_s / untraced_tok_s,
             "ratio", Domain::kWall);

  std::vector<double> forward_ms = span_us(forwards, "forward");
  std::vector<double> mha_ms = span_us(forwards, "forward", "mha");
  std::vector<double> ffn_ms = span_us(forwards, "forward", "ffn");
  for (auto* v : {&forward_ms, &mha_ms, &ffn_ms}) {
    for (double& x : *v) x *= 1e-3;
  }
  add_timing(report, "inference_session.forward_ms", forward_ms, "ms");
  add_timing(report, "layer_ops.encoder_mha_ms", mha_ms, "ms");
  add_timing(report, "layer_ops.encoder_ffn_ms", ffn_ms, "ms");
  report.add("tensor.macs_per_tok",
             static_cast<double>(session.stats().macs) /
                 (kSequences * cfg.seq_len),
             "MAC/tok", Domain::kCount);

  const uint64_t t0 = now_ns();
  const std::vector<tensor::MatrixF> serial = scheduler->run_serial(inputs);
  const double serial_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  for (size_t i = 0; i < kSequences; ++i) {
    if (!same_bits(serial[i], expected[i])) {
      result.correct = false;
      result.notes.push_back("serial outputs differ from the references");
      break;
    }
  }
  report.add("batch_scheduler.serial_ms", serial_ms, "ms", Domain::kWall, 1);
  report.add("batch_scheduler.speedup", serial_ms / percentile(pass_ms, 50),
             "ratio", Domain::kWall);
  report.add("perf_model.encoder_cycles",
             static_cast<double>(
                 accel::estimate_performance(config, cfg).total_cycles),
             "cycles", Domain::kModel);
  result.spans.append(forwards);
  return result;
}

}  // namespace perfbench
