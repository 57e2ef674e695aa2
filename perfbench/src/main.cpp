// Serving benchmark entry point: runs one workload, checks its outputs against
// references, and prints every metric by name, unit, domain and pooled
// sample count. The last stdout line is the machine-readable result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). With --out-dir, the annotated report (and, for the traced
// run, its spans as Chrome trace-event JSON) is also written there.
//
//   perfbench --workload decode_fleet --seed 1 --seconds 25 --trace 0
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},         {"rss_mb", "MB"},
    {"tok_s", "tok/s"},       {"ttft_ms_p50", "ms"},
    {"ttft_ms_p90", "ms"},    {"gap_ms_p50", "ms"},
    {"gap_ms_p90", "ms"},
};

constexpr MetricName kPerLayer[] = {
    {"tensor.gemv_gmac_s", "GMAC/s"},
    {"tensor.gemv_gmac_s_peak", "GMAC/s"},
    {"tensor.gemm_gmac_s", "GMAC/s"},
    {"tensor.gemm_gmac_s_peak", "GMAC/s"},
    {"tensor.macs_per_tok", "MAC/tok"},
    {"layer_ops.decode_mha_us", "us"},
    {"layer_ops.decode_mha_us_min", "us"},
    {"layer_ops.decode_ffn_us", "us"},
    {"layer_ops.decode_ffn_us_min", "us"},
    {"layer_ops.prefill_mha_us_row", "us"},
    {"layer_ops.prefill_mha_us_row_min", "us"},
    {"layer_ops.prefill_ffn_us_row", "us"},
    {"layer_ops.prefill_ffn_us_row_min", "us"},
    {"layer_ops.encoder_mha_ms", "ms"},
    {"layer_ops.encoder_mha_ms_min", "ms"},
    {"layer_ops.encoder_ffn_ms", "ms"},
    {"layer_ops.encoder_ffn_ms_min", "ms"},
    {"generation.decode_step_us", "us"},
    {"generation.decode_step_us_min", "us"},
    {"generation.prefill_row_us", "us"},
    {"generation.prefill_row_us_min", "us"},
    {"generation.cross_fill_us", "us"},
    {"generation.cross_fill_us_min", "us"},
    {"generation.session_build_ms", "ms"},
    {"generation.session_build_ms_min", "ms"},
    {"decode_policy.next_token_us", "us"},
    {"decode_policy.next_token_us_min", "us"},
    {"decode_policy.busy_share", "ratio"},
    {"traffic.rounds", "count"},
    {"traffic.decode_steps", "count"},
    {"traffic.prefill_chunks", "count"},
    {"traffic.max_active", "count"},
    {"traffic.batch_mean", "ratio"},
    {"traffic.preemptions", "count"},
    {"traffic.swap_outs", "count"},
    {"traffic.recomputes", "count"},
    {"traffic.replayed_rows", "count"},
    {"traffic.replay_share", "ratio"},
    {"traffic.kv_block_waits", "count"},
    {"kv_cache.blocks_peak", "count"},
    {"kv_cache.peak_share", "ratio"},
    {"kv_cache.exhaustion_events", "count"},
    {"kv_cache.swap_bytes", "bytes"},
    {"kv_cache.swap_out_us", "us"},
    {"kv_cache.swap_out_us_min", "us"},
    {"kv_cache.swap_in_us", "us"},
    {"kv_cache.swap_in_us_min", "us"},
    {"prefix_cache.hits", "count"},
    {"prefix_cache.misses", "count"},
    {"prefix_cache.hit_ratio", "ratio"},
    {"prefix_cache.rows_adopted", "count"},
    {"prefix_cache.adopted_row_share", "ratio"},
    {"prefix_cache.cross_kv_hits", "count"},
    {"prefix_cache.evictions", "count"},
    {"prefix_cache.adopt_us", "us"},
    {"prefix_cache.adopt_us_min", "us"},
    {"prefix_cache.publish_us", "us"},
    {"prefix_cache.publish_us_min", "us"},
    {"inference_session.forward_ms", "ms"},
    {"inference_session.forward_ms_min", "ms"},
    {"batch_scheduler.serial_ms", "ms"},
    {"batch_scheduler.speedup", "ratio"},
    {"perf_model.decode_step_cycles", "cycles"},
    {"perf_model.encoder_cycles", "cycles"},
    {"host.probe_us_before", "us"},
    {"host.probe_us_after", "us"},
    {"trace.tok_s_untraced", "tok/s"},
    {"trace.tok_s_traced", "tok/s"},
    {"trace.overhead_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "decode_fleet|prefix_storm|encoder_batch --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opts.seconds > 0.0 && opts.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return opts;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string report_json(const Options& opts, const Outcome& out) {
  std::string s = "{\"workload\": \"" + opts.workload +
                  "\", \"seed\": " + std::to_string(opts.seed) +
                  ", \"trace\": " + (opts.trace ? "1" : "0") +
                  ", \"correct\": " + (out.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"notes\": [";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    s += (i ? ", \"" : "\"") + out.notes[i] + "\"";
  }
  s += "], \"passes\": [";
  for (size_t i = 0; i < out.passes.size(); ++i) {
    const PassRecord& p = out.passes[i];
    s += std::string(i ? ", " : "") + "{\"wall_s\": " + json_number(p.wall_s) +
         ", \"tokens\": " + std::to_string(p.tokens) +
         ", \"ttft_ms_p50\": " + json_number(p.ttft_p50_ms) +
         ", \"ttft_ms_p90\": " + json_number(p.ttft_p90_ms) +
         ", \"gap_ms_p50\": " + json_number(p.gap_p50_ms) +
         ", \"gap_ms_p99\": " + json_number(p.gap_p99_ms) +
         ", \"traced\": " + (p.traced ? "true" : "false") + "}";
  }
  s += "], \"metrics\": [";
  bool first = true;
  for (const Metric& m : out.report.metrics()) {
    s += std::string(first ? "" : ", ") + "{\"name\": \"" + m.name +
         "\", \"value\": " + json_number(m.value) + ", \"unit\": \"" + m.unit +
         "\", \"domain\": \"" + (m.applicable ? domain_name(m.domain) : "n/a") +
         "\", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  return s + "]}";
}

template <size_t N>
std::string result_line(const Outcome& out, const MetricName (&names)[N]) {
  std::string s = std::string("{\"correct\": ") +
                  (out.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < N; ++i) {
    const Metric* m = out.report.find(names[i].name);
    s += std::string(i ? ", " : "") + "\"" + names[i].name +
         "\": {\"value\": " + json_number(m->value) + ", \"unit\": \"" +
         names[i].unit + "\"}";
  }
  return s + "}}";
}

/// Metrics of the printed set that this workload does not measure are
/// recorded as not applicable; a metric measured with another unit than
/// the printed one is a benchmark bug.
template <size_t N>
bool complete(Report& report, const MetricName (&names)[N]) {
  for (const MetricName& n : names) {
    const Metric* m = report.find(n.name);
    if (m == nullptr) {
      report.not_applicable(n.name, n.unit);
    } else if (m->unit != n.unit) {
      std::fprintf(stderr, "perfbench: %s measured in %s, listed in %s\n",
                   n.name, m->unit.c_str(), n.unit);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Outcome (*run)(const Options&) = nullptr;
  if (opts.workload == "decode_fleet") run = run_decode_fleet;
  if (opts.workload == "prefix_storm") run = run_prefix_storm;
  if (opts.workload == "encoder_batch") run = run_encoder_batch;
  if (run == nullptr) usage("unknown workload");

  try {
    const double probe_before = host_probe_us();
    Outcome out = run(opts);
    const double probe_after = host_probe_us();
    Report& report = out.report;
    report.add("host.probe_us_before", probe_before, "us", Domain::kWall);
    report.add("host.probe_us_after", probe_after, "us", Domain::kWall);
    if (opts.trace) measure_kernels(report);
    report.add("rss_mb", peak_rss_mb(), "MB", Domain::kWall);
    const bool listed = opts.trace ? complete(report, kPerLayer)
                                   : complete(report, kEndToEnd);
    if (!listed) return 2;

    for (const Metric& m : report.metrics()) {
      std::printf("%-36s %16.6g %-8s %-5s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.applicable ? domain_name(m.domain) : "n/a",
                  m.samples);
    }
    for (const PassRecord& p : out.passes) {
      std::printf("pass%s %8.3f s %6llu tok  ttft p50 %9.2f p90 %9.2f ms  "
                  "gap p50 %8.3f p99 %8.3f ms\n",
                  p.traced ? "*" : " ", p.wall_s,
                  static_cast<unsigned long long>(p.tokens), p.ttft_p50_ms,
                  p.ttft_p90_ms, p.gap_p50_ms, p.gap_p99_ms);
    }
    for (const std::string& note : out.notes) std::printf("note: %s\n", note.c_str());
    if (!opts.out_dir.empty()) {
      const std::string stem = opts.out_dir + "/" + opts.workload + "_seed" +
                               std::to_string(opts.seed) +
                               (opts.trace ? "_trace" : "");
      if (FILE* f = std::fopen((stem + "_report.json").c_str(), "w")) {
        std::fprintf(f, "%s\n", report_json(opts, out).c_str());
        std::fclose(f);
      }
      if (opts.trace && !out.spans.write_json(stem + "_spans.json")) {
        std::fprintf(stderr, "perfbench: could not write %s_spans.json\n",
                     stem.c_str());
      }
    }
    std::printf("%s\n", opts.trace ? result_line(out, kPerLayer).c_str()
                                   : result_line(out, kEndToEnd).c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
