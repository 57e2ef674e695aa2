// Shared pieces of the serving benchmark: the seeded input generator,
// metric records (value + unit + domain + pooled sample count), pooled
// percentiles, in-memory spans timed from outside the library, the
// MHA/FFN stage timer, and the host-speed probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/layer_ops.hpp"
#include "tensor/matrix.hpp"

namespace perfbench {

/// The one clock every stamp uses (the library's monotonic_ns).
uint64_t now_ns();

// --- inputs -----------------------------------------------------------------

/// SplitMix64 stream owned by the benchmark, so no library change can
/// alter a workload's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform integer in [lo, hi].
  uint32_t between(uint32_t lo, uint32_t hi);
  /// Standard normal (Box-Muller), clamped to [-3, 3].
  float normal();

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for one named input family.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

protea::tensor::MatrixF random_matrix(size_t rows, size_t cols, Rng& rng);

// --- metrics ----------------------------------------------------------------

/// Which clock or counter a value comes from. Wall values are host time
/// and vary run to run; count and model values must repeat exactly.
enum class Domain { kWall, kCount, kModel };
const char* domain_name(Domain d);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Domain domain = Domain::kWall;
  size_t samples = 0;  // pooled samples behind a statistic (0 = scalar)
  bool applicable = true;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           Domain domain, size_t samples = 0);
  /// Not measured on this workload; printed as 0 in the result line.
  void not_applicable(const std::string& name, const std::string& unit);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> samples, double p);
double minimum(const std::vector<double>& samples);

/// Adds `<name>` (p50) and `<name>_min` of a timing sample set.
void add_timing(Report& report, const std::string& name,
                const std::vector<double>& samples, const std::string& unit);

// --- spans ------------------------------------------------------------------

inline constexpr int32_t kNoParent = -1;

struct Span {
  const char* name = "";
  int32_t parent = kNoParent;  // index in the owning SpanLog
  int64_t request = -1;        // request id, -1 for pass-level spans
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t rows = 0;  // rows a prefill call processed (per-row timings)
  double dur_us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// Spans stay in memory and are written once at the end of the run. A
/// log is filled by one thread; separate logs are merged with append.
class SpanLog {
 public:
  int32_t begin(const char* name, int32_t parent, int64_t request,
                uint32_t rows = 0);
  void end(int32_t span);
  int32_t add(const Span& span);
  void append(const SpanLog& other);
  const std::vector<Span>& spans() const { return spans_; }
  /// Span minus the time its direct children cover, per span.
  std::vector<double> self_us() const;
  /// Chrome trace-event JSON with parent links and self time per span.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span around one call into a library function; no-op without a log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int32_t parent, int64_t request,
            uint32_t rows = 0)
      : log_(log),
        id_(log != nullptr ? log->begin(name, parent, request, rows)
                           : kNoParent) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// StageGate passed into the library's forward/decode calls: times each
/// MHA and FFN stage the call brackets and records it as a child span of
/// the current call span.
class StageTimer final : public protea::runtime::StageGate {
 public:
  explicit StageTimer(SpanLog* log, int64_t request)
      : log_(log), request_(request) {}
  void set_parent(int32_t parent) { parent_ = parent; }
  void enter(protea::runtime::Stage stage) override;
  void exit(protea::runtime::Stage stage) override;

 private:
  SpanLog* log_;
  int64_t request_;
  int32_t parent_ = kNoParent;
  uint64_t entered_[2] = {0, 0};
};

/// One sample per span named `name`: its duration in us, or with
/// `child` the summed duration of its children of that name; divided by
/// the span's rows when `per_row`.
std::vector<double> span_us(const SpanLog& log, const char* name,
                            const char* child = nullptr, bool per_row = false);

// --- host ---------------------------------------------------------------------

/// Fixed int8 dot-product loop written here, not in the library: median
/// microseconds per 64 KiB dot product. Recorded before and after each
/// workload run so a host slow phase shows next to the workload numbers.
double host_probe_us();

/// Peak resident set of this process in MB.
double peak_rss_mb();

bool same_bits(const protea::tensor::MatrixF& a,
               const protea::tensor::MatrixF& b);

// --- run plumbing -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // empty: no report or span files
};

/// One timed pass, kept so a slow host phase shows pass by pass.
struct PassRecord {
  double wall_s = 0.0;
  uint64_t tokens = 0;
  double ttft_p50_ms = 0.0, ttft_p90_ms = 0.0;
  double gap_p50_ms = 0.0, gap_p99_ms = 0.0;
  bool traced = false;
};

struct Outcome {
  Report report;
  std::vector<PassRecord> passes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // failed checks and contrast checks
  SpanLog spans;
};

Outcome run_decode_fleet(const Options& opts);
Outcome run_prefix_storm(const Options& opts);
Outcome run_encoder_batch(const Options& opts);

/// tensor.* kernel timings at the workloads' own GEMV/GEMM shapes.
void measure_kernels(Report& report);

/// Times `setups` repetitions of `build` and records the median as
/// setup_s; returns what the last repetition built.
template <typename Build>
auto timed_setup(Report& report, int setups, const Build& build)
    -> decltype(build()) {
  std::vector<double> samples;
  for (int i = 1; i < setups; ++i) {
    const uint64_t t0 = now_ns();
    auto discard = build();
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const uint64_t t0 = now_ns();
  auto built = build();
  samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  report.add("setup_s", percentile(samples, 50.0), "s", Domain::kWall,
             samples.size());
  return built;
}

}  // namespace perfbench
