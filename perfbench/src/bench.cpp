#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/stopwatch.hpp"

namespace perfbench {

uint64_t now_ns() { return protea::util::monotonic_ns(); }

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint32_t Rng::between(uint32_t lo, uint32_t hi) {
  return lo + static_cast<uint32_t>(next() % (uint64_t{hi} - lo + 1));
}

float Rng::normal() {
  const double u1 = (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = static_cast<double>(next() >> 11) * 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return static_cast<float>(std::clamp(z, -3.0, 3.0));
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return rng.next();
}

protea::tensor::MatrixF random_matrix(size_t rows, size_t cols, Rng& rng) {
  protea::tensor::MatrixF m(rows, cols);
  for (float& x : m.flat()) x = rng.normal();
  return m;
}

const char* domain_name(Domain d) {
  switch (d) {
    case Domain::kWall: return "wall";
    case Domain::kCount: return "count";
    case Domain::kModel: return "model";
  }
  return "?";
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, Domain domain, size_t samples) {
  metrics_.push_back({name, value, unit, domain, samples, true});
}

void Report::not_applicable(const std::string& name, const std::string& unit) {
  metrics_.push_back({name, 0.0, unit, Domain::kCount, 0, false});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double minimum(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

void add_timing(Report& report, const std::string& name,
                const std::vector<double>& samples, const std::string& unit) {
  report.add(name, percentile(samples, 50.0), unit, Domain::kWall,
             samples.size());
  report.add(name + "_min", minimum(samples), unit, Domain::kWall,
             samples.size());
}

int32_t SpanLog::begin(const char* name, int32_t parent, int64_t request,
                       uint32_t rows) {
  return add({name, parent, request, now_ns(), 0, rows});
}

void SpanLog::end(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = now_ns(); }

int32_t SpanLog::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::append(const SpanLog& other) {
  const auto offset = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += offset;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::self_us() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us();
  // Children of one parent never overlap here (one call at a time per
  // request, one stage at a time per call), so covered time is a sum.
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[static_cast<size_t>(s.parent)] -= s.dur_us();
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_us();
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %d, \"request\": %lld, "
                 "\"self_us\": %.3f}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<long long>(s.request + 1),
                 static_cast<double>(s.start_ns - origin) * 1e-3, s.dur_us(),
                 i, s.parent, static_cast<long long>(s.request), self[i]);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void StageTimer::enter(protea::runtime::Stage stage) {
  entered_[stage == protea::runtime::Stage::kMha ? 0 : 1] = now_ns();
}

void StageTimer::exit(protea::runtime::Stage stage) {
  const bool mha = stage == protea::runtime::Stage::kMha;
  if (log_ != nullptr) {
    log_->add({mha ? "mha" : "ffn", parent_, request_, entered_[mha ? 0 : 1],
               now_ns()});
  }
}

std::vector<double> span_us(const SpanLog& log, const char* name,
                            const char* child, bool per_row) {
  const auto& spans = log.spans();
  std::vector<double> sum(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (child != nullptr && s.parent != kNoParent &&
        std::strcmp(s.name, child) == 0) {
      sum[static_cast<size_t>(s.parent)] += s.dur_us();
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    double us = child != nullptr ? sum[i] : spans[i].dur_us();
    if (per_row) us /= std::max<uint32_t>(spans[i].rows, 1);
    out.push_back(us);
  }
  return out;
}

double host_probe_us() {
  constexpr size_t kLen = 64 * 1024;
  constexpr int kReps = 200;
  std::vector<int8_t> a(kLen), b(kLen);
  Rng rng(0x9A0BE);
  for (size_t i = 0; i < kLen; ++i) {
    a[i] = static_cast<int8_t>(rng.next());
    b[i] = static_cast<int8_t>(rng.next());
  }
  std::vector<double> samples;
  samples.reserve(kReps);
  volatile int64_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    const uint64_t t0 = now_ns();
    int64_t acc = 0;
    for (size_t i = 0; i < kLen; ++i) {
      acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    }
    sink = sink + acc;
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    a[static_cast<size_t>(r) % kLen] ^= static_cast<int8_t>(acc);
  }
  return percentile(samples, 50.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_bits(const protea::tensor::MatrixF& a,
               const protea::tensor::MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
