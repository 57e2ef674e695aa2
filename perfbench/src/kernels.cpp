// tensor.*: single-thread qgemm_bt_into at the workloads' own shapes,
// buffers allocated up front. GEMV (M=1) is the decode-step shape; M=32
// (prefill chunk) and M=64 (encoder sequence) are the GEMM shapes.
#include "bench.hpp"
#include "tensor/qgemm.hpp"

namespace perfbench {

namespace {

using namespace protea;

struct Rate {
  double macs = 0.0;
  double p50_s = 0.0;  // summed per-shape median call times
  double min_s = 0.0;  // summed per-shape fastest call times
  size_t samples = 0;
};

void time_shapes(std::initializer_list<size_t> ms, int reps, Rng& rng,
                 Rate& rate) {
  struct Shape {
    size_t k, n;
  };
  constexpr Shape kShapes[] = {{256, 256}, {256, 1024}, {1024, 256}};
  for (const size_t m : ms) {
    for (const Shape& s : kShapes) {
      tensor::MatrixI8 a(m, s.k), bt(s.n, s.k);
      for (int8_t& x : a.flat()) x = static_cast<int8_t>(rng.next());
      for (int8_t& x : bt.flat()) x = static_cast<int8_t>(rng.next());
      tensor::MatrixI32 c(m, s.n);
      std::vector<int8_t> pack(tensor::qgemm_pack_elems(s.n));
      std::vector<double> samples;
      samples.reserve(static_cast<size_t>(reps));
      for (int r = -2; r < reps; ++r) {  // two untimed warm-up calls
        const uint64_t t0 = now_ns();
        tensor::qgemm_bt_into(a, bt, c, pack);
        if (r >= 0) samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      }
      rate.macs += static_cast<double>(m * s.k * s.n);
      rate.p50_s += percentile(samples, 50.0);
      rate.min_s += minimum(samples);
      rate.samples += samples.size();
    }
  }
}

void add_rate(Report& report, const std::string& name, const Rate& rate) {
  report.add(name, rate.macs / rate.p50_s * 1e-9, "GMAC/s", Domain::kWall,
             rate.samples);
  report.add(name + "_peak", rate.macs / rate.min_s * 1e-9, "GMAC/s",
             Domain::kWall, rate.samples);
}

}  // namespace

void measure_kernels(Report& report) {
  Rng rng(0x6E44);
  Rate gemv, gemm;
  time_shapes({1}, 400, rng, gemv);
  time_shapes({32, 64}, 60, rng, gemm);
  add_rate(report, "tensor.gemv_gmac_s", gemv);
  add_rate(report, "tensor.gemm_gmac_s", gemm);
}

}  // namespace perfbench
