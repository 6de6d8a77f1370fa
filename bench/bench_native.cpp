// Native-throughput benchmark track: measure what the host kernels actually
// sustain, as a complement to the simulated BENCH_fmmfft.json trajectory
// (which by construction cannot observe native kernel speedups).
//
// Emits schema-versioned JSON (fmmfft.bench.native.v1):
//   * GEMM GFLOP/s — square sizes plus the FMM's tall-skinny batched shapes
//     (m = C·P rows against Q/M_L-sized operators, §4.4–4.5)
//   * batched FFT points/s — pow2 and Bluestein sizes at FMM-shaped batches
//   * blocked transpose and all-to-all GB/s — the Π_{M,P} data-movement
//     primitives
//   * S2T / M2L kernel seconds, and the ledger's bytes moved per end-to-end
//     shape (end-to-end wall time is bench/e2e's job)
//
// Wall-clock numbers are machine- and load-dependent, so the committed
// BENCH_native.json baseline is compared report-only by
// tools/bench_compare.py --native (schema and structure hard-fail, timings
// never do). Refresh with:  build/bench/bench_native BENCH_native.json
#include <complex>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "blas/blas.hpp"
#include "common/permute.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"
#include "core/fmmfft.hpp"
#include "dist/collectives.hpp"
#include "dist/dfft3d.hpp"
#include "dist/dfmmfft.hpp"
#include "fft/fft.hpp"
#include "fmm/engine.hpp"
#include "fmm/params.hpp"
#include "obs/health.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace {

using namespace fmmfft;

struct Result {
  std::string name;
  std::string metric;  // "gflops" | "mpoints_per_s" | "gbytes_per_s" | "seconds"
  double value;
  double seconds;  // best wall time of one rep, always recorded
};

std::vector<Result> g_results;

void record(const std::string& name, const std::string& metric, double value, double seconds) {
  g_results.push_back({name, metric, value, seconds});
}

template <typename T>
void bench_gemm_single(const std::string& name, index_t m, index_t n, index_t k) {
  Buffer<T> a(m * k), b(k * n), c(m * n);
  fill_uniform(a.data(), m * k, 1);
  fill_uniform(b.data(), k * n, 2);
  double sec = time_best([&] {
    blas::gemm<T>(blas::Op::N, blas::Op::N, m, n, k, T(1), a.data(), m, b.data(), k, T(0),
                  c.data(), m);
  });
  record(name, "gflops", blas::gemm_flops(m, n, k) / sec / 1e9, sec);
}

/// `shared_b` benches the engine-accurate call: one operator B shared by
/// every item (stride_b = 0), which dispatches into the batch-fused
/// shared-B fast path. `shared_b = false` keeps a per-item B for contrast
/// (the per-item parallel_for dispatch).
template <typename T>
void bench_gemm_batched(const std::string& name, index_t m, index_t n, index_t k, index_t batch,
                        bool shared_b) {
  const index_t b_copies = shared_b ? 1 : batch;
  Buffer<T> a(m * k * batch), b(k * n * b_copies), c(m * n * batch);
  fill_uniform(a.data(), m * k * batch, 3);
  fill_uniform(b.data(), k * n * b_copies, 4);
  const index_t stride_b = shared_b ? 0 : k * n;
  double sec = time_best([&] {
    blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, m, n, k, T(1), a.data(), m, m * k,
                                  b.data(), k, stride_b, T(0), c.data(), m, m * n, batch);
  });
  record(name, "gflops", double(batch) * blas::gemm_flops(m, n, k) / sec / 1e9, sec);
}

template <typename T>
void bench_fft_batched(const std::string& name, index_t n, index_t batch) {
  Buffer<std::complex<T>> data(n * batch);
  fill_uniform(data.data(), n * batch, 5);
  fft::Plan1D<T> plan(n);
  double sec = time_best(
      [&] { plan.execute_batched(data.data(), batch, fft::Direction::Forward); });
  record(name, "mpoints_per_s", double(n) * double(batch) / sec / 1e6, sec);
}

void bench_transpose(const std::string& name, index_t rows, index_t cols) {
  using Cx = std::complex<double>;
  Buffer<Cx> x(rows * cols), y(rows * cols);
  fill_uniform(x.data(), rows * cols, 6);
  double sec = time_best([&] { transpose_blocked(x.data(), y.data(), rows, cols); });
  // Read + write of the full array.
  record(name, "gbytes_per_s", 2.0 * double(rows) * double(cols) * sizeof(Cx) / sec / 1e9, sec);
}

/// Fused zero-copy all-to-all on one representative G=4 slab geometry
/// (payload GB/s, higher is better).
void bench_a2a(index_t m, index_t p, int g) {
  using Cx = std::complex<double>;
  sim::Fabric fabric(g);
  const index_t slab = m * p / g;
  Buffer<Cx> bin(m * p), bout(m * p);
  fill_uniform(bin.data(), m * p, 9);
  std::vector<Cx*> in, out;
  for (int r = 0; r < g; ++r) {
    in.push_back(bin.data() + r * slab);
    out.push_back(bout.data() + r * slab);
  }
  const double bytes = 2.0 * double(m) * double(p) * sizeof(Cx);  // rd + wr
  const double sec = time_best([&] {
    dist::exchange_permute_mp(in, out, m, p, "A2A-B").run(fabric);
    fabric.reset();
  });
  record("a2a_fused_g4", "gbytes_per_s", bytes / sec / 1e9, sec);
}

/// Standalone S2T / M2L kernel benches (the register-blocked accumulate
/// tile) on live engine state: sources loaded, multipole tree built, halos
/// filled.
template <typename T>
void bench_engine_kernels_typed(const std::string& suffix) {
  using E = fmm::Engine<T>;
  auto prime = [](E& eng, const fmm::Params& prm) {
    fill_uniform(eng.source_box(0), eng.source_box_elems() * eng.local_leaves(), 8);
    eng.zero();
    eng.s2m();
    eng.fill_source_halo_cyclic();
    for (int lev = prm.l() - 1; lev >= prm.b; --lev) eng.m2m(lev);
    if (prm.l() > prm.b) eng.fill_multipole_halo_cyclic(prm.l());
  };

  {
    // The e2e CD configuration: leaf level L=6 with 64 boxes of M_L=16.
    const fmm::Params prm{index_t(1) << 16, 64, 16, 2, 14};
    E eng(prm, 2);
    prime(eng, prm);
    double sec = time_best([&] { eng.s2t(); });
    record("fmm_s2t_n16" + suffix, "seconds", sec, sec);
    sec = time_best([&] { eng.m2l_level(prm.l()); });
    record("fmm_m2l_leaf_n16" + suffix, "seconds", sec, sec);
    eng.reset_stats();
  }
  {
    // Big-base configuration: B=6 gives 64 base boxes (61 separations), so
    // m2l_base runs the LRU-backed fused sweep over many operator slabs.
    const fmm::Params prm{index_t(1) << 14, 64, 4, 6, 10};
    E eng(prm, 2);
    prime(eng, prm);
    double sec = time_best([&] { eng.m2l_base(); });
    record("fmm_m2l_base_bb64" + suffix, "seconds", sec, sec);
    eng.reset_stats();
  }
}

void bench_engine_kernels() {
  bench_engine_kernels_typed<double>("");
  // The mixed-precision translation kernels: same shapes, fp32 operators
  // and expansions — the per-kernel speedup behind FMMFFT_PRECISION=mixed.
  bench_engine_kernels_typed<float>("_f32");
}

/// Measured algorithmic traffic rows (metric "bytes"): the ledger's bytes
/// moved over one execution of each end-to-end shape. Unlike the wall-clock
/// rows these are deterministic — a pure function of the plan — so
/// tools/bench_compare.py --native hard-gates them: a change that silently
/// moves >10% more bytes on these shapes fails the bench gate.
void bench_traffic_bytes() {
  using Cx = std::complex<double>;
  const bool was_enabled = obs::traffic_enabled();
  obs::enable_traffic(true);
  {
    const fmm::Params prm{index_t(1) << 16, 64, 16, 2, 14};
    core::FmmFft<Cx> plan(prm, /*fuse_post=*/true, fmm::Precision::Fp64);
    Buffer<Cx> in(prm.n), out(prm.n);
    fill_uniform(in.data(), prm.n, 7);
    obs::TrafficLedger::global().reset();
    WallTimer t;
    plan.execute(in.data(), out.data());
    const double sec = t.seconds();
    record("traffic_fmmfft_n16", "bytes", obs::TrafficLedger::global().total().bytes_moved(),
           sec);
  }
  {
    const fmm::Params prm{index_t(1) << 16, 64, 8, 3, 14};
    dist::DistFmmFft<Cx> plan(prm, 2, fmm::Precision::Fp64);
    Buffer<Cx> in(prm.n), out(prm.n);
    fill_uniform(in.data(), prm.n, 42);
    obs::TrafficLedger::global().reset();
    WallTimer t;
    plan.execute(in.data(), out.data());
    const double sec = t.seconds();
    const auto total = obs::TrafficLedger::global().total();
    record("traffic_dfmmfft_g2", "bytes", total.bytes_moved(), sec);
    record("traffic_dfmmfft_g2_comm", "bytes", total.comm_bytes, sec);
    // Per-key row for the fused all-to-all: the bytes the pack/unpack
    // scopes move on this shape. The committed baseline is the post-fusion
    // value (2× payload), so reintroducing staging copies (4×) fails the
    // +10% hard gate — a ratchet, not just a trend.
    const auto snap = obs::TrafficLedger::global().snapshot();
    double a2a = 0;
    if (snap.count("a2a.pack")) a2a += snap.at("a2a.pack").bytes_moved();
    if (snap.count("a2a.unpack")) a2a += snap.at("a2a.unpack").bytes_moved();
    record("traffic_dfmmfft_g2_a2a", "bytes", a2a, sec);
  }
  {
    // Same distributed shape under FMMFFT_PRECISION=mixed. The per-precision
    // comm split makes the mixed win auditable per key: the fp32 rows carry
    // the halved FMM halo/allgather payload, the fp64 row is the untouched
    // shell-width all-to-all. All of these are hard-gated like the rows
    // above — regressing the mixed byte diet fails the bench gate.
    const fmm::Params prm{index_t(1) << 16, 64, 8, 3, 14};
    dist::DistFmmFft<Cx> plan(prm, 2, fmm::Precision::Mixed);
    Buffer<Cx> in(prm.n), out(prm.n);
    fill_uniform(in.data(), prm.n, 42);
    obs::TrafficLedger::global().reset();
    WallTimer t;
    plan.execute(in.data(), out.data());
    const double sec = t.seconds();
    const auto total = obs::TrafficLedger::global().total();
    record("traffic_dfmmfft_g2_mixed", "bytes", total.bytes_moved(), sec);
    record("traffic_dfmmfft_g2_mixed_comm", "bytes", total.comm_bytes, sec);
    double comm_f32 = 0, comm_f64 = 0;
    for (const auto& [name, tt] : obs::TrafficLedger::global().snapshot()) {
      if (name.rfind("comm.", 0) != 0) continue;
      const bool f32 = name.size() > 4 && name.compare(name.size() - 4, 4, ".f32") == 0;
      (f32 ? comm_f32 : comm_f64) += tt.comm_bytes;
    }
    record("traffic_dfmmfft_g2_mixed_comm_f32", "bytes", comm_f32, sec);
    record("traffic_dfmmfft_g2_mixed_comm_f64", "bytes", comm_f64, sec);
  }
  {
    // Pencil 3D transform on a 2x2 grid: the two sub-communicator hops'
    // wire payloads (comm.*) and pack/unpack sweeps (a2a.row/col) are exact
    // functions of the shape, so all four rows hard-gate. Wire bytes per
    // phase: (pc-1)/pc (row) and (pr-1)/pr (col) of the N-element array.
    const index_t n0 = 32, n1 = 32, n2 = 16;
    dist::Dist3dFft<double> plan(n0, n1, n2, 4, model::Decomp::Pencil, {2, 2});
    Buffer<Cx> in(n0 * n1 * n2), out(n0 * n1 * n2);
    fill_uniform(in.data(), n0 * n1 * n2, 43);
    obs::TrafficLedger::global().reset();
    WallTimer t;
    plan.execute(in.data(), out.data());
    const double sec = t.seconds();
    record("traffic_dfft3d_pencil_comm_row", "bytes",
           plan.fabric().bytes_with_tag("A2A-ROW"), sec);
    record("traffic_dfft3d_pencil_comm_col", "bytes",
           plan.fabric().bytes_with_tag("A2A-COL"), sec);
    const auto snap = obs::TrafficLedger::global().snapshot();
    auto scope_sum = [&](const char* prefix) {
      double b = 0;
      for (const auto& [name, tt] : snap)
        if (name.rfind(prefix, 0) == 0) b += tt.bytes_moved();
      return b;
    };
    record("traffic_dfft3d_pencil_row_rw", "bytes", scope_sum("a2a.row."), sec);
    record("traffic_dfft3d_pencil_col_rw", "bytes", scope_sum("a2a.col."), sec);
  }
  obs::TrafficLedger::global().reset();
  obs::enable_traffic(was_enabled);
}

/// Flight-recorder hook overhead (metric "ns" per event). The "off" row is
/// the always-on tax every hot path pays for FMMFFT_FLIGHT — it must stay
/// at the one-relaxed-load-and-branch level the health layer promises, and
/// is gated alongside the other obs overhead checks (test_obs's zero-alloc
/// test asserts the same path allocates nothing). The "on" row shows the
/// seqlocked ring-write cost when the recorder is armed.
void bench_flight_overhead() {
  using obs::health::Ev;
  const int iters = 1 << 22;
  obs::health::enable_flight(false);
  const double off = time_best([&] {
    for (int i = 0; i < iters; ++i) FMMFFT_FLIGHT(Mark, i, 0, "bench");
  });
  record("obs_flight_hook_off", "ns", off / iters * 1e9, off);
  obs::health::enable_flight(true);
  const double on = time_best([&] {
    for (int i = 0; i < iters; ++i) FMMFFT_FLIGHT(Mark, i, 0, "bench");
  });
  record("obs_flight_hook_on", "ns", on / iters * 1e9, on);
  obs::health::enable_flight(false);
  obs::health::flight_clear();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_native.json";
  bench::print_header("Native throughput track",
                      "host kernel rates behind the §4 stages (wall clock, this machine)");

  // GEMM: square (Fig. 1 regime) and the FMM's batched tall-skinny shapes.
  bench_gemm_single<double>("gemm_f64_256", 256, 256, 256);
  bench_gemm_single<double>("gemm_f64_512", 512, 512, 512);
  bench_gemm_single<float>("gemm_f32_256", 256, 256, 256);
  // S2M/L2T shape: C·P rows × Q coeffs × M_L leaf points (C=2, P=256, Q=18,
  // M_L=8), one problem per leaf box — every box against the SAME operator
  // (stride_b = 0), exactly how the engine calls gemm_strided_batched.
  bench_gemm_batched<double>("gemm_f64_batched_s2m", 512, 18, 8, 64, /*shared_b=*/true);
  // M2M/L2L shape: the flattened two-child operator, k = 2Q.
  bench_gemm_batched<double>("gemm_f64_batched_m2m", 512, 18, 36, 32, /*shared_b=*/true);
  // fp32 twins of both batched shapes: the GEMM side of the mixed-precision
  // translation pipeline (FMMFFT_PRECISION=mixed).
  bench_gemm_batched<float>("gemm_f32_batched_s2m", 512, 18, 8, 64, /*shared_b=*/true);
  bench_gemm_batched<float>("gemm_f32_batched_m2m", 512, 18, 36, 32, /*shared_b=*/true);
  // Per-item-B contrast: same shapes through the per-item dispatch path.
  bench_gemm_batched<double>("gemm_f64_batched_s2m_peritem", 512, 18, 8, 64, false);
  bench_gemm_batched<double>("gemm_f64_batched_m2m_peritem", 512, 18, 36, 32, false);

  // Batched FFTs at the 2D-FFT stage's shapes: many size-P lines, fewer
  // size-M lines, plus a Bluestein (non-pow2) size.
  bench_fft_batched<double>("fft_f64_512x256", 512, 256);
  bench_fft_batched<double>("fft_f64_4096x64", 4096, 64);
  bench_fft_batched<double>("fft_f64_16384x16", 16384, 16);
  bench_fft_batched<float>("fft_f32_4096x64", 4096, 64);
  bench_fft_batched<double>("fft_f64_blue1000x64", 1000, 64);

  // The Π_{M,P} permutation primitive: the cache-oblivious kernel and the
  // fused all-to-all built on it.
  bench_transpose("transpose_c64_1024", 1024, 1024);
  bench_a2a(1024, 1024, 4);

  bench_engine_kernels();

  bench_traffic_bytes();

  bench_flight_overhead();

  // STREAM-style machine roofline: measured copy/scale/triad bandwidth and
  // peak FMA rate at 1 thread and at the pool width. Anchors the achieved
  // GB/s columns of the ledger report on this machine.
  const auto calibration = obs::calibrate_roofline_sweep();

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::JsonWriter jw(os);
  jw.begin_object();
  jw.kv("schema", "fmmfft.bench.native.v1");
  jw.kv("threads", double(ThreadPool::global().workers()));
  jw.key("calibration");
  jw.begin_array();
  for (const auto& r : calibration) {
    jw.begin_object();
    jw.kv("threads", double(r.threads));
    jw.kv("copy_bps", r.copy_bps);
    jw.kv("scale_bps", r.scale_bps);
    jw.kv("triad_bps", r.triad_bps);
    jw.kv("fma_flops", r.fma_flops);
    jw.end_object();
  }
  jw.end_array();
  jw.key("benches");
  jw.begin_array();
  for (const Result& r : g_results) {
    jw.begin_object();
    jw.kv("name", r.name);
    jw.kv("metric", r.metric);
    jw.kv("value", r.value);
    jw.kv("seconds", r.seconds);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  os << "\n";

  Table t({"bench", "metric", "value", "best rep [ms]"});
  for (const Result& r : g_results)
    t.row().col(r.name).col(r.metric).col(r.value, 2).col(r.seconds * 1e3, 3);
  t.print();
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
