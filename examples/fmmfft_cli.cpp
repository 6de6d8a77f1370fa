// Command-line driver for the library: plan, execute, verify and time an
// FMM-FFT from the shell — the artifact a downstream user scripts against.
//
//   fmmfft_cli --log2n 18 [--precision c64|c32|f64|f32] [--devices G]
//              [--p P --ml ML --b B --q Q | --eps 1e-12]
//              [--simulate 2xk40|2xp100|8xp100] [--seed S]
//              [--trace FILE] [--metrics FILE] [--report FILE]
//
// Without explicit parameters the plan comes from the a-priori error model
// (fmm::suggest_params). With --simulate, the run is also scheduled on the
// chosen paper architecture, compared against the 1D-FFT baseline, and the
// timeline analyzer prints a critical-path / bottleneck summary.
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/fmmfft.hpp"
#include "core/reference.hpp"
#include "dist/dfft3d.hpp"
#include "dist/dfmmfft.hpp"
#include "dist/schedules.hpp"
#include "fft/plan3d.hpp"
#include "fmm/accuracy.hpp"
#include "model/counts.hpp"
#include "model/tuning.hpp"
#include "obs/analyze.hpp"
#include "obs/compare.hpp"
#include "obs/env.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace {

using namespace fmmfft;

struct Options {
  int log2n = 16;
  std::string precision = "c64";
  int devices = 1;
  index_t p = 0, ml = 0;
  int b = 0, q = 0;
  double eps = 1e-12;
  std::string simulate;
  std::uint64_t seed = 1;
  std::string trace, metrics, report, traffic;
  std::string fft3d;         // "N0xN1xN2": run the distributed 3D FFT instead
  std::string decomp, grid;  // --fft3d only; routed through FMMFFT_DECOMP / FMMFFT_GRID
};

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s --log2n K [options]\n"
      "\n"
      "plan / execution:\n"
      "  --log2n K              transform size n = 2^K (K in [10, 26])\n"
      "  --precision c64|c32|f64|f32   input element type (default c64)\n"
      "  --devices G            split the run across G simulated devices\n"
      "  --p P --ml ML --b B --q Q     pin the FMM plan explicitly\n"
      "  --eps E                or derive the plan from a target error (default 1e-12)\n"
      "  --seed S               RNG seed for the input vector\n"
      "\n"
      "distributed 3D FFT:\n"
      "  --fft3d N0xN1xN2       run a distributed 3D FFT of that shape (pow2\n"
      "                         extents) instead of the FMM-FFT: verifies\n"
      "                         against the single-node reference transform,\n"
      "                         prints the decomposition decision and the\n"
      "                         per-phase exchange payloads\n"
      "  --decomp slab|pencil|auto\n"
      "                         (with --fft3d; sets FMMFFT_DECOMP) how the 3D\n"
      "                         FFT splits across devices: slab = 1D partition,\n"
      "                         one G-wide all-to-all; pencil = PRxPC grid with\n"
      "                         two-phase row/column sub-communicator\n"
      "                         exchanges; auto (default) asks the Sec. 5 cost\n"
      "                         model. The FMM-FFT's 2D FFT always runs the\n"
      "                         one-phase exchange\n"
      "  --grid PRxPC           (with --fft3d; sets FMMFFT_GRID) pin the pencil\n"
      "                         processor grid (e.g. 2x4); must multiply to G\n"
      "                         and divide the transform extents\n"
      "\n"
      "modeling:\n"
      "  --simulate 2xk40|2xp100|8xp100\n"
      "                         schedule the plan on a paper architecture and\n"
      "                         compare against the 1D-FFT baseline; prints the\n"
      "                         timeline analyzer's critical-path summary\n"
      "\n"
      "observability (both --flag FILE and --flag=FILE forms accepted):\n"
      "  --trace FILE           record spans, write a chrome://tracing JSON\n"
      "  --metrics FILE         record counters/histograms (with p50/p95/p99),\n"
      "                         write a metrics JSON and the model-vs-measured check\n"
      "  --report FILE          write the timeline analyzer report JSON for the\n"
      "                         simulated run (defaults to 2xp100 without --simulate)\n"
      "  --traffic FILE         record the memory-traffic ledger (bytes read/written,\n"
      "                         comm payload, flops per stage), write its JSON and the\n"
      "                         traffic-vs-model check (same as FMMFFT_TRAFFIC=FILE)\n"
      "\n"
      "  --env                  print every FMMFFT_* environment knob (name,\n"
      "                         current value, default, description) and exit\n"
      "  --help                 this message\n",
      argv0);
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::printf("missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // String-valued flags accepting both "--flag value" and "--flag=value".
    auto opt = [&](const char* flag, std::string* out) -> bool {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) != 0) return false;
      if (argv[i][len] == '=') return *out = argv[i] + len + 1, true;
      if (argv[i][len] == '\0') return *out = need(flag), true;
      return false;
    };
    if (!std::strcmp(argv[i], "--help")) {
      print_usage(argv[0]);
      std::exit(0);
    }
    if (!std::strcmp(argv[i], "--env")) {
      std::printf("%s", fmmfft::obs::env::describe().c_str());
      std::exit(0);
    }
    if (opt("--trace", &o.trace) || opt("--metrics", &o.metrics) ||
        opt("--report", &o.report) || opt("--traffic", &o.traffic) ||
        opt("--decomp", &o.decomp) || opt("--grid", &o.grid) || opt("--fft3d", &o.fft3d))
      continue;
    if (!std::strcmp(argv[i], "--log2n")) o.log2n = std::atoi(need("--log2n"));
    else if (!std::strcmp(argv[i], "--precision")) o.precision = need("--precision");
    else if (!std::strcmp(argv[i], "--devices")) o.devices = std::atoi(need("--devices"));
    else if (!std::strcmp(argv[i], "--p")) o.p = std::atoll(need("--p"));
    else if (!std::strcmp(argv[i], "--ml")) o.ml = std::atoll(need("--ml"));
    else if (!std::strcmp(argv[i], "--b")) o.b = std::atoi(need("--b"));
    else if (!std::strcmp(argv[i], "--q")) o.q = std::atoi(need("--q"));
    else if (!std::strcmp(argv[i], "--eps")) o.eps = std::atof(need("--eps"));
    else if (!std::strcmp(argv[i], "--simulate")) o.simulate = need("--simulate");
    else if (!std::strcmp(argv[i], "--seed")) o.seed = std::strtoull(need("--seed"), nullptr, 10);
    else usage(argv[0]);
  }
  if (o.fft3d.empty() && (o.log2n < 10 || o.log2n > 26)) {
    std::printf("--log2n must be in [10, 26] for native execution\n");
    std::exit(2);
  }
  // --decomp/--grid choose the 3D FFT's decomposition and mean nothing to
  // the FMM-FFT, whose 2D FFT always runs the one-phase exchange.
  if (o.fft3d.empty() && !(o.decomp.empty() && o.grid.empty())) {
    std::printf("--decomp and --grid apply only to --fft3d\n");
    std::exit(2);
  }
  // They route through the obs::env registry (like FMMFFT_EXEC): validate
  // here for an early diagnostic, then publish as the env knobs that the
  // Dist3dFft constructed below resolves.
  try {
    if (!o.decomp.empty()) {
      (void)model::parse_decomp(o.decomp);
      setenv("FMMFFT_DECOMP", o.decomp.c_str(), 1);
    }
    if (!o.grid.empty()) {
      (void)model::parse_grid(o.grid);
      setenv("FMMFFT_GRID", o.grid.c_str(), 1);
    }
  } catch (const std::exception& e) {
    std::printf("%s\n", e.what());
    std::exit(2);
  }
  return o;
}

// --fft3d N0xN1xN2: distributed 3D FFT instead of the FMM-FFT pipeline.
// Real = the working scalar of the requested precision (c32 -> float).
template <typename Real>
int run_fft3d(const Options& o) {
  using Cx = std::complex<Real>;
  long long e0 = 0, e1 = 0, e2 = 0;
  if (std::sscanf(o.fft3d.c_str(), "%lldx%lldx%lld", &e0, &e1, &e2) != 3 || e0 <= 0 ||
      e1 <= 0 || e2 <= 0) {
    std::printf("--fft3d expects N0xN1xN2 (e.g. 64x64x32), got '%s'\n", o.fft3d.c_str());
    return 2;
  }
  const index_t n0 = e0, n1 = e1, n2 = e2;
  const index_t n = n0 * n1 * n2;

  if (!o.trace.empty()) obs::enable_tracing(true);
  if (!o.traffic.empty()) obs::enable_traffic(true);

  dist::Dist3dFft<Real> plan(n0, n1, n2, o.devices);
  const auto& dec = plan.decision();
  std::printf("3D FFT %lldx%lldx%lld (N=%lld)  devices=%d  decomp=%s", (long long)n0,
              (long long)n1, (long long)n2, (long long)n, o.devices,
              model::to_string(plan.decomp()));
  if (plan.decomp() == model::Decomp::Pencil)
    std::printf("  grid=%dx%d", plan.grid().pr, plan.grid().pc);
  if (dec.model_decided)
    std::printf("  (model: slab %.3f ms vs pencil %.3f ms)", dec.slab_seconds * 1e3,
                dec.pencil_seconds * 1e3);
  std::printf("\n");

  std::vector<Cx> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, o.seed);
  std::vector<Cx> y(static_cast<std::size_t>(n));

  WallTimer t;
  plan.execute(x.data(), y.data());
  const double secs = t.seconds();

  const double row = plan.fabric().bytes_with_tag("A2A-ROW");
  const double col = plan.fabric().bytes_with_tag("A2A-COL");
  const double slab = plan.fabric().bytes_with_tag("A2A-3D");
  std::printf("execute %.1f ms, exchange payloads: ", secs * 1e3);
  if (plan.decomp() == model::Decomp::Pencil)
    std::printf("row %.2f MB + col %.2f MB (%.2f + %.2f MB/device)\n", row / 1e6, col / 1e6,
                row / 1e6 / o.devices, col / 1e6 / o.devices);
  else
    std::printf("%.2f MB (%.2f MB/device)\n", slab / 1e6, slab / 1e6 / o.devices);

  int rc = 0;
  if (!o.traffic.empty()) {
    const int pr = plan.decomp() == model::Decomp::Pencil ? plan.grid().pr : 0;
    const int pc = plan.decomp() == model::Decomp::Pencil ? plan.grid().pc : 0;
    const auto report =
        obs::compare_fft3d_traffic(n0, n1, n2, o.devices, sizeof(Real), 1, pr, pc);
    std::printf("\ntraffic vs model (FMMFFT_TRAFFIC):\n%s", report.to_string().c_str());
    std::printf("traffic check: %s\n", report.all_ok() ? "OK" : "DEVIATION");
    if (!report.all_ok()) rc = 1;
    std::printf("\n%s", obs::TrafficLedger::global().report().c_str());
    if (obs::write_traffic_file(o.traffic))
      std::printf("wrote traffic ledger to %s\n", o.traffic.c_str());
    else
      std::printf("WARNING: could not write traffic ledger to %s\n", o.traffic.c_str());
  }
  if (!o.trace.empty()) {
    if (obs::write_trace_file(o.trace))
      std::printf("wrote trace to %s\n", o.trace.c_str());
    else
      std::printf("WARNING: could not write trace to %s\n", o.trace.c_str());
  }

  // Verify against the single-node reference transform. Plan3D works on the
  // natural layout (i0 fastest); the distributed driver hands back the fully
  // reversed layout y[i2 + n2·(i1 + n1·i0)], so compare through the remap.
  std::vector<Cx> ref(x);
  fft::Plan3D<Real> p3(n0, n1, n2);
  p3.execute(ref.data(), fft::Direction::Forward);
  double num = 0, den = 0;
  for (index_t i2 = 0; i2 < n2; ++i2)
    for (index_t i1 = 0; i1 < n1; ++i1)
      for (index_t i0 = 0; i0 < n0; ++i0) {
        const Cx a = y[(std::size_t)(i2 + n2 * (i1 + n1 * i0))];
        const Cx b = ref[(std::size_t)(i0 + n0 * (i1 + n1 * i2))];
        num += std::norm(a - b);
        den += std::norm(b);
      }
  const double err = std::sqrt(num / den);
  std::printf("rel l2 error vs reference 3D transform: %.2e\n", err);
  const double tol = sizeof(Real) == 8 ? 1e-12 : 1e-4;
  if (err > tol) rc = 1;
  return rc;
}

template <typename InT>
int run(const Options& o) {
  using Real = real_of_t<InT>;
  using Out = std::complex<Real>;
  const index_t n = index_t(1) << o.log2n;

  // Translation precision (FMMFFT_PRECISION): Mixed narrows the FMM
  // pipeline and its comm payloads to fp32 under an fp64 shell.
  const fmm::Precision prec = fmm::default_precision();
  fmm::Params prm;
  if (o.p > 0) {
    prm = fmm::Params{n, o.p, o.ml, o.b, o.q};
    prm.validate_distributed(o.devices);
  } else {
    prm = fmm::suggest_params(n, o.eps, o.devices, prec, sizeof(Real) == 8);
  }
  std::printf("plan: %s  devices=%d  precision=%s  translation=%s\n", prm.to_string().c_str(),
              o.devices, o.precision.c_str(), fmm::to_string(prec));
  std::printf("predicted rel l2 error: %.1e\n",
              fmm::predict_rel_error(prm.q, sizeof(Real) == 8, prec));

  if (!o.trace.empty()) obs::enable_tracing(true);
  if (!o.metrics.empty()) obs::enable_metrics(true);
  if (!o.traffic.empty()) obs::enable_traffic(true);

  std::vector<InT> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, o.seed);
  std::vector<Out> y(static_cast<std::size_t>(n));

  WallTimer t;
  if (o.devices > 1) {
    dist::DistFmmFft<InT> plan(prm, o.devices, prec);
    const double setup = t.seconds();
    t.reset();
    plan.execute(x.data(), y.data());
    std::printf("setup %.1f ms, execute %.1f ms, comm %.2f MB over the fabric\n", setup * 1e3,
                t.seconds() * 1e3, plan.fabric().total_bytes() / 1e6);
  } else {
    core::FmmFft<InT> plan(prm, /*fuse_post=*/true, prec);
    const double setup = t.seconds();
    t.reset();
    plan.execute(x.data(), y.data());
    std::printf("setup %.1f ms, execute %.1f ms (FMM %.1f ms in %lld launches, 2D FFT %.1f ms)\n",
                setup * 1e3, t.seconds() * 1e3, plan.profile().fmm_seconds() * 1e3,
                (long long)plan.profile().kernel_launches(), plan.profile().fft_seconds * 1e3);
  }

  // Model-vs-measured check must run now: the exact-FFT verification below
  // would add its own fft.flops to the counters.
  if (obs::metrics_enabled()) {
    const auto report =
        obs::compare_with_model(prm, is_complex_v<InT> ? 2 : 1, o.devices, sizeof(Real), 1,
                                fmm::translation_real_bytes(prec, sizeof(Real)));
    std::printf("\nmodel vs measured (FMMFFT_METRICS):\n%s", report.to_string().c_str());
    std::printf("model check: %s\n", report.all_ok() ? "OK" : "DEVIATION");
  }

  // Dump observability artifacts now, before the exact-FFT verification
  // below contaminates the counters with its own fft.flops.
  if (!o.trace.empty()) {
    if (obs::write_trace_file(o.trace))
      std::printf("wrote trace to %s\n", o.trace.c_str());
    else
      std::printf("WARNING: could not write trace to %s\n", o.trace.c_str());
  }
  if (!o.metrics.empty()) {
    if (obs::write_metrics_file(o.metrics))
      std::printf("wrote metrics to %s\n", o.metrics.c_str());
    else
      std::printf("WARNING: could not write metrics to %s\n", o.metrics.c_str());
  }
  if (!o.traffic.empty()) {
    // Same ordering constraint: the exact-FFT verification below would add
    // its own fft bytes to the ledger.
    const auto report = obs::compare_traffic_with_model(
        prm, is_complex_v<InT> ? 2 : 1, o.devices, sizeof(Real), 1,
        fmm::translation_real_bytes(prec, sizeof(Real)));
    std::printf("\ntraffic vs model (FMMFFT_TRAFFIC):\n%s", report.to_string().c_str());
    std::printf("traffic check: %s\n", report.all_ok() ? "OK" : "DEVIATION");
    std::printf("\n%s", obs::TrafficLedger::global().report().c_str());
    if (obs::write_traffic_file(o.traffic))
      std::printf("wrote traffic ledger to %s\n", o.traffic.c_str());
    else
      std::printf("WARNING: could not write traffic ledger to %s\n", o.traffic.c_str());
  }

  // Verify against the exact transform in double precision.
  std::vector<std::complex<double>> xd(x.size()), ref(x.size()), yd(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if constexpr (is_complex_v<InT>)
      xd[i] = {double(x[i].real()), double(x[i].imag())};
    else
      xd[i] = {double(x[i]), 0.0};
    yd[i] = {double(y[i].real()), double(y[i].imag())};
  }
  core::exact_fft(n, xd.data(), ref.data());
  const double err = rel_l2_error(yd.data(), ref.data(), n);
  std::printf("measured rel l2 error: %.2e\n", err);

  if (!o.simulate.empty() || !o.report.empty()) {
    // --report without --simulate analyzes the default paper architecture.
    const std::string which = o.simulate.empty() ? "2xp100" : o.simulate;
    model::ArchParams arch = which == "2xk40"    ? model::k40c_pcie(2)
                             : which == "8xp100" ? model::p100_nvlink(8)
                                                 : model::p100_nvlink(2);
    const model::Workload w{n, is_complex_v<InT>, sizeof(Real) == 8};
    auto fsched = dist::fmmfft_schedule(prm, w, arch.num_devices);
    const auto fres = fsched.simulate(arch);
    const double tb =
        dist::baseline1d_schedule(n, w, arch.num_devices).simulate(arch).total_seconds;
    std::printf("simulated on %s: FMM-FFT %.3f ms vs 1D FFT %.3f ms -> speedup %.2fx\n",
                arch.name.c_str(), fres.total_seconds * 1e3, tb * 1e3,
                tb / fres.total_seconds);

    const obs::Report rep = obs::analyze(fsched, fres, arch);
    std::printf("\n%s", rep.to_string().c_str());
    if (!o.report.empty()) {
      std::ofstream os(o.report);
      if (os) {
        rep.write_json(os);
        os << "\n";
        std::printf("wrote analyzer report to %s\n", o.report.c_str());
      } else {
        std::printf("WARNING: could not write report to %s\n", o.report.c_str());
      }
    }
  }
  return err < fmm::predict_rel_error(prm.q, sizeof(Real) == 8, prec) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (!o.fft3d.empty()) {
    if (o.precision == "c64" || o.precision == "f64") return run_fft3d<double>(o);
    if (o.precision == "c32" || o.precision == "f32") return run_fft3d<float>(o);
    usage(argv[0]);
  }
  if (o.precision == "c64") return run<std::complex<double>>(o);
  if (o.precision == "c32") return run<std::complex<float>>(o);
  if (o.precision == "f64") return run<double>(o);
  if (o.precision == "f32") return run<float>(o);
  usage(argv[0]);
}
