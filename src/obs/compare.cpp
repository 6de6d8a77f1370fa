#include "obs/compare.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/math.hpp"
#include "model/counts.hpp"
#include "obs/obs.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::obs {

double ModelCheck::rel_dev() const {
  return std::fabs(measured - predicted) / std::max(std::fabs(predicted), 1.0);
}

bool ModelReport::all_ok() const {
  for (const auto& c : checks)
    if (!c.ok()) return false;
  return true;
}

std::string ModelReport::to_string() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %16s %16s %10s %9s  %s\n", "counter", "measured",
                "predicted", "rel dev", "tol", "ok");
  os << line;
  for (const auto& c : checks) {
    std::snprintf(line, sizeof line, "%-24s %16.6e %16.6e %10.2e %9.1e  %s\n", c.name.c_str(),
                  c.measured, c.predicted, c.rel_dev(), c.tolerance, c.ok() ? "yes" : "NO");
    os << line;
  }
  return os.str();
}

void ModelReport::write_json(std::ostream& os) const {
  JsonWriter jw(os);
  jw.begin_object();
  jw.key("all_ok");
  jw.value(all_ok());
  jw.key("checks");
  jw.begin_array();
  for (const auto& c : checks) {
    jw.begin_object();
    jw.kv("name", c.name);
    jw.kv("measured", c.measured);
    jw.kv("predicted", c.predicted);
    jw.kv("rel_dev", c.rel_dev());
    jw.kv("tolerance", c.tolerance);
    jw.key("ok");
    jw.value(c.ok());
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
}

ModelReport compare_with_model(const fmm::Params& prm, int components, index_t g,
                               double real_bytes, int runs, double trans_bytes) {
  // Summation-noise tolerance for counts that must agree exactly.
  constexpr double kExact = 1e-9;
  const auto& m = Metrics::global();
  const double r = double(runs), gd = double(g);
  // Translation-pipeline width (FMM stages, halo payloads); the shell
  // (A2A, FFT, POST output) stays at real_bytes.
  const double tb = trans_bytes > 0 ? trans_bytes : real_bytes;

  double flops = 0, mem_scalars = 0, launches = 0;
  for (const auto& st : model::exact_fmm_counts(prm, components, g)) {
    flops += st.flops;
    mem_scalars += st.mem_scalars;
    launches += double(st.launches);
  }

  ModelReport rep;
  auto counter = [&](const std::string& name) { return m.counters_with_prefix(name); };
  rep.checks.push_back(
      {"fmm.flops", counter("fmm.flops"), r * gd * flops, kExact});
  rep.checks.push_back(
      {"fmm.mem_bytes", counter("fmm.mem_bytes"), r * gd * mem_scalars * tb, kExact});
  rep.checks.push_back(
      {"fmm.launches", counter("fmm.launches"), r * gd * launches, 0.0});

  // 2D-FFT stage: per device M/G size-P + P/G size-M transforms; summed
  // over devices (or the G = 1 plan) that is exactly 5·N·log2(N).
  const double n = double(prm.n);
  rep.checks.push_back(
      {"fft.flops", counter("fft.flops"), r * 5.0 * n * std::log2(n), kExact});

  // Fabric traffic, by collective, against the implementation-exact counts.
  const auto exact = model::exact_fmm_comm(prm, components, g);
  const double comm_s = counter("fabric.bytes.COMM-S");
  const double comm_mb = counter("fabric.bytes.COMM-MB");
  const double comm_ml = counter("fabric.bytes.COMM-M") - comm_mb;
  const double a2a = counter("fabric.bytes.A2A-2D");
  rep.checks.push_back({"fabric.COMM-S", comm_s, r * gd * exact.s_halo * tb, kExact});
  rep.checks.push_back({"fabric.COMM-Ml", comm_ml, r * gd * exact.m_halo * tb, kExact});
  rep.checks.push_back({"fabric.COMM-MB", comm_mb, r * gd * exact.m_base * tb, kExact});
  rep.checks.push_back({"fabric.A2A-2D", a2a,
                        g > 1 ? r * (gd - 1.0) / gd * n * 2.0 * real_bytes : 0.0, kExact});

  // The §5.2 closed forms track the fabric ledger up to two documented
  // conventions: the source halo ships the p = 0 slice too (factor
  // P/(P-1)) and the allgather's local slab is free (factor (G-1)/G).
  const auto paper = model::paper_fmm_comm(prm, components, g);
  rep.checks.push_back({"paper.s_halo", comm_s, r * gd * paper.s_halo * tb,
                        1.0 / double(prm.p - 1) + 1e-6});
  rep.checks.push_back({"paper.m_halo", comm_ml, r * gd * paper.m_halo * tb, kExact});
  rep.checks.push_back({"paper.m_base", comm_mb, r * gd * paper.m_base * tb,
                        g > 1 ? 1.0 / gd + 1e-6 : 0.0});
  return rep;
}

namespace {

// Sum a field over all ledger scopes with the given name prefix.
enum Field { kComm, kRw, kFlops };

double ledger_sum(const std::map<std::string, TrafficTotals>& snap, const std::string& prefix,
                  Field f) {
  double s = 0;
  for (const auto& [name, t] : snap) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    s += f == kComm ? t.comm_bytes : f == kRw ? t.bytes_read + t.bytes_written : t.flops;
  }
  return s;
}

}  // namespace

ModelReport compare_traffic_with_model(const fmm::Params& prm, int components, index_t g,
                                       double real_bytes, int runs, double trans_bytes) {
  constexpr double kExact = 1e-9;
  const auto snap = TrafficLedger::global().snapshot();
  const double r = double(runs), gd = double(g);
  const double n = double(prm.n);
  const double tb = trans_bytes > 0 ? trans_bytes : real_bytes;

  auto sum = [&](const std::string& prefix, Field f) { return ledger_sum(snap, prefix, f); };

  double flops = 0, mem_scalars = 0;
  for (const auto& st : model::exact_fmm_counts(prm, components, g)) {
    flops += st.flops;
    mem_scalars += st.mem_scalars;
  }

  ModelReport rep;
  // The transpose payload — the §5.3 "exact for A2A" guarantee: every
  // device ships all but its own slab once, (G-1)/G · N complex elements in
  // the one exchange.
  rep.checks.push_back({"traffic.a2a_payload", sum("comm.A2A-2D", kComm),
                        g > 1 ? r * (gd - 1.0) / gd * n * 2.0 * real_bytes : 0.0, kExact});
  const auto exact = model::exact_fmm_comm(prm, components, g);
  const double comm_mb = sum("comm.COMM-MB", kComm);
  rep.checks.push_back({"traffic.comm_s", sum("comm.COMM-S", kComm),
                        r * gd * exact.s_halo * tb, kExact});
  rep.checks.push_back({"traffic.comm_ml", sum("comm.COMM-M", kComm) - comm_mb,
                        r * gd * exact.m_halo * tb, kExact});
  rep.checks.push_back(
      {"traffic.comm_mb", comm_mb, r * gd * exact.m_base * tb, kExact});

  // FMM kernel traffic: the fmm.* scopes are compute-only (halo copies go
  // to halo.cyclic), so read+written matches the model's mem_scalars.
  rep.checks.push_back({"traffic.fmm_bytes", sum("fmm.", kRw),
                        r * gd * mem_scalars * tb, kExact});
  rep.checks.push_back({"traffic.fmm_flops", sum("fmm.", kFlops), r * gd * flops, kExact});

  // 2D-FFT stage data passes: summed over devices, M size-P rows plus P
  // size-M columns, each transform reading and writing stockham_passes
  // full lines. Predictable only for pow2 factors (no Bluestein configs in
  // the canonical set).
  const index_t p = prm.p, m = prm.m();
  if (is_pow2(p) && is_pow2(m)) {
    const double passes = double(stockham_passes(ilog2_exact(p))) +
                          double(stockham_passes(ilog2_exact(m)));
    rep.checks.push_back({"traffic.fft_bytes", sum("fft", kRw),
                          r * 2.0 * passes * n * 2.0 * real_bytes, kExact});
  }

  // POST sweep (fused shape): reads the C-component T tensor once at the
  // translation width, writes the complex FFT input once at the shell
  // width (identical when the widths agree).
  rep.checks.push_back({"traffic.post_bytes", sum("post", kRw),
                        r * n * (double(components) * tb + 2.0 * real_bytes), kExact});
  return rep;
}

ModelReport compare_fft3d_traffic(index_t n0, index_t n1, index_t n2, index_t g,
                                  double real_bytes, int runs, int pr, int pc) {
  constexpr double kExact = 1e-9;
  const auto snap = TrafficLedger::global().snapshot();
  const double r = double(runs), gd = double(g);
  const double n = double(n0) * double(n1) * double(n2);
  const double eb = 2.0 * real_bytes;  // complex element
  auto sum = [&](const std::string& prefix, Field f) { return ledger_sum(snap, prefix, f); };

  ModelReport rep;
  if (pr > 0) {
    // Pencil: per-phase fabric payloads, and the ledger's fused pack/unpack
    // bytes — each phase reads every element once and writes it once.
    rep.checks.push_back({"traffic.a2a_row_payload", sum("comm.A2A-ROW", kComm),
                          r * double(pc - 1) / double(pc) * n * eb, kExact});
    rep.checks.push_back({"traffic.a2a_col_payload", sum("comm.A2A-COL", kComm),
                          r * double(pr - 1) / double(pr) * n * eb, kExact});
    rep.checks.push_back({"traffic.a2a_row_bytes", sum("a2a.row.", kRw), r * 2.0 * n * eb,
                          kExact});
    rep.checks.push_back({"traffic.a2a_col_bytes", sum("a2a.col.", kRw), r * 2.0 * n * eb,
                          kExact});
  } else {
    // Slab: one G-wide exchange plus the local i0↔i1 reorientation pass.
    rep.checks.push_back({"traffic.a2a_payload", sum("comm.A2A-3D", kComm),
                          g > 1 ? r * (gd - 1.0) / gd * n * eb : 0.0, kExact});
    rep.checks.push_back({"traffic.transpose_bytes", sum("transpose", kRw),
                          r * 2.0 * n * eb, kExact});
  }

  // Three batched FFT phases; each pass reads and writes every line once.
  if (is_pow2(n0) && is_pow2(n1) && is_pow2(n2)) {
    const double passes = double(stockham_passes(ilog2_exact(n0))) +
                          double(stockham_passes(ilog2_exact(n1))) +
                          double(stockham_passes(ilog2_exact(n2)));
    rep.checks.push_back({"traffic.fft_bytes", sum("fft", kRw), r * 2.0 * passes * n * eb,
                          kExact});
  }
  return rep;
}

}  // namespace fmmfft::obs
