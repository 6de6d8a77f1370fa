// Tests for the timeline simulator: lane serialization, dependency
// causality, stream overlap, comm/compute overlap, shared-bus contention,
// and the Chrome trace writer.
#include <gtest/gtest.h>

#include <sstream>

#include "model/arch.hpp"
#include "sim/fabric.hpp"
#include "sim/schedule.hpp"

namespace fmmfft::sim {
namespace {

using fmm::KernelClass;

model::ArchParams flat_arch(int g) {
  model::ArchParams a;
  a.name = "test";
  a.num_devices = g;
  a.gamma_f = a.gamma_d = 1e9;  // 1 flop = 1 ns
  a.beta_mem = 1e12;
  a.link_bw = 1e9;  // 1 byte = 1 ns
  a.link_latency = 0;
  a.launch_overhead = 0;
  a.links_shared = false;
  a.eff_batched_gemm = a.eff_custom = a.eff_gemv = a.eff_fft = 1.0;
  return a;
}

TEST(Schedule, KernelsOnSameStreamSerialize) {
  Schedule s;
  int a = s.add_kernel(0, "a", KernelClass::Custom, 1e6, 0, true, {});
  int b = s.add_kernel(0, "b", KernelClass::Custom, 1e6, 0, true, {});
  auto res = s.simulate(flat_arch(1));
  EXPECT_DOUBLE_EQ(res.timings[a].end, 1e-3);
  EXPECT_DOUBLE_EQ(res.timings[b].start, 1e-3);
  EXPECT_DOUBLE_EQ(res.total_seconds, 2e-3);
}

TEST(Schedule, DistinctStreamsOverlap) {
  Schedule s;
  s.add_kernel(0, "a", KernelClass::Custom, 1e6, 0, true, {}, /*stream=*/0);
  s.add_kernel(0, "b", KernelClass::Custom, 1e6, 0, true, {}, /*stream=*/1);
  auto res = s.simulate(flat_arch(1));
  EXPECT_DOUBLE_EQ(res.total_seconds, 1e-3);
  EXPECT_DOUBLE_EQ(res.kernel_busy, 2e-3);
}

TEST(Schedule, DependenciesEnforceCausality) {
  Schedule s;
  int a = s.add_kernel(0, "a", KernelClass::Custom, 1e6, 0, true, {});
  int b = s.add_kernel(1, "b", KernelClass::Custom, 1e6, 0, true, {a});
  auto res = s.simulate(flat_arch(2));
  EXPECT_GE(res.timings[b].start, res.timings[a].end);
  EXPECT_DOUBLE_EQ(res.total_seconds, 2e-3);
}

TEST(Schedule, CausalityHoldsForEveryOp) {
  // Property: no op starts before all its dependencies end.
  Schedule s;
  int prev = s.add_kernel(0, "k0", KernelClass::Custom, 1e5, 0, true, {});
  for (int i = 1; i < 20; ++i) {
    if (i % 3 == 0)
      prev = s.add_comm(i % 2, (i + 1) % 2, "c", 1e3, {prev});
    else
      prev = s.add_kernel(i % 2, "k", KernelClass::Custom, 1e5 * (i % 4 + 1), 0, true, {prev});
  }
  auto res = s.simulate(flat_arch(2));
  for (const auto& op : s.ops())
    for (int d : op.deps)
      EXPECT_GE(res.timings[op.id].start, res.timings[d].end) << "op " << op.id;
}

TEST(Schedule, CommOverlapsCompute) {
  // A transfer between devices 1->0 runs concurrently with device-0 compute.
  Schedule s;
  s.add_kernel(0, "k", KernelClass::Custom, 2e6, 0, true, {});
  s.add_comm(1, 0, "c", 2e6, {});
  auto res = s.simulate(flat_arch(2));
  EXPECT_DOUBLE_EQ(res.total_seconds, 2e-3);  // not 4e-3
  EXPECT_DOUBLE_EQ(res.comm_busy, 2e-3);
}

TEST(Schedule, SharedBusSerializesTransfers) {
  auto arch = flat_arch(4);
  Schedule dedicated;
  dedicated.add_comm(0, 1, "c", 1e6, {});
  dedicated.add_comm(2, 3, "c", 1e6, {});
  EXPECT_DOUBLE_EQ(dedicated.simulate(arch).total_seconds, 1e-3);
  arch.links_shared = true;
  EXPECT_DOUBLE_EQ(dedicated.simulate(arch).total_seconds, 2e-3);
}

TEST(Schedule, RooflinePicksMemoryBound) {
  auto arch = flat_arch(1);
  Schedule s;
  // 1e3 flops but 1e9 bytes at beta=1e12 -> memory time 1e-3 dominates.
  s.add_kernel(0, "m", KernelClass::Custom, 1e3, 1e9, true, {});
  EXPECT_NEAR(s.simulate(arch).total_seconds, 1e-3, 1e-9);
}

TEST(Schedule, EfficiencyAndLaunchOverheadApply) {
  auto arch = flat_arch(1);
  arch.launch_overhead = 1e-4;
  arch.eff_custom = 0.5;
  Schedule s;
  s.add_kernel(0, "k", KernelClass::Custom, 1e6, 0, true, {});
  EXPECT_NEAR(s.simulate(arch).total_seconds, 1e-4 + 2e-3, 1e-12);
}

TEST(Schedule, LatencyDominatesSmallMessages) {
  auto arch = flat_arch(2);
  arch.link_latency = 1e-5;
  Schedule s;
  s.add_comm(0, 1, "tiny", 8, {});
  EXPECT_NEAR(s.simulate(arch).total_seconds, 1e-5 + 8e-9, 1e-12);
}

TEST(Schedule, MetaOpsAreFree) {
  Schedule s;
  int a = s.add_kernel(0, "a", KernelClass::Custom, 1e6, 0, true, {});
  int m = s.add_meta("join", {a});
  int b = s.add_kernel(0, "b", KernelClass::Custom, 1e6, 0, true, {m});
  auto res = s.simulate(flat_arch(1));
  EXPECT_DOUBLE_EQ(res.timings[m].start, res.timings[m].end);
  EXPECT_DOUBLE_EQ(res.timings[b].start, res.timings[a].end);
}

TEST(Schedule, CountersAndLabels) {
  Schedule s;
  s.add_kernel(0, "k", KernelClass::BatchedGemm, 1e6, 0, true, {});
  s.add_kernel(0, "k", KernelClass::BatchedGemm, 1e6, 0, true, {});
  s.add_comm(0, 1, "c", 5e5, {});
  EXPECT_EQ(s.kernel_launches(), 2);
  EXPECT_DOUBLE_EQ(s.total_comm_bytes(), 5e5);
  auto res = s.simulate(flat_arch(2));
  EXPECT_DOUBLE_EQ(res.label_seconds.at("k"), 2e-3);
  EXPECT_DOUBLE_EQ(res.label_seconds.at("c"), 5e-4);
}

TEST(Schedule, RejectsForwardDependencies) {
  Schedule s;
  EXPECT_THROW(s.add_kernel(0, "bad", KernelClass::Custom, 1, 0, true, {3}), Error);
}

TEST(Schedule, ChromeTraceIsWellFormedJson) {
  Schedule s;
  int a = s.add_kernel(0, "S2M", KernelClass::BatchedGemm, 1e6, 1e3, true, {});
  s.add_comm(0, 1, "COMM-S", 1e4, {a});
  auto res = s.simulate(flat_arch(2));
  std::ostringstream os;
  s.write_chrome_trace(res, os);
  std::string j = os.str();
  EXPECT_EQ(j.front(), '[');
  EXPECT_NE(j.find("\"S2M\""), std::string::npos);
  EXPECT_NE(j.find("\"COMM-S\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Fabric, LedgerAccounting) {
  Fabric f(3);
  std::vector<double> a{1, 2, 3}, b(3);
  f.send(0, 1, a.data(), b.data(), 3, "x");
  f.send(1, 2, a.data(), b.data(), 2, "y");
  f.send(2, 2, a.data(), b.data(), 3, "local");  // not recorded
  EXPECT_EQ(b, a);
  EXPECT_EQ(f.transfers(), 2u);
  EXPECT_DOUBLE_EQ(f.total_bytes(), 5 * 8.0);
  EXPECT_DOUBLE_EQ(f.bytes_sent_by(0), 24.0);
  EXPECT_DOUBLE_EQ(f.bytes_with_tag("y"), 16.0);
  f.reset();
  EXPECT_EQ(f.transfers(), 0u);
}

TEST(Fabric, BoundsChecked) {
  Fabric f(2);
  double x = 0, y = 0;
  EXPECT_THROW(f.send(0, 5, &x, &y, 1, "t"), Error);
  EXPECT_THROW(f.send(-1, 0, &x, &y, 1, "t"), Error);
}

}  // namespace
}  // namespace fmmfft::sim
