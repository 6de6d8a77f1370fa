// Byte-accounting interconnect for the *numerical* execution of distributed
// runs. Devices are simulated as separate memory arenas in one address
// space: a transfer is a memcpy plus a ledger entry (send), or — for the
// fused all-to-all, whose payload moves zero-copy as strided peer-to-peer
// writes — just the ledger entry (record). Either way tests can verify
// that the bytes that moved match the §5.2 communication model and the
// schedule emitted for the timeline simulator. The ledger keeps running
// totals (per directed pair, per tag, message count), so its size is fixed
// by the device and tag counts, not by how many transfers ran.
#pragma once

#include <cstddef>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::sim {

class Fabric {
 public:
  explicit Fabric(int num_devices) : g_(num_devices) {
    FMMFFT_CHECK(num_devices >= 1);
    pair_bytes_.assign(std::size_t(g_) * std::size_t(g_), 0.0);
  }

  int num_devices() const { return g_; }

  /// Move `count` elements from device `src` to device `dst`. Self-copies
  /// are local and not recorded as traffic. Payloads whose real component
  /// is 4 bytes wide (fp32 shells, and the mixed-precision multipole/source
  /// halos under an fp64 shell) land under ".f32"-suffixed metric/traffic
  /// keys, so every key holds bytes at exactly one element width and the
  /// §5 cross-check stays exact when widths coexist in one run. The span
  /// and the ledger's per-tag totals keep the plain tag (message identity,
  /// not width, is what they attribute).
  template <typename T>
  void send(int src, int dst, const T* s, T* d, index_t count, const std::string& tag) {
    FMMFFT_CHECK(src >= 0 && src < g_ && dst >= 0 && dst < g_);
    if (count == 0) return;
    FMMFFT_SPAN("xfer:", tag);
    std::memmove(d, s, sizeof(T) * static_cast<std::size_t>(count));
    account(src, dst, double(sizeof(T)) * double(count), tag,
            sizeof(real_of_t<T>) == 4);
  }

  /// Account a transfer whose payload already moved zero-copy (the fused
  /// all-to-all scatters producer slabs straight into consumer layouts, so
  /// there is no contiguous message to memmove). Ledger entries, metrics
  /// and traffic-ledger comm bytes are identical to send()'s; self-pairs
  /// are local placement and not recorded, like self send()s.
  /// `f32_payload` keys the bytes per element width like send() does.
  void record(int src, int dst, double bytes, const std::string& tag,
              bool f32_payload = false) {
    FMMFFT_CHECK(src >= 0 && src < g_ && dst >= 0 && dst < g_);
    if (src == dst || bytes <= 0) return;
    FMMFFT_SPAN("xfer:", tag);
    account(src, dst, bytes, tag, f32_payload);
  }

 private:
  void account(int src, int dst, double bytes, const std::string& tag, bool f32) {
    if (src == dst || bytes <= 0) return;
    {
      // The async executor issues copies from concurrent tasks; the ledger
      // is the only shared mutable state (the payload regions are disjoint
      // by construction of the dependency graph).
      std::lock_guard<std::mutex> lk(mu_);
      ++transfers_;
      total_bytes_ += bytes;
      pair_bytes_[std::size_t(src) * std::size_t(g_) + std::size_t(dst)] += bytes;
      tag_bytes_[tag] += bytes;
    }
    FMMFFT_COUNT("fabric.sends", 1);
    FMMFFT_COUNT("fabric.bytes", bytes);
    // Per-tag byte counters feed obs::compare_with_model; the name is
    // dynamic, so this bypasses the static-reference macro. The traffic
    // ledger mirrors the same convention: payload bytes, off-device only,
    // one element width per key.
    if (!obs::metrics_enabled() && !obs::traffic_enabled()) return;
    const std::string key = f32 ? tag + ".f32" : tag;
    if (obs::metrics_enabled())
      obs::Metrics::global().counter("fabric.bytes." + key).add(bytes);
    if (obs::traffic_enabled())
      obs::TrafficLedger::global().add_comm("comm." + key, bytes);
  }

 public:
  /// Readers run between graph executions (tests, reports), never
  /// concurrently with send(); the lock still guards against torn reads
  /// if they ever do. Byte totals sum integral payloads, so they are exact
  /// whatever order concurrent transfers land in.

  /// Off-device transfers accounted since construction or reset().
  std::size_t transfers() const {
    std::lock_guard<std::mutex> lk(mu_);
    return transfers_;
  }

  double total_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return total_bytes_;
  }

  /// Bytes device `src` sent to device `dst`.
  double bytes_between(int src, int dst) const {
    FMMFFT_CHECK(src >= 0 && src < g_ && dst >= 0 && dst < g_);
    std::lock_guard<std::mutex> lk(mu_);
    return pair_bytes_[std::size_t(src) * std::size_t(g_) + std::size_t(dst)];
  }

  /// Bytes sent by one device (the §5.2 counts are per process).
  double bytes_sent_by(int device) const {
    double b = 0;
    for (int dst = 0; dst < g_; ++dst) b += bytes_between(device, dst);
    return b;
  }

  double bytes_with_tag(const std::string& tag) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tag_bytes_.find(tag);
    return it == tag_bytes_.end() ? 0.0 : it->second;
  }

  /// Byte totals of every tag that carried traffic, by tag.
  std::map<std::string, double> bytes_by_tag() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, double> out;
    for (const auto& [tag, b] : tag_bytes_)
      if (b > 0) out.emplace(tag, b);
    return out;
  }

  /// Zeroes every total. Tags stay registered (at zero), so steady-state
  /// accounting after a reset allocates nothing.
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    transfers_ = 0;
    total_bytes_ = 0;
    pair_bytes_.assign(pair_bytes_.size(), 0.0);
    for (auto& kv : tag_bytes_) kv.second = 0;
  }

 private:
  int g_;
  mutable std::mutex mu_;
  std::size_t transfers_ = 0;
  double total_bytes_ = 0;
  std::vector<double> pair_bytes_;  ///< [src·G + dst]
  std::map<std::string, double> tag_bytes_;
};

}  // namespace fmmfft::sim
