// Inter-device exchanges over the simulated fabric, each described once as
// a list of pair messages (dist::Exchange) and executed two ways: `run`
// moves every message inside one parallel_for (the serial drivers), and
// `submit` adds the same messages to an exec::TaskGraph (the async
// drivers). One builder per pattern produces the list: the one-phase
// Π_{M,P} block-to-cyclic all-to-all (chunked), the row and column phases
// of the 2D and 3D pencil exchanges, the ring halo exchange and the
// allgather. Message granularity is one (src, dst) pair per device pair and
// producer chunk, so fabric byte counts correspond to real message traffic.
//
// A message moves its data in one of two ways. A *strided scatter* is
// fused: devices share one address space in the simulator, so the sender
// writes its block straight into the receiver's final layout (peer-to-peer
// strided writes, the AccFFT fused-pack discipline), reading and writing
// each element once, and the fabric only accounts the payload
// (Fabric::record). A *contiguous send* is a fabric copy (Fabric::send).
// The staged pack/copy/unpack all-to-all is kept below as the equivalence
// oracle for the fused one.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/permute.hpp"
#include "common/threadpool.hpp"
#include "common/types.hpp"
#include "dist/procgrid.hpp"
#include "exec/executor.hpp"
#include "sim/fabric.hpp"

namespace fmmfft::dist {

/// Which exchange a strided scatter belongs to, for the traffic ledger: the
/// one-phase global all-to-all, or the row / column sub-communicator phase
/// of a pencil two-phase exchange.
enum class A2aScope { Global, Row, Col };

/// Per-device data pointers of a set of device buffers.
template <typename T>
std::vector<T*> buffer_ptrs(std::vector<Buffer<T>>& bufs) {
  std::vector<T*> p;
  p.reserve(bufs.size());
  for (auto& b : bufs) p.push_back(b.data());
  return p;
}

/// Chunk c of `n` items cut into `chunks` ceil-sized pieces: [lo, hi), empty
/// (lo == hi) once the pieces run out.
inline std::pair<index_t, index_t> chunk_range(index_t n, index_t chunks, index_t c) {
  const index_t step = (n + chunks - 1) / chunks;
  return {std::min(n, c * step), std::min(n, c * step + step)};
}

/// One inter-device exchange: the pair messages of one collective phase,
/// sharing a fabric tag, a ledger scope and a task-label stem.
template <typename T>
struct Exchange {
  enum class Move {
    Transpose,  ///< strided scatter: batch × (y[j + i·out_ld] = x[i + j·in_ld])
    Copy,       ///< strided scatter: batch × (y[i + j·out_ld] = x[i + j·in_ld])
    Send,       ///< contiguous send of nr elements
  };
  /// Element (i, j) of batch b, i < nr, j < nc, sits at in + b·in_bstride
  /// on the sender and lands at out + b·out_bstride on the receiver.
  struct Message {
    int src = 0, dst = 0;  ///< sender, receiver
    int chunk = 0;         ///< which of the sender's producer tasks gates it
    Move move = Move::Transpose;
    const T* in = nullptr;
    T* out = nullptr;
    index_t nr = 0, nc = 1, in_ld = 0, out_ld = 0;
    index_t batch = 1, in_bstride = 0, out_bstride = 0;

    double bytes() const { return double(batch) * double(nr) * double(nc) * sizeof(T); }
  };

  int devices = 1;
  std::string tag = {};               ///< fabric tag of every message
  A2aScope scope = A2aScope::Global;  ///< ledger scope of the scatters
  /// Task labels: scatters submit "<label>pack <src>-><dst>[ c<chunk>]" and
  /// "<label>copy ...", sends "<label> <src>-><dst>".
  std::string label = {};
  bool chunked = false;  ///< labels carry the producer chunk
  /// Leased from the building thread's scratch arena: building and running
  /// a steady-state exchange allocates nothing.
  std::vector<Message, ScratchAllocator<Message>> msgs = {};

  /// Serial executor: every message moves its data and is accounted, all
  /// messages in one parallel_for. Messages write disjoint regions, so the
  /// result is independent of the worker count.
  void run(sim::Fabric& fabric) const {
    FMMFFT_CHECK(fabric.num_devices() == devices);
    parallel_for(
        index_t(msgs.size()),
        [&](index_t q0, index_t q1) {
          for (index_t q = q0; q < q1; ++q) {
            scatter(msgs[(std::size_t)q], scope);
            deliver(msgs[(std::size_t)q], fabric, tag);
          }
        },
        /*grain=*/1);
  }

  /// Tasks of a submitted exchange: per receiver, the link tasks landing
  /// there (join on them before reading); per sender, the tasks reading
  /// its buffer (gate later writes to it on them).
  struct Tasks {
    std::vector<std::vector<exec::TaskId>> arrived, reads;
  };

  /// Async executor: a strided scatter becomes a pack task on the sender's
  /// compute lane (unordered — packs write disjoint blocks) and an ordered
  /// record task on the pair's link lane; a send becomes one ordered copy
  /// task on the link lane. Each message waits on `producer(src, chunk)`
  /// and, when `ready` is given, on `ready[dst]`. Tasks are submitted in
  /// message order.
  template <typename Producer>
  Tasks submit(exec::TaskGraph& graph, const exec::DeviceLanes& lanes, sim::Fabric& fabric,
               Producer&& producer, const std::vector<exec::TaskId>& ready = {}) const {
    FMMFFT_CHECK(fabric.num_devices() == devices && lanes.g == devices);
    FMMFFT_CHECK(ready.empty() || (int)ready.size() == devices);
    Tasks t{std::vector<std::vector<exec::TaskId>>((std::size_t)devices),
            std::vector<std::vector<exec::TaskId>>((std::size_t)devices)};
    for (const Message& m : msgs) {
      std::string sfx = " " + std::to_string(m.src) + "->" + std::to_string(m.dst);
      if (chunked) sfx += " c" + std::to_string(m.chunk);
      std::vector<exec::TaskId> deps{producer(m.src, m.chunk)};
      if (!ready.empty()) deps.push_back(ready[(std::size_t)m.dst]);
      const int copy_lane = lanes.copy(m.src, m.dst);
      exec::TaskId read, link;
      if (m.move == Move::Send) {
        read = link = graph.submit(label + sfx, {copy_lane, /*ordered=*/true, "sync"},
                                   [&fabric, m, tag = tag] { deliver(m, fabric, tag); },
                                   std::move(deps));
      } else {
        read = graph.submit(label + "pack" + sfx,
                            {lanes.compute(m.src), /*ordered=*/false, "a2a"},
                            [m, scope = scope] { scatter(m, scope); }, std::move(deps));
        link = graph.submit(label + "copy" + sfx, {copy_lane, /*ordered=*/true, "a2a"},
                            [&fabric, m, tag = tag] { deliver(m, fabric, tag); }, {read});
      }
      t.reads[(std::size_t)m.src].push_back(read);
      t.arrived[(std::size_t)m.dst].push_back(link);
    }
    return t;
  }

  /// The sender-side half of a strided scatter: one read + one write per
  /// element, recorded under the scope's pack (reads) and unpack (writes)
  /// keys. Sends move nothing here.
  static void scatter(const Message& m, A2aScope scope) {
    if (m.move == Move::Send || m.nr <= 0 || m.nc <= 0 || m.batch <= 0) return;
    const double payload = m.bytes();
    // The ledger macro wants string literals, hence one call site per scope.
    switch (scope) {
      case A2aScope::Global:
        FMMFFT_TRAFFIC_RW("a2a.pack", payload, 0, 0);
        FMMFFT_TRAFFIC_RW("a2a.unpack", 0, payload, 0);
        break;
      case A2aScope::Row:
        FMMFFT_TRAFFIC_RW("a2a.row.pack", payload, 0, 0);
        FMMFFT_TRAFFIC_RW("a2a.row.unpack", 0, payload, 0);
        break;
      case A2aScope::Col:
        FMMFFT_TRAFFIC_RW("a2a.col.pack", payload, 0, 0);
        FMMFFT_TRAFFIC_RW("a2a.col.unpack", 0, payload, 0);
        break;
    }
    for (index_t b = 0; b < m.batch; ++b) {
      const T* x = m.in + b * m.in_bstride;
      T* y = m.out + b * m.out_bstride;
      if (m.move == Move::Transpose) {
        fmmfft::detail::transpose_strided_serial(x, m.in_ld, y, m.out_ld, m.nr, m.nc);
      } else {
        for (index_t j = 0; j < m.nc; ++j)
          std::memcpy(y + j * m.out_ld, x + j * m.in_ld, std::size_t(m.nr) * sizeof(T));
      }
    }
  }

  /// The fabric half: a send copies and accounts, a scatter (already
  /// moved) only accounts. Self-pairs are local and never accounted.
  static void deliver(const Message& m, sim::Fabric& fabric, const std::string& tag) {
    if (m.move == Move::Send)
      fabric.send(m.src, m.dst, m.in, m.out, m.nr, tag);
    else
      fabric.record(m.src, m.dst, m.bytes(), tag, sizeof(real_of_t<T>) == 4);
  }
};

namespace detail {

/// Scatters write the receivers' buffers while reading the senders', so no
/// input slab of `elems` elements may overlap an output slab.
template <typename T>
void check_disjoint(const std::vector<T*>& in, const std::vector<T*>& out, index_t elems) {
  const auto bytes = std::uintptr_t(elems) * sizeof(T);
  for (const T* a : in)
    for (const T* b : out) {
      const auto x = reinterpret_cast<std::uintptr_t>(a), y = reinterpret_cast<std::uintptr_t>(b);
      FMMFFT_CHECK_MSG(x + bytes <= y || y + bytes <= x,
                       "exchange input and output buffers overlap");
    }
}

inline std::string lower(std::string s) {
  for (char& c : s) c = char(std::tolower((unsigned char)c));
  return s;
}

}  // namespace detail

/// Distributed Π_{M,P}: y[m + p·M] = x[p + m·P] with both x and y block
/// partitioned into G contiguous slabs of N/G elements. Rank r owns
/// m ∈ [r·M/G, (r+1)·M/G) on the input side and p ∈ [r·P/G, (r+1)·P/G)
/// on the output side; every ordered pair (r → rr) ships (M/G)·(P/G)
/// elements as one transpose per chunk of r's local m-rows:
/// out[rr][(r·mg + pm) + pp·M] = in[r][(rr·pg + pp) + pm·P].
template <typename T>
Exchange<T> exchange_permute_mp(const std::vector<T*>& in, const std::vector<T*>& out, index_t m,
                                index_t p, std::string tag, index_t chunks = 1) {
  using X = Exchange<T>;
  const int g = (int)in.size();
  FMMFFT_CHECK(g >= 1 && (index_t)out.size() == g && chunks >= 1);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g;
  detail::check_disjoint(in, out, mg * p);
  X x{.devices = g, .tag = std::move(tag), .chunked = true};
  x.msgs.reserve(std::size_t(g * g * std::min(chunks, mg)));
  for (int r = 0; r < g; ++r)
    for (int rr = 0; rr < g; ++rr)
      for (index_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = chunk_range(mg, chunks, c);
        if (lo >= hi) break;
        x.msgs.push_back({.src = r, .dst = rr, .chunk = int(c), .move = X::Move::Transpose,
                          .in = in[(std::size_t)r] + rr * pg + lo * p,
                          .out = out[(std::size_t)rr] + r * mg + lo,
                          .nr = pg, .nc = hi - lo, .in_ld = p, .out_ld = m});
      }
  return x;
}

/// Row phase of the factorized two-phase Π_{M,P} over a pr×pc grid (the
/// Dalcin / AccFFT pencil exchange): sender s = (i,j) ships to t = (i,jj)
/// the pr blocks of p destined for grid column jj, keeping p-fastest order
/// (pure row copies, chunked over s's local m-rows). work[t] layout:
/// [sender column j][final row ii][pm·pg + pp]; N/G elements per device.
template <typename T>
Exchange<T> exchange_pencil2d_row(const std::vector<T*>& in, const std::vector<T*>& work,
                                  index_t m, index_t p, const ProcGrid& grid,
                                  index_t chunks = 1) {
  using X = Exchange<T>;
  const int g = grid.devices(), pr = grid.pr, pc = grid.pc;
  FMMFFT_CHECK((index_t)in.size() == g && (index_t)work.size() == g && chunks >= 1);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g, block = pg * mg;
  detail::check_disjoint(in, work, mg * p);
  X x{.devices = g, .tag = "A2A-ROW", .scope = A2aScope::Row, .label = "row-", .chunked = true};
  x.msgs.reserve(std::size_t(g * pc * std::min(chunks, mg)));
  for (int s = 0; s < g; ++s) {
    const int i = grid.row_of(s), j = grid.col_of(s);
    for (int jj = 0; jj < pc; ++jj) {
      const int t = grid.device(i, jj);
      for (index_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = chunk_range(mg, chunks, c);
        if (lo >= hi) break;
        x.msgs.push_back({.src = s, .dst = t, .chunk = int(c), .move = X::Move::Copy,
                          .in = in[(std::size_t)s] + jj * pg + lo * p,
                          .out = work[(std::size_t)t] + j * pr * block + lo * pg,
                          .nr = pg, .nc = hi - lo, .in_ld = p, .out_ld = pg,
                          .batch = pr, .in_bstride = pc * pg, .out_bstride = block});
      }
    }
  }
  return x;
}

/// Column phase of the two-phase Π_{M,P}: t = (i,jj) scatters batch ii of
/// every sender column into d = (ii,jj)'s final cyclic layout — the only
/// transposing hop. Row then column is bit-identical to the one phase.
template <typename T>
Exchange<T> exchange_pencil2d_col(const std::vector<T*>& work, const std::vector<T*>& out,
                                  index_t m, index_t p, const ProcGrid& grid) {
  using X = Exchange<T>;
  const int g = grid.devices(), pr = grid.pr, pc = grid.pc;
  FMMFFT_CHECK((index_t)work.size() == g && (index_t)out.size() == g);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g, block = pg * mg;
  detail::check_disjoint(work, out, mg * p);
  X x{.devices = g, .tag = "A2A-COL", .scope = A2aScope::Col, .label = "col-"};
  x.msgs.reserve(std::size_t(g * pr));
  for (int t = 0; t < g; ++t) {
    const int i = grid.row_of(t), jj = grid.col_of(t);
    for (int ii = 0; ii < pr; ++ii) {
      const int d = grid.device(ii, jj);
      x.msgs.push_back({.src = t, .dst = d, .move = X::Move::Transpose,
                        .in = work[(std::size_t)t] + ii * block,
                        .out = out[(std::size_t)d] + i * pc * mg,
                        .nr = pg, .nc = mg, .in_ld = pg, .out_ld = m,
                        .batch = pc, .in_bstride = pr * block, .out_bstride = mg});
    }
  }
  return x;
}

/// Row phase of the 3D pencil exchange: x-pencils (device (i,j) holds all
/// i0 of i1-block j, i2-block i) → y-pencils within each grid row. Pair
/// (i,j) → (i,jj) ships i0-block jj for every local (i1, i2): per i2 plane
/// one n0/pc × n1/pc transpose; chunks split the local i2 planes.
template <typename T>
Exchange<T> exchange_pencil3d_row(const std::vector<T*>& xp, const std::vector<T*>& yp,
                                  index_t n0, index_t n1, index_t n2, const ProcGrid& grid,
                                  index_t chunks = 1) {
  using X = Exchange<T>;
  const int g = grid.devices(), pr = grid.pr, pc = grid.pc;
  FMMFFT_CHECK((index_t)xp.size() == g && (index_t)yp.size() == g && chunks >= 1);
  const index_t n0pc = n0 / pc, n1pc = n1 / pc, n2pr = n2 / pr;
  detail::check_disjoint(xp, yp, n0 * n1pc * n2pr);
  X x{.devices = g, .tag = "A2A-ROW", .scope = A2aScope::Row, .label = "row-", .chunked = true};
  x.msgs.reserve(std::size_t(g * pc * std::min(chunks, n2pr)));
  for (int s = 0; s < g; ++s) {
    const int i = grid.row_of(s), j = grid.col_of(s);
    for (int jj = 0; jj < pc; ++jj) {
      const int t = grid.device(i, jj);
      for (index_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = chunk_range(n2pr, chunks, c);
        if (lo >= hi) break;
        x.msgs.push_back({.src = s, .dst = t, .chunk = int(c), .move = X::Move::Transpose,
                          .in = xp[(std::size_t)s] + jj * n0pc + lo * n0 * n1pc,
                          .out = yp[(std::size_t)t] + j * n1pc + lo * n1 * n0pc,
                          .nr = n0pc, .nc = n1pc, .in_ld = n0, .out_ld = n1,
                          .batch = hi - lo, .in_bstride = n0 * n1pc, .out_bstride = n1 * n0pc});
      }
    }
  }
  return x;
}

/// Column phase of the 3D pencil exchange: y-pencils → z-pencils (device
/// (ii,jj) holds all i2 of i1-block ii, i0-block jj) within each grid
/// column. Pair (i,jj) → (ii,jj) ships i1-block ii for every local (i0, i2),
/// transposing (i1, i2) per i0 line.
template <typename T>
Exchange<T> exchange_pencil3d_col(const std::vector<T*>& yp, const std::vector<T*>& zp,
                                  index_t n0, index_t n1, index_t n2, const ProcGrid& grid) {
  using X = Exchange<T>;
  const int g = grid.devices(), pr = grid.pr, pc = grid.pc;
  FMMFFT_CHECK((index_t)yp.size() == g && (index_t)zp.size() == g);
  const index_t n0pc = n0 / pc, n1pr = n1 / pr, n2pr = n2 / pr;
  detail::check_disjoint(yp, zp, n0pc * n1 * n2pr);
  X x{.devices = g, .tag = "A2A-COL", .scope = A2aScope::Col, .label = "col-"};
  x.msgs.reserve(std::size_t(g * pr));
  for (int t = 0; t < g; ++t) {
    const int i = grid.row_of(t), jj = grid.col_of(t);
    for (int ii = 0; ii < pr; ++ii) {
      const int d = grid.device(ii, jj);
      x.msgs.push_back({.src = t, .dst = d, .move = X::Move::Transpose,
                        .in = yp[(std::size_t)t] + ii * n1pr,
                        .out = zp[(std::size_t)d] + i * n2pr,
                        .nr = n1pr, .nc = n2pr, .in_ld = n1 * n0pc, .out_ld = n2,
                        .batch = n0pc, .in_bstride = n1, .out_bstride = n2 * n1pr});
    }
  }
  return x;
}

/// Cyclic ring halo exchange: every rank receives `elems` elements from
/// each neighbour — `lo_dst[r]` the *last* elems of rank r-1's interior
/// (`hi_src`), `hi_dst[r]` the *first* elems of rank r+1's (`lo_src`).
/// Direct interior-to-halo sends, receiver-major; task labels are the
/// lower-cased tag.
template <typename T>
Exchange<T> exchange_halo_ring(const std::vector<const T*>& lo_src,
                               const std::vector<const T*>& hi_src,
                               const std::vector<T*>& lo_dst, const std::vector<T*>& hi_dst,
                               index_t elems, const std::string& tag) {
  using X = Exchange<T>;
  const int g = (int)lo_src.size();
  X x{.devices = g, .tag = tag, .label = detail::lower(tag)};
  x.msgs.reserve(std::size_t(2 * g));
  for (int r = 0; r < g; ++r) {
    const int left = (r + g - 1) % g, right = (r + 1) % g;
    x.msgs.push_back({.src = left, .dst = r, .move = X::Move::Send,
                      .in = hi_src[(std::size_t)left], .out = lo_dst[(std::size_t)r],
                      .nr = elems});
    x.msgs.push_back({.src = right, .dst = r, .move = X::Move::Send,
                      .in = lo_src[(std::size_t)right], .out = hi_dst[(std::size_t)r],
                      .nr = elems});
  }
  return x;
}

/// Allgather: rank r contributes `slab_elems` at src[r]; afterwards every
/// rank's `dst` holds all G slabs in rank order. A local slab already in
/// place (src[r] == dst[r] + r·slab_elems) is no message. Sender-major
/// sends; task labels are the lower-cased tag.
template <typename T>
Exchange<T> exchange_allgather(const std::vector<const T*>& src, const std::vector<T*>& dst,
                               index_t slab_elems, const std::string& tag) {
  using X = Exchange<T>;
  const int g = (int)src.size();
  X x{.devices = g, .tag = tag, .label = detail::lower(tag)};
  x.msgs.reserve(std::size_t(g * g));
  for (int r = 0; r < g; ++r)
    for (int rr = 0; rr < g; ++rr) {
      T* to = dst[(std::size_t)rr] + r * slab_elems;
      if (rr == r && src[(std::size_t)r] == to) continue;
      x.msgs.push_back({.src = r, .dst = rr, .move = X::Move::Send, .in = src[(std::size_t)r],
                        .out = to, .nr = slab_elems});
    }
  return x;
}

/// Serial one-phase Π_{M,P} all-to-all (tests and benches).
template <typename T>
void all_to_all_permute_mp(sim::Fabric& fabric, const std::vector<T*>& in,
                           const std::vector<T*>& out, index_t m, index_t p,
                           const std::string& tag) {
  exchange_permute_mp(in, out, m, p, tag).run(fabric);
}

/// Staged reference all-to-all: pack into a send buffer, fabric copy,
/// unpack — the pre-fusion data path. Kept as the bit-identity oracle for
/// the fused path (tests) and as the bench contrast. Staging lives in the
/// calling thread's ScratchArena, so steady-state calls allocate nothing.
template <typename T>
void all_to_all_permute_mp_staged(sim::Fabric& fabric, const std::vector<T*>& in,
                                  const std::vector<T*>& out, index_t m, index_t p,
                                  const std::string& tag) {
  const int g = fabric.num_devices();
  FMMFFT_CHECK((index_t)in.size() == g && (index_t)out.size() == g);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g;
  ScratchBlock<T> stage_src(mg * pg), stage_dst(mg * pg);
  for (int r = 0; r < g; ++r) {        // sender: owns m-range [r*mg, ...)
    for (int rr = 0; rr < g; ++rr) {   // receiver: owns p-range [rr*pg, ...)
      // Pack elements (p, m) with p in rr's range from r's input slab.
      // Input slab local index of global n = p + m*P is n - r*mg*p_total.
      index_t k = 0;
      FMMFFT_TRAFFIC_RW("a2a.pack", double(mg) * double(pg) * sizeof(T),
                        double(mg) * double(pg) * sizeof(T), 0);
      for (index_t pm = 0; pm < mg; ++pm)       // local m offset
        for (index_t pp = 0; pp < pg; ++pp)     // local p offset
          stage_src[k++] = in[(std::size_t)r][(rr * pg + pp) + pm * p];
      fabric.send(r, rr, stage_src.data(), stage_dst.data(), mg * pg, tag);
      // Unpack into rr's output slab: local index of j = m + p*M is
      // j - rr*pg*m_total.
      k = 0;
      FMMFFT_TRAFFIC_RW("a2a.unpack", double(mg) * double(pg) * sizeof(T),
                        double(mg) * double(pg) * sizeof(T), 0);
      for (index_t pm = 0; pm < mg; ++pm)
        for (index_t pp = 0; pp < pg; ++pp)
          out[(std::size_t)rr][(r * mg + pm) + pp * m] = stage_dst[k++];
    }
  }
}

}  // namespace fmmfft::dist
