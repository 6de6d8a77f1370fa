// Runtime health layer: flight recorder, watchdog, span sampler, postmortem.
//
// The tracer/metrics/ledger (obs.hpp, traffic.hpp) explain a run after it
// finishes; this subsystem observes a run *while it executes* and captures
// forensic state when it fails. Four facilities share the usual on/off
// discipline (compiled in everywhere, one relaxed atomic load + branch when
// disabled):
//
//  * Flight recorder — compact events (task start/finish, comm chunks,
//    marks) appended to the calling thread's obs event ring, beside its
//    spans (obs::Recorder). Rings wrap, so the most recent history is always
//    available, and every slot is a seqlocked bundle of relaxed atomics:
//    dumping the rings mid-flight — even from a signal handler — is
//    race-free and never blocks a writer. Armed with the watchdog or
//    FMMFFT_POSTMORTEM, the two things that can ask for a postmortem.
//
//  * Watchdog — a background thread polling registered Sources (the
//    exec::TaskGraph while it runs; every distributed driver runs one, in
//    both exec modes). A source whose progress counter does not advance
//    for FMMFFT_WATCHDOG_MS fires the watchdog: the source's describe_stall()
//    walks its state to name the stuck task, its stage/device/lane, and the
//    unfinished dependency chain blocking it; the verdict goes to stderr,
//    last_verdict(), and a postmortem dump.
//
//  * Span sampler — a low-rate thread (FMMFFT_SAMPLE_HZ) reading each
//    thread's innermost open obs span from its event ring into time-in-stage
//    sample counts: continuous attribution with tracing off (spans record
//    while sampling is on).
//
//  * Postmortem dump — fmmfft.postmortem.v1 JSON (cause + verdict + ring
//    events + sampler counts + metrics + traffic ledger), written on
//    watchdog timeout, uncaught task exception (exec::TaskGraph::run), and
//    fatal signals. The signal path (SIGSEGV/SIGABRT) is async-signal-safe:
//    a pre-resolved path, write(2), and hand-rolled formatting only, dumping
//    the cause and the ring events (the heap-owning registries are not
//    touchable from a handler).
//
// Fault injection (exec::inject_stall) lets tests force a deterministic
// stall and assert the whole detect→attribute→dump pipeline end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace fmmfft::obs::health {

// ---------------------------------------------------------------------------
// Flight recorder

using obs::Ev;

inline bool flight_enabled() {
  return obs::detail::g_gate.load(std::memory_order_relaxed) & obs::detail::kFlight;
}

/// Record one event on the calling thread's ring (~1ns when disabled). The
/// tag is cut to RingEvent::kTagCap - 1 characters.
inline void flight(Ev kind, std::uint32_t a, int lane, const char* tag) {
  if (!flight_enabled()) return;
  obs::detail::record(kind, a, lane, tag);
}

void enable_flight(bool on = true);
/// Consistent decoded copy of every ring since the last clear, spans
/// included, ordered by (ring, seq). Safe to call at any moment, including
/// while all threads keep recording.
std::vector<RingEvent> flight_snapshot();
/// Total events ever recorded (wrapped and cleared events still count).
std::uint64_t flight_recorded();
/// Same as Recorder::clear(): spans and flight events share the rings.
void flight_clear();

// ---------------------------------------------------------------------------
// Watchdog

/// A monitorable execution. progress() must advance whenever real forward
/// progress happens; describe_stall() is called (from the watchdog thread)
/// after the deadline passed without advancement and should name the stuck
/// work as precisely as possible. Implementations must be callable from a
/// foreign thread at any time between register_source/unregister_source.
class Source {
 public:
  virtual ~Source() = default;
  virtual const char* source_name() const = 0;
  virtual std::uint64_t progress() const = 0;
  virtual std::string describe_stall() const = 0;
};

/// Register/unregister a source. unregister blocks until any in-flight
/// watchdog inspection of the source finished, so the pointee may be
/// destroyed immediately after unregistering.
void register_source(Source* s);
void unregister_source(Source* s);

/// Start (deadline_ms > 0) or stop (0) the watchdog thread. Starting also
/// arms the flight recorder so a verdict has history to dump.
void enable_watchdog(std::uint64_t deadline_ms);
bool watchdog_enabled();
std::uint64_t watchdog_deadline_ms();
/// Number of stalls the watchdog has fired on since process start.
std::uint64_t watchdog_fires();
/// Copy of the most recent stall verdict ("" if none fired yet).
std::string last_verdict();

// ---------------------------------------------------------------------------
// Span sampler

/// Start (hz > 0) or stop (0) the sampler thread. Spans record into the
/// event rings while it runs.
void enable_sampler(double hz);
bool sampler_enabled();
/// Sample counts per innermost span name, plus "(idle)" for threads with no
/// open span. One sample ≈ 1/hz seconds of that thread's time.
std::map<std::string, std::uint64_t> sampler_snapshot();
std::uint64_t sampler_samples();
void sampler_clear();

// ---------------------------------------------------------------------------
// Postmortem

/// Resolved dump path (FMMFFT_POSTMORTEM or the default). Stable storage.
std::string postmortem_path();
void set_postmortem_path(const std::string& path);

/// True once any health facility is on or a postmortem path was configured:
/// the gate for automatic dumps (task exceptions, signals), so a library
/// user who never enabled health does not get surprise files.
bool postmortem_armed();
void arm_postmortem(bool on = true);

/// Write a fmmfft.postmortem.v1 JSON dump: cause, verdict, ring events,
/// sampler counts, watchdog state, metrics, traffic ledger.
bool write_postmortem(const std::string& path, const std::string& cause,
                      const std::string& verdict);
/// write_postmortem to the resolved path, if armed. Returns the path
/// written ("" when disarmed or on write failure). Used by the watchdog and
/// by exec::TaskGraph's exception path.
std::string emit_postmortem(const std::string& cause, const std::string& verdict);

/// Install SIGSEGV/SIGABRT handlers that write a reduced postmortem (cause
/// + ring events) through the async-signal-safe path, then re-raise.
void install_crash_handlers();

namespace detail {
/// The async-signal-safe dump body the installed handlers invoke: open(2) +
/// write(2) + hand-rolled formatting to the pre-resolved path. Exposed so
/// tests can validate the emitted JSON without crashing the process.
void write_signal_dump(int sig);
}  // namespace detail

/// Read the FMMFFT_WATCHDOG_MS / FMMFFT_SAMPLE_HZ / FMMFFT_POSTMORTEM knobs
/// and arm the corresponding facilities. Runs automatically at startup from
/// obs.cpp's initializer.
void init_from_env();

}  // namespace fmmfft::obs::health

// ---------------------------------------------------------------------------
// Hook macro — what hot paths touch. Disabled cost: one relaxed load + branch.

#ifdef FMMFFT_OBS_DISABLE
#define FMMFFT_FLIGHT(kind, a, lane, tag) ((void)0)
#else
#define FMMFFT_FLIGHT(kind, a, lane, tag)                                      \
  ::fmmfft::obs::health::flight(::fmmfft::obs::Ev::kind,                       \
                                static_cast<std::uint32_t>(a), (lane), (tag))
#endif
