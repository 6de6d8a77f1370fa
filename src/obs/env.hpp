// Central registry of every FMMFFT_* environment knob.
//
// One process has a dozen tuning/observability switches; reading them with
// scattered std::getenv calls means no single place lists what exists, what
// a knob defaults to, or what it does — and typos silently read nothing.
// Every environment lookup in the library goes through env::get*, which
// FMMFFT_CHECKs the name against the registry below, so an unregistered
// knob is a hard error at the call site and `fmmfft_cli --env` can print
// the complete table (name, current value, default, description).
// tests/test_health.cpp additionally scans the source tree and fails if any
// TU outside this subsystem calls std::getenv("FMMFFT_...") directly.
#pragma once

#include <span>
#include <string>

namespace fmmfft::obs::env {

/// One registered knob. All strings are literals with static lifetime.
struct Knob {
  const char* name;  ///< "FMMFFT_TRACE"
  const char* kind;  ///< "path" | "int" | "float" | "flag" | "enum"
  const char* def;   ///< default shown in the table ("(unset)", "auto", ...)
  const char* desc;  ///< one-line description
};

/// Every FMMFFT_* knob the process understands, in display order. A static
/// table: reading it allocates nothing.
std::span<const Knob> registry();

/// Raw lookup (nullptr when unset). The name must be registered.
const char* get(const char* name);

/// Integer knob: parsed value when set and parseable, `def` otherwise.
long long get_int(const char* name, long long def);

/// Floating-point knob: parsed value when set and parseable, `def` otherwise.
double get_double(const char* name, double def);

/// Human-readable table of the whole registry with current values
/// (the body of `fmmfft_cli --env`).
std::string describe();

}  // namespace fmmfft::obs::env
