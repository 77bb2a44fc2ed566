// The stack benchmark's workloads. Each takes the run arguments, builds its
// inputs from the seed, times its window and checks its outputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "measure.hpp"

namespace stackbench {

/// Client threads, the calling thread included. All load comes from one
/// process and the service runs no threads of its own (ServiceOptions::jobs
/// stays 1). serve_recurring uses one client: on the 4-vCPU reference box a
/// second client added about 15% to its throughput but doubled its p99, and
/// with four clients p99 swung 5x whenever other work on the host took CPU
/// away (a descheduled client holding a lock stalls the rest).
/// serve_onboarding's open loop needs spare clients to keep to its schedule
/// while one waits behind a tuning session.
inline constexpr std::size_t kRecurringClients = 1;
inline constexpr std::size_t kOnboardingClients = 3;
/// tune_session's set-up is repeated this many times per run; setup_s is the
/// median. One set-up takes about 0.5 s, and the host's speed changes every
/// few seconds, so the repeats are spread over about 6 s.
inline constexpr int kSetupRepeats = 11;
/// ops_per_s, p50_us and p99_us are trimmed means over slices of the timed
/// window
/// about this long.
inline constexpr double kSliceS = 2.0;

RunResult run_serve_recurring(const RunArgs& args);
RunResult run_serve_onboarding(const RunArgs& args);
RunResult run_tune_session(const RunArgs& args);

/// `reference` sub-command: the budget-heavy search that produces the
/// tune_session reference bests of every cell. Prints the reference file to
/// stdout.
int write_references(std::uint64_t seed);
/// `selftest` sub-command: percentile helper checks, and one reference
/// cell re-derived against the stored file. Returns the failure count.
int run_selftest(const std::string& reference_path);

}  // namespace stackbench
