// Parallel batch execution of scenario specs over a fixed worker pool.
//
// `xheal_run batch` (and the batch determinism tests) hand a pre-parsed job
// list to run_batch(), which executes each spec on one of `workers` pool
// threads and returns outcomes positionally: outcomes[i] always describes
// jobs[i], whatever the worker count or scheduling interleaving was.
//
// Determinism contract: a ScenarioRunner is self-contained — master rng,
// probe stream, healer, session and probe scratch are all owned by the
// runner, and each worker constructs a fresh runner per job — so a spec's
// trace hash, fingerprint, verdict and sampled metric values are identical
// at --jobs 1 and --jobs N. Only the timing fields vary. Work distribution
// is dynamic (an atomic next-job cursor), which affects throughput only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace xheal::trace_tools {

/// One spec to execute, with every ambient override (healer substitution,
/// schedule truncation) already applied by the caller.
struct BatchJob {
    std::string file;  ///< display name (filename within the batch dir)
    scenario::ScenarioSpec spec;
};

/// One job's outcome. Timing fields are the only non-deterministic members.
struct BatchOutcome {
    std::string file;
    std::string scenario;
    std::string healer;
    bool pass = false;
    std::size_t steps = 0;
    std::size_t events = 0;
    std::uint64_t trace_hash = 0;
    std::uint64_t fingerprint = 0;
    double seconds = 0.0;
    double steps_per_sec = 0.0;
    double probe_seconds = 0.0;
    std::size_t samples = 0;
    /// Distributed-protocol billing at run end (cumulative, deterministic;
    /// 0 for non-message-passing healers), plus the deletion count they
    /// amortize over — the batch JSON's Theorem 5 columns.
    std::size_t deletions = 0;
    std::size_t messages = 0;
    std::size_t rounds = 0;
    std::size_t retries = 0;
    std::vector<std::string> failures;
    /// The runner threw (spec names an unknown component, replay-grade
    /// invariant tripped, ...). `error` carries the message; the other
    /// result fields are defaults.
    bool errored = false;
    std::string error;
};

/// Execute every job on a pool of min(workers, jobs.size()) threads
/// (workers == 0 behaves as 1) and return positionally matching outcomes.
std::vector<BatchOutcome> run_batch(const std::vector<BatchJob>& jobs,
                                    std::size_t workers);

}  // namespace xheal::trace_tools
