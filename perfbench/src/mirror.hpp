// The traced mirror: a benchmark-owned copy of ScenarioRunner::run()'s
// serial stepping loop with inline probes (src/scenario/runner.cpp), built
// only from the library's public calls, with one span around each call.
//
// It must track runner.cpp: same master and probe rng streams, same call
// order, same flush points. The benchmark proves that on every invocation
// by comparing the mirror's trace hash, fingerprint and final-sample probe
// values bitwise against an untraced ScenarioRunner::run() of the same spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = xheal::core;
namespace graph = xheal::graph;
namespace scenario = xheal::scenario;
namespace spectral = xheal::spectral;
namespace util = xheal::util;

/// Deterministic work the mirror saw, summed over the whole run.
struct WorkCounts {
    core::RepairReport totals;       ///< every delete, stage and flush report
    std::size_t deletes = 0;         ///< delete_node + stage_delete calls
    std::size_t combine_deletes = 0; ///< deletions whose report had combines > 0
    /// Per-deletion edges touched (edges_added + edges_removed of the
    /// deletion's own report), bucketed by bit width: bucket b holds work w
    /// with std::bit_width(w) == b, the last bucket everything wider.
    std::vector<std::uint64_t> work_log2;
    std::size_t compactions = 0;
    std::size_t samples = 0;
};

struct MirrorResult {
    std::uint64_t trace_hash = 0;
    std::uint64_t fingerprint = 0;
    std::size_t events = 0;
    scenario::MetricSample final_sample;
    std::vector<std::string> failures;  ///< expectation failures; empty = PASS
    WorkCounts work;
    std::uint64_t probe_rebuilds = 0;
    std::uint64_t probe_patched_rows = 0;
};

class Mirror {
public:
    static constexpr std::size_t work_buckets = 17;

    /// Set-up as ScenarioRunner's constructor does it: topology from the
    /// master rng, healer, session, graph journals. Spans: make_topology,
    /// session_init.
    Mirror(const scenario::ScenarioSpec& spec, SpanLog& log);

    /// The serial loop of ScenarioRunner::run() with inline sampling, then
    /// the final sample, hashes and expectations. Call once.
    MirrorResult run();

    const core::HealingSession& session() const { return *session_; }
    std::size_t kappa() const { return kappa_; }

private:
    struct Probes {
        bool connected = false;
        bool degree = false;
        bool lambda2 = false;
        bool stretch = false;
    };

    Probes cadence_probes() const;
    Probes final_probes() const;
    scenario::MetricSample take_sample(std::size_t step, const std::string& phase,
                                       const Probes& probes);
    void evaluate(MirrorResult& result, std::size_t peak_slots,
                  std::size_t live_high_water) const;

    const scenario::ScenarioSpec& spec_;
    SpanLog& log_;
    util::Rng rng_;
    util::Rng probe_rng_;
    spectral::ProbeEngine probe_engine_;
    std::size_t kappa_ = 1;
    const core::CloudRegistry* registry_ = nullptr;
    std::optional<core::HealingSession> session_;
};

/// Alive nodes of the session over the Lemma 3 bound
/// deg_G(v) <= kappa * deg_G'(v) + 2 * kappa, over the same node set
/// core::check_degree_bound walks.
std::size_t degree_bound_excess(const core::HealingSession& session, std::size_t kappa);

}  // namespace perfbench
