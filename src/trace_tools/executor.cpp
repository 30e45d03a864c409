#include "trace_tools/executor.hpp"

#include <algorithm>

#include "scenario/runner.hpp"
#include "util/rng.hpp"

namespace xheal::trace_tools {

namespace {

/// Never apply a delete at or below this population.
constexpr std::size_t min_alive = 2;

}  // namespace

using scenario::ScenarioSpec;
using scenario::Trace;
using scenario::TraceEvent;

Trace ExecResult::to_trace(const ScenarioSpec& spec) const {
    return scenario::make_trace(spec, applied, trace_hash, fingerprint);
}

ExecResult TraceExecutor::execute(const ScenarioSpec& spec,
                                  const std::vector<TraceEvent>& events) {
    // scenario::build_session is the same constructor path ScenarioRunner
    // uses (master Rng at spec.seed draws the topology, the healer takes
    // its own seed) — sharing it is what makes canonical traces replayable
    // through ScenarioRunner byte-for-byte.
    util::Rng rng(spec.seed);
    std::size_t kappa = 1;
    const core::CloudRegistry* registry = nullptr;
    core::HealingSession session =
        scenario::build_session(spec, rng, nullptr, kappa, registry);
    // Events go through the runner's own applier, so each one runs under
    // its phase's fault model exactly as in replay. Batch grouping is a
    // live-run concept (reproducer specs normalize it to 1): every repair
    // here completes before the oracles look.
    ScenarioSpec unbatched = spec;
    for (auto& phase : unbatched.phases) phase.batch = 1;
    scenario::EventApplier applier(unbatched, session, probe_engine_);

    core::InvariantSuite suite(kappa);
    suite.enable_degree_bound(options_.degree_bound && registry != nullptr);
    if (!std::isnan(options_.lambda2_floor))
        suite.set_lambda2_floor(options_.lambda2_floor, [this](const graph::Graph& g) {
            return probe_engine_.lambda2(g);
        });

    ExecResult result;
    scenario::TraceHasher hasher;
    std::vector<core::InvariantFinding> findings;

    auto record_findings = [&](std::size_t event_index) {
        for (core::InvariantFinding& f : findings)
            result.violations.push_back(
                {event_index, std::move(f.oracle), std::move(f.message)});
        findings.clear();
    };

    // The healer may throw mid-event (a stateful healer driven past its
    // contract, or an injected fault gone wrong) — that is a finding, not a
    // tool crash. The throwing event is *kept* in the canonical stream
    // (re-execution reproduces the same exception at the same index), but
    // the session is unusable afterwards, so execution stops
    // unconditionally. Note such streams cannot go through the strict
    // ScenarioRunner::replay — it surfaces the same exception, which is the
    // reproduction.
    std::size_t since_check = 0;
    for (const TraceEvent& event : events) {
        // Canonicalize, or skip the event as infeasible on this session.
        TraceEvent canonical = event;
        canonical.step = result.applied.size();
        bool feasible = true;
        if (event.kind == TraceEvent::Kind::insert) {
            canonical.neighbors.erase(
                std::remove_if(canonical.neighbors.begin(), canonical.neighbors.end(),
                               [&](graph::NodeId u) {
                                   return !session.current().has_node(u);
                               }),
                canonical.neighbors.end());
            std::sort(canonical.neighbors.begin(), canonical.neighbors.end());
            canonical.neighbors.erase(
                std::unique(canonical.neighbors.begin(), canonical.neighbors.end()),
                canonical.neighbors.end());
            feasible = !canonical.neighbors.empty();
            // The session allocates the id before the healer runs: an
            // insert that throws has still taken this one.
            canonical.node = static_cast<graph::NodeId>(session.current().next_id());
        } else {
            // A stray neighbors field would enter the stream hash but never
            // survive the JSONL round-trip.
            canonical.neighbors.clear();
            if (event.kind == TraceEvent::Kind::remove) {
                feasible = session.current().has_node(event.node) &&
                           session.current().node_count() > min_alive;
            } else {
                // Epoch boundaries stay in the canonical stream (fuzzed
                // streams may move them anywhere); the live count is
                // rewritten to what this execution holds, so the canonical
                // event carries the value strict replay will verify.
                // Compacting a dense id space is an identity renumbering.
                canonical.node = static_cast<graph::NodeId>(session.current().node_count());
            }
        }
        if (!feasible) {
            ++result.skipped;
            continue;
        }

        std::string exception;
        bool session_dead = false;
        try {
            canonical.node = applier.apply(canonical);
        } catch (const std::exception& e) {
            exception = e.what();
            session_dead = true;
        }
        hasher.add(canonical);
        result.applied.push_back(std::move(canonical));
        if (session_dead) {
            result.violations.push_back(
                {result.applied.size() - 1, "healer-exception", std::move(exception)});
            break;
        }

        ++since_check;
        bool due = options_.check_every != 0 && since_check >= options_.check_every;
        if (due) {
            since_check = 0;
            suite.check_structural(session, findings);
            record_findings(result.applied.size() - 1);
            if (result.failed()) break;  // stop at the first finding
        }
    }

    // Final checks: the structural set if the cadence missed the last
    // event, then the spectral oracle (violations found here are located at
    // the last applied event). A session that already produced a finding —
    // a healer exception included — is not probed further.
    if (!result.failed()) {
        std::size_t final_index =
            result.applied.empty() ? 0 : result.applied.size() - 1;
        if (since_check != 0 || options_.check_every == 0) {
            suite.check_structural(session, findings);
            record_findings(final_index);
        }
        if (!result.failed()) {
            suite.check_spectral(session, findings);
            record_findings(final_index);
        }
    }

    result.trace_hash = hasher.value();
    result.fingerprint = scenario::graph_fingerprint(session.current());
    return result;
}

}  // namespace xheal::trace_tools
