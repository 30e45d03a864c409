#include "mirror.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/trace.hpp"

namespace perfbench {

namespace {

/// ScenarioRunner's independent probe-stream salt (runner.cpp, probe_salt).
constexpr std::uint64_t probe_salt = 0x70726f6265735full;

/// ScenarioRunner's journal capacity rule (runner.cpp, journal_limit_for).
std::size_t journal_limit_for(const core::HealingSession& session) {
    return std::max<std::size_t>(4096, session.current().node_count() * 2);
}

}  // namespace

Mirror::Mirror(const scenario::ScenarioSpec& spec, SpanLog& log)
    : spec_(spec), log_(log), rng_(spec.seed), probe_rng_(spec.seed ^ probe_salt) {
    graph::Graph initial = [&] {
        Scope span(log_, Layer::make_topology);
        return scenario::make_topology(spec_.topology, rng_);
    }();
    Scope span(log_, Layer::session_init);
    scenario::HealerHandle handle = scenario::make_healer(spec_.healer, spec_.seed);
    kappa_ = handle.kappa;
    registry_ = handle.registry;
    session_.emplace(std::move(initial), std::move(handle.healer));
    session_->enable_graph_journals(journal_limit_for(*session_));
}

Mirror::Probes Mirror::cadence_probes() const {
    Probes probes;
    for (const std::string& name : spec_.probes) {
        if (name == "connected") probes.connected = true;
        else if (name == "degree") probes.degree = true;
        else if (name == "lambda2") probes.lambda2 = true;
        else if (name == "stretch") probes.stretch = true;
        else throw std::runtime_error("mirror: probe '" + name + "' is not mirrored");
    }
    return probes;
}

Mirror::Probes Mirror::final_probes() const {
    using Kind = scenario::Expectation::Kind;
    Probes probes = cadence_probes();
    for (const scenario::Expectation& e : spec_.expectations) {
        switch (e.kind) {
            case Kind::connected: probes.connected = true; break;
            case Kind::max_degree_ratio_le: probes.degree = true; break;
            case Kind::lambda2_ge: probes.lambda2 = true; break;
            case Kind::stretch_le: probes.stretch = true; break;
            case Kind::nodes_ge: break;
            case Kind::peak_slot_factor_le: break;
            case Kind::expansion_ge:
                throw std::runtime_error("mirror: expansion probe is not mirrored");
        }
    }
    return probes;
}

scenario::MetricSample Mirror::take_sample(std::size_t step, const std::string& phase,
                                           const Probes& probes) {
    Scope sample_span(log_, Layer::sample);
    const graph::Graph& g = session_->current();
    const graph::Graph& ref = session_->reference();
    scenario::MetricSample sample;
    sample.step = step;
    sample.phase = phase;
    sample.nodes = g.node_count();
    sample.edges = g.edge_count();
    sample.deletions = session_->deletions();
    sample.insertions = session_->insertions();
    sample.messages = session_->totals().messages;
    sample.rounds = session_->totals().rounds;
    sample.retries = session_->totals().retries;
    {
        Scope span(log_, Layer::snapshot);
        probe_engine_.begin_sample(g, g.journal(), g.journal_overflowed());
        probe_engine_.note_reference(ref, ref.journal(), ref.journal_overflowed());
        g.clear_journal();
        ref.clear_journal();
    }
    if (probes.connected) {
        Scope span(log_, Layer::components);
        sample.components = probe_engine_.component_count(g);
    }
    if (probes.degree) {
        Scope span(log_, Layer::degree);
        sample.max_degree = g.max_degree();
        core::DegreeIncrease increase = core::degree_increase(g, ref);
        sample.max_degree_ratio = increase.max_ratio;
        sample.mean_degree_ratio = increase.mean_ratio;
        double worst = 0.0;
        double two_kappa = 2.0 * static_cast<double>(kappa_);
        for (graph::NodeId v : g.nodes()) {
            std::size_t dref = ref.degree(v);
            if (dref == 0) continue;
            double slack = static_cast<double>(g.degree(v)) - two_kappa;
            worst = std::max(worst, slack / static_cast<double>(dref));
        }
        sample.worst_slack_ratio = worst;
    }
    if (probes.lambda2) {
        Scope span(log_, Layer::lambda2);
        sample.lambda2 = probe_engine_.lambda2(g);
    }
    if (probes.stretch) {
        Scope span(log_, Layer::stretch);
        sample.stretch =
            probe_engine_.sampled_stretch(g, ref, spec_.stretch_samples, probe_rng_);
    }
    {
        Scope span(log_, Layer::snapshot);
        probe_engine_.end_sample();
    }
    return sample;
}

MirrorResult Mirror::run() {
    MirrorResult result;
    result.work.work_log2.assign(work_buckets, 0);
    WorkCounts& work = result.work;
    core::HealingSession& session = *session_;
    scenario::TraceHasher hasher;
    std::vector<scenario::TraceEvent> events;
    Probes probes = cadence_probes();
    const std::size_t total_steps = spec_.total_steps();

    std::size_t live_high_water = session.current().node_count();
    std::size_t peak_slots = session.current().next_id();

    auto record = [&](scenario::TraceEvent event) {
        Scope span(log_, Layer::trace_hash);
        hasher.add(event);
        events.push_back(std::move(event));
    };
    auto note_repair = [&](const core::RepairReport& report, std::size_t span_index,
                           bool per_victim) {
        work.totals.accumulate(report);
        if (!per_victim) return;
        ++work.deletes;
        if (report.combines > 0) {
            ++work.combine_deletes;
            log_.tag(span_index, 1);
        }
        std::size_t bucket = std::bit_width(report.edges_added + report.edges_removed);
        ++work.work_log2[std::min(bucket, work_buckets - 1)];
    };

    std::size_t global_step = 0;
    for (std::size_t phase_index = 0; phase_index < spec_.phases.size(); ++phase_index) {
        const scenario::PhaseSpec& phase = spec_.phases[phase_index];
        if (phase.seed.has_value()) rng_ = util::Rng(*phase.seed);
        session.healer().set_network_faults(core::NetFaults{phase.drop, phase.latency});
        auto deleter = scenario::make_phase_deleter(phase, registry_);
        auto inserter = scenario::make_inserter(phase.inserter);
        const auto phase_id = static_cast<std::uint32_t>(phase_index);

        std::size_t staged = 0;
        auto flush_batch = [&]() {
            if (staged == 0) return;
            Scope span(log_, Layer::flush);
            note_repair(session.flush_staged(), span.index(), false);
            staged = 0;
        };
        auto try_insert = [&](std::size_t step) {
            std::vector<graph::NodeId> neighbors;
            {
                Scope span(log_, Layer::insert_pick);
                neighbors = inserter->pick_neighbors(session, rng_);
            }
            if (neighbors.empty()) return false;
            flush_batch();
            scenario::TraceEvent event;
            event.kind = scenario::TraceEvent::Kind::insert;
            event.step = step;
            event.phase = phase_id;
            {
                Scope span(log_, Layer::insert);
                event.node = session.insert_node(neighbors);
            }
            event.neighbors = std::move(neighbors);
            record(std::move(event));
            return true;
        };

        for (std::size_t step = 0; step < phase.steps; ++step) {
            for (std::size_t i = 0; i < phase.insert_burst; ++i) try_insert(global_step);

            double fraction = phase.delete_fraction_at(step);
            for (std::size_t b = 0; b < phase.burst; ++b) {
                bool want_delete;
                if (fraction >= 1.0) want_delete = true;
                else if (fraction <= 0.0) want_delete = false;
                else want_delete = rng_.chance(fraction);

                bool did_event = false;
                if (want_delete && session.current().node_count() > phase.min_nodes) {
                    graph::NodeId victim;
                    {
                        Scope span(log_, Layer::delete_pick);
                        victim = deleter->pick(session, rng_);
                    }
                    if (victim != graph::invalid_node) {
                        {
                            Scope span(log_, Layer::remove);
                            core::RepairReport report = phase.batch > 1
                                                            ? session.stage_delete(victim)
                                                            : session.delete_node(victim);
                            note_repair(report, span.index(), true);
                        }
                        if (phase.batch > 1 && ++staged >= phase.batch) flush_batch();
                        scenario::TraceEvent event;
                        event.kind = scenario::TraceEvent::Kind::remove;
                        event.step = global_step;
                        event.phase = phase_id;
                        event.node = victim;
                        record(std::move(event));
                        did_event = true;
                    }
                }
                if (!did_event && fraction < 1.0) try_insert(global_step);
            }
            live_high_water = std::max(live_high_water, session.current().node_count());
            peak_slots = std::max<std::size_t>(peak_slots, session.current().next_id());
            std::size_t live = session.current().node_count();
            std::size_t issued = session.current().next_id();
            if (phase.compact != 0 && issued > live &&
                issued >= phase.compact * std::max<std::size_t>(live, 1)) {
                flush_batch();
                scenario::TraceEvent event;
                event.kind = scenario::TraceEvent::Kind::compact;
                event.step = global_step;
                event.phase = phase_id;
                event.node = static_cast<graph::NodeId>(live);
                record(std::move(event));
                Scope span(log_, Layer::compact);
                probe_engine_.on_compact(session.compact());
                ++work.compactions;
            }
            ++global_step;
            if (spec_.sample_every != 0 && global_step % spec_.sample_every == 0 &&
                global_step != total_steps) {
                flush_batch();
                take_sample(global_step, phase.name, probes);
                ++work.samples;
            }
        }
        flush_batch();
    }

    std::string last_phase = spec_.phases.empty() ? "" : spec_.phases.back().name;
    result.final_sample = take_sample(global_step, last_phase, final_probes());
    ++work.samples;
    result.probe_rebuilds = probe_engine_.probe_rebuilds();
    result.probe_patched_rows = probe_engine_.probe_patched_events();
    result.trace_hash = hasher.value();
    result.events = events.size();
    {
        Scope span(log_, Layer::fingerprint);
        result.fingerprint = scenario::graph_fingerprint(session.current());
    }
    Scope span(log_, Layer::verdict);
    evaluate(result, peak_slots, live_high_water);
    return result;
}

void Mirror::evaluate(MirrorResult& result, std::size_t peak_slots,
                      std::size_t live_high_water) const {
    using Kind = scenario::Expectation::Kind;
    const scenario::MetricSample& fin = result.final_sample;
    for (const scenario::Expectation& e : spec_.expectations) {
        bool ok = true;
        switch (e.kind) {
            case Kind::connected: ok = fin.connected(); break;
            case Kind::max_degree_ratio_le: ok = fin.max_degree_ratio <= e.value; break;
            case Kind::expansion_ge: ok = fin.expansion >= e.value; break;
            case Kind::lambda2_ge: ok = fin.lambda2 >= e.value; break;
            case Kind::stretch_le: ok = fin.stretch <= e.value; break;
            case Kind::nodes_ge: ok = static_cast<double>(fin.nodes) >= e.value; break;
            case Kind::peak_slot_factor_le: {
                double factor = live_high_water == 0
                                    ? 0.0
                                    : static_cast<double>(peak_slots) /
                                          static_cast<double>(live_high_water);
                ok = factor <= e.value;
                break;
            }
        }
        if (!ok) result.failures.push_back(e.to_text());
    }
}

std::size_t degree_bound_excess(const core::HealingSession& session, std::size_t kappa) {
    const graph::Graph& g = session.current();
    const graph::Graph& ref = session.reference();
    std::size_t excess = 0;
    for (graph::NodeId v : g.nodes())
        if (g.degree(v) > kappa * ref.degree(v) + 2 * kappa) ++excess;
    return excess;
}

}  // namespace perfbench
