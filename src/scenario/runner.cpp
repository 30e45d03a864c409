#include "scenario/runner.hpp"

#include <chrono>
#include <future>
#include <stdexcept>

#include "core/metrics.hpp"
#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"

namespace xheal::scenario {

namespace {

/// Independent probe stream: decorrelated from the master seed so probe
/// cadence never perturbs adversary decisions.
constexpr std::uint64_t probe_salt = 0x70726f6265735full;

}  // namespace

core::HealingSession build_session(const ScenarioSpec& spec, util::Rng& rng,
                                   graph::Graph* prebuilt, std::size_t& kappa,
                                   const core::CloudRegistry*& registry) {
    graph::Graph initial = prebuilt != nullptr ? std::move(*prebuilt)
                                               : make_topology(spec.topology, rng);
    HealerHandle handle = make_healer(spec.healer, spec.seed);
    kappa = handle.kappa;
    registry = handle.registry;
    return core::HealingSession(std::move(initial), std::move(handle.healer));
}

Trace make_trace(const ScenarioSpec& spec, std::vector<TraceEvent> events,
                 std::uint64_t trace_hash, std::uint64_t fingerprint) {
    Trace trace;
    trace.scenario = spec.name;
    trace.seed = spec.seed;
    trace.spec_hash = spec.content_hash();
    trace.events = std::move(events);
    trace.trace_hash = trace_hash;
    trace.fingerprint = fingerprint;
    return trace;
}

Trace RunResult::to_trace(const ScenarioSpec& spec) const {
    return make_trace(spec, events, trace_hash, fingerprint);
}

namespace {

/// Journal capacity for incremental probe snapshots: generous enough that
/// inter-sample churn rarely overflows (overflow just costs one rebuild).
std::size_t journal_limit_for(const core::HealingSession& session) {
    return std::max<std::size_t>(4096, session.current().node_count() * 2);
}

}  // namespace

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec)
    : spec_(spec),
      rng_(spec.seed),
      probe_rng_(spec.seed ^ probe_salt),
      session_(build_session(spec_, rng_, nullptr, kappa_, registry_)) {
    session_.enable_graph_journals(journal_limit_for(session_));
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec, graph::Graph initial)
    : spec_(spec),
      rng_(spec.seed),
      probe_rng_(spec.seed ^ probe_salt),
      session_(build_session(spec_, rng_, &initial, kappa_, registry_)) {
    session_.enable_graph_journals(journal_limit_for(session_));
}

ScenarioRunner::Probes ScenarioRunner::parse_probes(const ScenarioSpec& spec) {
    Probes probes;
    for (const std::string& name : spec.probes) {
        if (name == "connected") probes.connected = true;
        else if (name == "degree") probes.degree = true;
        else if (name == "expansion") probes.expansion = true;
        else if (name == "lambda2") probes.lambda2 = true;
        else if (name == "stretch") probes.stretch = true;
        else throw std::runtime_error("unknown probe: '" + name + "'");
    }
    return probes;
}

ScenarioRunner::Probes ScenarioRunner::final_probes() const {
    Probes probes = parse_probes(spec_);
    for (const Expectation& e : spec_.expectations) {
        switch (e.kind) {
            case Expectation::Kind::connected: probes.connected = true; break;
            case Expectation::Kind::max_degree_ratio_le: probes.degree = true; break;
            case Expectation::Kind::expansion_ge: probes.expansion = true; break;
            case Expectation::Kind::lambda2_ge: probes.lambda2 = true; break;
            case Expectation::Kind::stretch_le: probes.stretch = true; break;
            case Expectation::Kind::nodes_ge: break;
            case Expectation::Kind::peak_slot_factor_le: break;
        }
    }
    return probes;
}

MetricSample ScenarioRunner::take_sample(std::size_t step, const std::string& phase,
                                         const Probes& probes) {
    const graph::Graph& g = session_.current();
    const graph::Graph& ref = session_.reference();
    MetricSample sample;
    sample.step = step;
    sample.phase = phase;
    sample.nodes = g.node_count();
    sample.edges = g.edge_count();
    sample.deletions = session_.deletions();
    sample.insertions = session_.insertions();
    sample.messages = session_.totals().messages;
    sample.rounds = session_.totals().rounds;
    sample.retries = session_.totals().retries;
    auto probe_start = std::chrono::steady_clock::now();
    // One CSR snapshot serves every probe of this sample (g cannot mutate
    // inside take_sample). The graph journals carry the structural delta
    // since the previous sample, so the snapshot is patched forward instead
    // of rebuilt (drained below — each mutation is consumed exactly once).
    probe_engine_.begin_sample(g, g.journal(), g.journal_overflowed());
    probe_engine_.note_reference(ref, ref.journal(), ref.journal_overflowed());
    g.clear_journal();
    ref.clear_journal();
    // Fork-join (DESIGN.md decision 10): freeze the snapshot here, solve
    // lambda2 over it on one forked thread with no connectivity gate, run
    // every other probe on this one, then join and commit. The components
    // flood below decides the gate the solve skipped: a disconnected
    // snapshot discards the solve, as the serial lambda2(g) never runs it.
    // The warm-start chain still sees each sample's snapshot in order, and
    // the stretch rng draws stay on this thread, so every value is the one a
    // serial sample computes.
    std::future<spectral::ProbeEngine::Lambda2Solve> lambda2;
    if (probes.lambda2) {
        probe_engine_.sync(g);
        lambda2 = std::async(std::launch::async,
                             [this, &g] { return probe_engine_.solve_lambda2(g); });
    }
    std::size_t components = 0;
    if (probes.connected || probes.lambda2) components = probe_engine_.component_count(g);
    if (probes.connected) sample.components = components;
    if (probes.degree) {
        sample.max_degree = g.max_degree();
        auto increase = core::degree_increase(g, ref);
        sample.max_degree_ratio = increase.max_ratio;
        sample.mean_degree_ratio = increase.mean_ratio;
        // Lemma 3 witness: max over alive v of (deg_G(v) - 2k) / deg_G'(v).
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
    if (probes.expansion) sample.expansion = spectral::edge_expansion_estimate(g);
    if (probes.stretch)
        sample.stretch =
            probe_engine_.sampled_stretch(g, ref, spec_.stretch_samples, probe_rng_);
    if (lambda2.valid()) sample.lambda2 = probe_engine_.commit_lambda2(lambda2.get(), components);
    probe_engine_.end_sample();
    auto probe_end = std::chrono::steady_clock::now();
    sample.probe_seconds = std::chrono::duration<double>(probe_end - probe_start).count();
    probe_seconds_ += sample.probe_seconds;
    return sample;
}

void ScenarioRunner::finish_result(RunResult& result) {
    std::string last_phase = spec_.phases.empty() ? "" : spec_.phases.back().name;
    result.final_sample = take_sample(result.steps_done, last_phase, final_probes());
    result.samples.push_back(result.final_sample);
    result.probe_rebuilds = probe_engine_.probe_rebuilds();
    result.probe_patched_events = probe_engine_.probe_patched_events();
    result.probe_seconds = probe_seconds_;
    result.fingerprint = graph_fingerprint(session_.current());
    evaluate_expectations(result);
}

void ScenarioRunner::evaluate_expectations(RunResult& result) const {
    const MetricSample& fin = result.final_sample;
    auto fmt = [](double v) {
        std::string s = std::to_string(v);
        return s;
    };
    for (const Expectation& e : spec_.expectations) {
        switch (e.kind) {
            case Expectation::Kind::connected:
                if (!fin.connected())
                    result.failures.push_back("connected: final graph has " +
                                              std::to_string(fin.components) +
                                              " components");
                break;
            case Expectation::Kind::max_degree_ratio_le:
                if (!(fin.max_degree_ratio <= e.value))
                    result.failures.push_back("max_degree_ratio: wanted <= " + fmt(e.value) +
                                              ", got " + fmt(fin.max_degree_ratio));
                break;
            case Expectation::Kind::expansion_ge:
                if (!(fin.expansion >= e.value))
                    result.failures.push_back("expansion: wanted >= " + fmt(e.value) +
                                              ", got " + fmt(fin.expansion));
                break;
            case Expectation::Kind::lambda2_ge:
                if (!(fin.lambda2 >= e.value))
                    result.failures.push_back("lambda2: wanted >= " + fmt(e.value) +
                                              ", got " + fmt(fin.lambda2));
                break;
            case Expectation::Kind::stretch_le:
                if (!(fin.stretch <= e.value))
                    result.failures.push_back("stretch: wanted <= " + fmt(e.value) +
                                              ", got " + fmt(fin.stretch));
                break;
            case Expectation::Kind::nodes_ge:
                if (!(static_cast<double>(fin.nodes) >= e.value))
                    result.failures.push_back("nodes: wanted >= " + fmt(e.value) + ", got " +
                                              std::to_string(fin.nodes));
                break;
            case Expectation::Kind::peak_slot_factor_le: {
                double factor = result.live_high_water == 0
                                    ? 0.0
                                    : static_cast<double>(result.peak_slot_count) /
                                          static_cast<double>(result.live_high_water);
                if (!(factor <= e.value))
                    result.failures.push_back(
                        "peak_slot_factor: wanted <= " + fmt(e.value) + ", got " +
                        fmt(factor) + " (" + std::to_string(result.peak_slot_count) +
                        " slots / " + std::to_string(result.live_high_water) +
                        " live high-water)");
                break;
            }
        }
    }
}

EventApplier::EventApplier(const ScenarioSpec& spec, core::HealingSession& session,
                           spectral::ProbeEngine& probe_engine)
    : spec_(spec), session_(session), probe_engine_(probe_engine) {
    phases_.resize(spec_.phases.size());
    for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
        phases_[i].name = spec_.phases[i].name;
        phases_[i].steps = spec_.phases[i].steps;
    }
    // Slot accounting starts at the initial topology: a delete-heavy first
    // phase must not make the high-water marks miss the starting population.
    live_high_water_ = session_.current().node_count();
    peak_slot_count_ = session_.current().next_id();
}

PhaseResult& EventApplier::stats() {
    return phase_.has_value() && *phase_ < phases_.size() ? phases_[*phase_] : unphased_;
}

void EventApplier::note_slots() {
    live_high_water_ = std::max(live_high_water_, session_.current().node_count());
    peak_slot_count_ =
        std::max<std::size_t>(peak_slot_count_, session_.current().next_id());
}

void EventApplier::enter_phase(std::uint32_t phase) {
    if (phase_ == phase) return;
    flush();  // batches never span phases
    phase_ = phase;
    batch_ = 1;
    if (phase < spec_.phases.size()) {
        const PhaseSpec& spec = spec_.phases[phase];
        batch_ = spec.batch;
        // No-op for non-message-passing healers; never touches any rng
        // stream, so only the bill depends on it.
        session_.healer().set_network_faults(core::NetFaults{spec.drop, spec.latency});
    }
}

void EventApplier::flush() {
    if (staged_ == 0) return;
    core::RepairReport report = session_.flush_staged();
    stats().totals.accumulate(report);
    staged_ = 0;
}

void EventApplier::skip() { ++stats().skipped; }

graph::NodeId EventApplier::apply(const TraceEvent& event) {
    if (step_.has_value() && event.step > *step_) note_slots();
    step_ = event.step;
    enter_phase(event.phase);
    PhaseResult& phase = stats();
    switch (event.kind) {
        case TraceEvent::Kind::remove: {
            phase.victim_degree.add(
                static_cast<double>(session_.reference().degree(event.node)));
            core::RepairReport report;
            if (batch_ > 1) {
                // Staged: one connect_units serves the whole batch.
                report = session_.stage_delete(event.node);
                if (++staged_ >= batch_) flush();
            } else {
                report = session_.delete_node(event.node);
            }
            phase.totals.accumulate(report);
            phase.rounds.add(static_cast<double>(report.rounds));
            ++phase.deletions;
            return event.node;
        }
        case TraceEvent::Kind::insert: {
            flush();  // inserted nodes land on a healed graph
            graph::NodeId id = session_.insert_node(event.neighbors);
            ++phase.insertions;
            return id;
        }
        case TraceEvent::Kind::compact:
            flush();  // compaction requires a fully healed graph
            // The peak must reflect the waste the epoch actually reached.
            note_slots();
            probe_engine_.on_compact(session_.compact());
            ++compactions_;
            return event.node;
    }
    return event.node;
}

void EventApplier::finish(RunResult& result) {
    note_slots();
    flush();
    result.phases = std::move(phases_);
    result.compactions = compactions_;
    result.peak_slot_count = peak_slot_count_;
    result.live_high_water = live_high_water_;
}

RunResult ScenarioRunner::run() {
    if (ran_) throw std::runtime_error("ScenarioRunner::run: already executed");
    ran_ = true;

    RunResult result;
    TraceHasher hasher;
    Probes cadence_probes = parse_probes(spec_);
    EventApplier applier(spec_, session_, probe_engine_);

    // Sampling time inside the timed loop — subtracted from `seconds` so
    // steps_per_sec measures adversary+healer stepping only.
    double loop_probe_seconds = 0.0;
    auto t0 = std::chrono::steady_clock::now();

    std::size_t global_step = 0;
    for (std::size_t phase_index = 0; phase_index < spec_.phases.size(); ++phase_index) {
        const PhaseSpec& phase = spec_.phases[phase_index];
        const auto phase_id = static_cast<std::uint32_t>(phase_index);
        // Per-phase seed (grammar v2): reseed the master stream at phase
        // entry, making the phase's adversary decisions independent of the
        // schedule prefix (sweeps may reorder phases without perturbation).
        if (phase.seed.has_value()) rng_ = util::Rng(*phase.seed);
        applier.enter_phase(phase_id);
        auto deleter = make_phase_deleter(phase, registry_);
        auto inserter = make_inserter(phase.inserter);

        // Every decided event is applied, then recorded (an insert's node
        // is the id the session assigned).
        auto emit = [&](TraceEvent event) {
            event.step = global_step;
            event.phase = phase_id;
            event.node = applier.apply(event);
            hasher.add(event);
            result.events.push_back(std::move(event));
        };
        auto try_insert = [&]() {
            auto neighbors = inserter->pick_neighbors(session_, rng_);
            if (neighbors.empty()) return false;
            TraceEvent event;
            event.kind = TraceEvent::Kind::insert;
            event.neighbors = std::move(neighbors);
            emit(std::move(event));
            return true;
        };

        for (std::size_t step = 0; step < phase.steps; ++step) {
            // Flash-crowd modeling (grammar v2): insert_burst forced
            // arrivals lead every step, before the regular event budget.
            for (std::size_t i = 0; i < phase.insert_burst; ++i)
                if (!try_insert()) applier.skip();

            double fraction = phase.delete_fraction_at(step);
            for (std::size_t b = 0; b < phase.burst; ++b) {
                bool want_delete;
                if (fraction >= 1.0) want_delete = true;
                else if (fraction <= 0.0) want_delete = false;
                else want_delete = rng_.chance(fraction);

                bool did_event = false;
                if (want_delete && session_.current().node_count() > phase.min_nodes) {
                    graph::NodeId victim = deleter->pick(session_, rng_);
                    if (victim != graph::invalid_node) {
                        TraceEvent event;
                        event.kind = TraceEvent::Kind::remove;
                        event.node = victim;
                        emit(std::move(event));
                        did_event = true;
                    }
                }
                // Blocked or victimless deletes in a mixed phase fall
                // through to an insert; deletion-only phases just skip.
                if (!did_event && fraction < 1.0) did_event = try_insert();
                if (!did_event) applier.skip();
            }
            // Id-compaction epoch (`compact=K`, DESIGN.md decision 12):
            // close the epoch once the issued id space has outgrown the
            // live population K-fold. The canonical trace event precedes
            // the renumbering; every id in later events is new-numbering.
            std::size_t live = session_.current().node_count();
            std::size_t issued = session_.current().next_id();
            if (phase.compact != 0 && issued > live &&
                issued >= phase.compact * std::max<std::size_t>(live, 1)) {
                TraceEvent event;
                event.kind = TraceEvent::Kind::compact;
                event.node = static_cast<graph::NodeId>(live);
                emit(std::move(event));
            }
            ++global_step;
            // The final sample (superset probes) covers the last step.
            if (spec_.sample_every != 0 && global_step % spec_.sample_every == 0 &&
                global_step != spec_.total_steps()) {
                applier.flush();  // probes always observe a healed graph
                result.samples.push_back(
                    take_sample(global_step, phase.name, cadence_probes));
                loop_probe_seconds += result.samples.back().probe_seconds;
            }
        }
    }
    applier.finish(result);
    auto t1 = std::chrono::steady_clock::now();
    // Cadence samples run inside the timed loop; subtract their wall time
    // so `seconds` (and steps_per_sec) measure adversary+healer stepping
    // only. The final sample is taken after this point.
    result.seconds =
        std::chrono::duration<double>(t1 - t0).count() - loop_probe_seconds;
    if (result.seconds < 0.0) result.seconds = 0.0;  // clock-resolution guard
    result.steps_done = global_step;
    result.trace_hash = hasher.value();
    finish_result(result);
    return result;
}

RunResult ScenarioRunner::replay(const Trace& trace) {
    if (ran_) throw std::runtime_error("ScenarioRunner::replay: already executed");
    ran_ = true;

    RunResult result;
    TraceHasher hasher;
    EventApplier applier(spec_, session_, probe_engine_);
    auto t0 = std::chrono::steady_clock::now();

    std::optional<std::uint64_t> prev_step;
    for (const TraceEvent& event : trace.events) {
        // run() flushes before every cadence sample. Replay takes none, but
        // the grouping of staged deletions into flushes feeds connect_units
        // different unit sets (and so a different healer rng trajectory),
        // so those flush points are reproduced: an event recorded at step s
        // precedes the sample taken after step s iff s+1 is a sample
        // multiple, so a sample falls between events at steps p < c iff
        // (p/se + 1)*se <= c. Every other flush point is the applier's.
        if (prev_step.has_value() && spec_.sample_every != 0 &&
            (*prev_step / spec_.sample_every + 1) * spec_.sample_every <= event.step)
            applier.flush();
        prev_step = event.step;

        // Strict divergence checks: the recorded event must be one run()
        // could have produced on this session.
        if (event.kind == TraceEvent::Kind::remove && !session_.current().has_node(event.node))
            throw std::runtime_error(
                "replay diverged: step " + std::to_string(event.step) + " deletes node " +
                std::to_string(event.node) + " which is not alive");
        if (event.kind == TraceEvent::Kind::compact &&
            session_.current().node_count() != event.node)
            throw std::runtime_error(
                "replay diverged: compact at step " + std::to_string(event.step) +
                " recorded " + std::to_string(event.node) + " live nodes, have " +
                std::to_string(session_.current().node_count()));
        graph::NodeId got = applier.apply(event);
        if (event.kind == TraceEvent::Kind::insert && got != event.node)
            throw std::runtime_error("replay diverged: step " + std::to_string(event.step) +
                                     " inserted node " + std::to_string(got) +
                                     ", trace recorded " + std::to_string(event.node));
        hasher.add(event);
        result.steps_done = event.step + 1;
    }
    applier.finish(result);

    auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.events = trace.events;
    result.trace_hash = hasher.value();
    finish_result(result);
    return result;
}

}  // namespace xheal::scenario
