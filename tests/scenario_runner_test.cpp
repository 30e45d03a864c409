// Engine-layer tests: scenario determinism (same spec + seed => identical
// trace hash), byte-for-byte replay (identical final-graph fingerprint),
// trace JSONL round-trip, schedule semantics (burst, fallback, floors),
// expectation evaluation, and the session alive-pool invariant the
// strategies sample from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>

#include "scenario/runner.hpp"
#include "spectral/probes.hpp"
#include "workload/generators.hpp"

using namespace xheal;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;

namespace {

ScenarioSpec star_collapse_spec() {
    return ScenarioSpec::parse(R"(
name star-collapse
seed 7
topology star leaves=48
healer xheal d=3
phase kill steps=1 delete_fraction=1 deleter=max-degree min_nodes=1
expect connected
)");
}

ScenarioSpec phased_churn_spec() {
    return ScenarioSpec::parse(R"(
name phased-churn
seed 42
topology random-regular n=32 d=4
healer xheal d=2
phase grow steps=25 delete_fraction=0.2 deleter=random inserter=preferential-attach k=3 min_nodes=8
phase churn steps=40 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=8
phase assault steps=10 delete_fraction=1 deleter=max-degree min_nodes=12
expect connected
)");
}

ScenarioSpec bridge_hunter_spec() {
    return ScenarioSpec::parse(R"(
name bridge-hunter
seed 29
topology erdos-renyi n=48 p=0.13
healer xheal d=2 seed=17
phase starve steps=30 delete_fraction=1 deleter=bridge-hunter min_nodes=6
expect connected
)");
}

}  // namespace

class ScenarioDeterminism : public ::testing::TestWithParam<int> {
protected:
    ScenarioSpec spec() const {
        switch (GetParam()) {
            case 0: return star_collapse_spec();
            case 1: return phased_churn_spec();
            default: return bridge_hunter_spec();
        }
    }
};

TEST_P(ScenarioDeterminism, SameSpecAndSeedYieldIdenticalTraceHash) {
    auto first = ScenarioRunner(spec()).run();
    auto second = ScenarioRunner(spec()).run();
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.events.size(), second.events.size());
    EXPECT_TRUE(first.passed()) << (first.failures.empty() ? "" : first.failures[0]);
}

TEST_P(ScenarioDeterminism, ReplayReproducesTheFinalGraphByteForByte) {
    auto s = spec();
    auto recorded = ScenarioRunner(s).run();
    auto trace = recorded.to_trace(s);

    // Serialize + parse the JSONL in between, as xheal_run replay does.
    std::stringstream io;
    scenario::write_trace(io, trace);
    auto loaded = scenario::read_trace(io);
    EXPECT_EQ(loaded.trace_hash, recorded.trace_hash);
    EXPECT_EQ(loaded.events.size(), recorded.events.size());
    EXPECT_EQ(loaded.spec_hash, s.content_hash());

    auto replayed = ScenarioRunner(s).replay(loaded);
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
}

TEST_P(ScenarioDeterminism, DifferentSeedPerturbsTheTrace) {
    auto s = spec();
    auto base = ScenarioRunner(s).run();
    s.seed += 1;
    auto shifted = ScenarioRunner(s).run();
    // Star collapse is a single forced deletion — the event stream is
    // seed-independent, but every stochastic schedule must diverge.
    if (GetParam() != 0) EXPECT_NE(base.trace_hash, shifted.trace_hash);
    // The healer's private randomness always moves with the seed.
    EXPECT_NE(base.fingerprint, shifted.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Specs, ScenarioDeterminism, ::testing::Values(0, 1, 2));

TEST(ScenarioRunner, AlivePoolMatchesTheGraphThroughoutChurn) {
    auto spec = phased_churn_spec();
    ScenarioRunner runner(spec);
    runner.run();
    const auto& session = runner.session();
    const auto& pool = session.alive_pool();
    auto view = session.current().nodes();
    std::vector<graph::NodeId> expected(view.begin(), view.end());
    std::vector<graph::NodeId> got(pool.begin(), pool.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
    EXPECT_EQ(pool.size(), session.current().node_count());
}

TEST(ScenarioRunner, BurstMultipliesEventsPerStep) {
    auto spec = ScenarioSpec::parse(R"(
name burst
seed 3
topology cycle n=12
healer no-heal
phase grow steps=10 burst=3 delete_fraction=0 inserter=random-attach k=2
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.steps_done, 10u);
    EXPECT_EQ(result.events.size(), 30u);
    EXPECT_EQ(result.phases[0].insertions, 30u);
}

TEST(ScenarioRunner, BlockedDeleteFallsBackToInsertInMixedPhases) {
    // Population floor equals the start size, so every delete is blocked
    // and the mixed phase must insert instead of stalling.
    auto spec = ScenarioSpec::parse(R"(
name floor
seed 5
topology cycle n=8
healer no-heal
phase churn steps=20 delete_fraction=0.9 deleter=random inserter=random-attach k=2 min_nodes=64
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.phases[0].deletions, 0u);
    EXPECT_EQ(result.phases[0].insertions, 20u);
    EXPECT_EQ(result.phases[0].skipped, 0u);
}

TEST(ScenarioRunner, DeletionOnlyPhaseRespectsThePopulationFloor) {
    auto spec = ScenarioSpec::parse(R"(
name floor-only
seed 5
topology cycle n=10
healer no-heal
phase drain steps=20 delete_fraction=1 deleter=random min_nodes=6
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.phases[0].deletions, 4u);  // 10 -> 6, then floor holds
    EXPECT_EQ(result.phases[0].skipped, 16u);
    EXPECT_EQ(ScenarioRunner(spec).run().final_sample.nodes, 6u);
}

TEST(ScenarioRunner, FailedExpectationProducesAFailVerdict) {
    auto spec = ScenarioSpec::parse(R"(
name impossible
seed 5
topology cycle n=16
healer no-heal
phase drain steps=4 delete_fraction=1 deleter=random min_nodes=4
expect nodes >= 100
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_FALSE(result.passed());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_NE(result.failures[0].find("nodes"), std::string::npos);
}

TEST(ScenarioRunner, ZeroSampleEveryMeansFinalSampleOnly) {
    // sample_every = 0 is the documented "final-only" cadence: exactly one
    // sample, which IS the final sample, carrying the expectation probes.
    auto spec = phased_churn_spec();
    spec.sample_every = 0;
    spec.probes = {"connected", "degree"};
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].step, result.final_sample.step);
    EXPECT_EQ(result.samples[0].nodes, result.final_sample.nodes);
    EXPECT_EQ(result.samples[0].components, result.final_sample.components);
    EXPECT_EQ(result.final_sample.step, result.steps_done);
}

TEST(ScenarioRunner, CadenceCoincidingWithTheLastStepIsNotDuplicated) {
    // 75 total steps, cadence 25: samples at 25 and 50; the would-be step-75
    // cadence point folds into the final sample instead of duplicating it.
    auto spec = phased_churn_spec();
    spec.sample_every = 25;
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), 3u);
    EXPECT_EQ(result.samples[0].step, 25u);
    EXPECT_EQ(result.samples[1].step, 50u);
    EXPECT_EQ(result.samples[2].step, 75u);  // the final sample
    EXPECT_EQ(result.final_sample.step, 75u);
}

TEST(ScenarioRunner, CadenceLargerThanTheScheduleYieldsFinalSampleOnly) {
    auto spec = phased_churn_spec();
    spec.sample_every = 1000;  // > total steps (75)
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].step, result.steps_done);
}

TEST(ScenarioRunner, ProbeCostIsAccountedPerSampleAndPerRun) {
    auto spec = phased_churn_spec();
    spec.sample_every = 10;
    spec.probes = {"connected", "degree", "lambda2", "stretch"};
    auto result = ScenarioRunner(spec).run();
    double sum = 0.0;
    for (const auto& s : result.samples) {
        EXPECT_GE(s.probe_seconds, 0.0);
        sum += s.probe_seconds;
    }
    EXPECT_NEAR(result.probe_seconds, sum, 1e-9);
    // `seconds` measures stepping only; probe cost is accounted separately.
    EXPECT_GE(result.seconds, 0.0);
}

TEST(ScenarioRunner, ForkedProbeValuesArePinnedBitwise) {
    // take_sample solves lambda2 on a forked thread over the frozen snapshot
    // while this thread runs components, degree, expansion and stretch. The
    // pinned bit patterns were recorded from the serial sampler, so a moved
    // bit anywhere — the lambda2 warm chain, the split scratch, the stretch
    // rng order — fails here. Under TSan this is the fork's race check.
    struct Pin {
        std::size_t step, components;
        std::uint64_t lambda2, stretch, expansion;
    };
    const Pin pins[] = {
        {30, 1, 0x3fde94b9bb159704ull, 0x3ff0000000000000ull,
         0x4008000000000000ull},
        {60, 1, 0x3fe2294600f04154ull, 0x3ff0000000000000ull,
         0x4008000000000000ull},
        {90, 1, 0x3fdc9a7c83c7f856ull, 0x3ff8000000000000ull,
         0x40050d79435e50d8ull},
        {120, 1, 0x3fdc69067e591af3ull, 0x3ff8000000000000ull,
         0x40031c71c71c71c7ull},
        {150, 1, 0x3fd83b6b74b6950cull, 0x3ff8000000000000ull,
         0x40023d70a3d70a3dull},
        {180, 1, 0x3fdc5951f4b7dbf5ull, 0x3ff0000000000000ull,
         0x4004000000000000ull},
        {210, 1, 0x3fddc3bb2706969bull, 0x3ff8000000000000ull,
         0x4008000000000000ull},
        {240, 1, 0x3fdf1cd143d829b7ull, 0x3ff0000000000000ull,
         0x400c2c8590b21643ull},
        {270, 1, 0x3fdf26689df3799full, 0x3ff0000000000000ull,
         0x4004000000000000ull},
        {300, 1, 0x3fde3f91550eed8dull, 0x3ff0000000000000ull,
         0x4002aaaaaaaaaaabull},
    };
    auto spec = ScenarioSpec::parse_file(std::string(XHEAL_REPO_DIR) +
                                         "/scenarios/p2p_churn.scn");
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), std::size(pins));
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        const auto& s = result.samples[i];
        SCOPED_TRACE("sample " + std::to_string(i));
        EXPECT_EQ(s.step, pins[i].step);
        EXPECT_EQ(s.components, pins[i].components);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.lambda2), pins[i].lambda2);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.stretch), pins[i].stretch);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.expansion), pins[i].expansion);
    }

    // star_collapse samples expansion above the exact-enumeration limit, so
    // its final value is the Fiedler sweep cut's.
    auto star = ScenarioSpec::parse_file(std::string(XHEAL_REPO_DIR) +
                                         "/scenarios/star_collapse.scn");
    auto star_result = ScenarioRunner(star).run();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(star_result.final_sample.expansion),
              0x3ff7777777777777ull);
}

TEST(ScenarioRunner, ForkedSparseLambda2IsPinnedBitwise) {
    // Above spectral::dense_spectral_limit the forked solve runs the
    // warm-started Lanczos kernel ungated while this thread runs the
    // components and stretch BFS sweeps; the components count then gates
    // the value at commit — the sparse half of the fork that the small
    // p2p_churn graph never reaches. Pins recorded from the serial sampler.
    auto spec = ScenarioSpec::parse(R"(
name forked-sparse
seed 19
topology random-regular n=300 d=4
healer xheal d=2
probes connected degree lambda2 stretch
sample_every 10
stretch_samples 4
phase churn steps=50 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=200
expect connected
)");
    const std::uint64_t lambda2_pins[] = {
        0x3fc3927b89263e22ull, 0x3fc3c9301d3b898bull, 0x3fc4c35efb59d74bull,
        0x3fc627de5e7c9420ull, 0x3fc6be533051f5d1ull,
    };
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), std::size(lambda2_pins));
    for (std::size_t i = 0; i < std::size(lambda2_pins); ++i) {
        const auto& s = result.samples[i];
        SCOPED_TRACE("sample " + std::to_string(i));
        EXPECT_GT(s.nodes, spectral::dense_spectral_limit);
        EXPECT_EQ(s.components, 1u);
        EXPECT_EQ(s.stretch, 1.0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.lambda2), lambda2_pins[i]);
    }
}

TEST(ScenarioRunner, SpeculativeLambda2KeepsTheWarmChainAcrossADisconnectedSample) {
    // The sampler's fork solves lambda2 with no connectivity gate while the
    // caller floods components, and commits after the join. A twin engine
    // runs the serial lambda2(g), which counts first and skips the solve on
    // a disconnected snapshot. Across connected -> disconnected ->
    // connected samples above the dense cutoff, both must read the same
    // bits, and the disconnected sample must leave the warm chain alone, so
    // the next warm-started solves agree too.
    util::Rng rng(23);
    graph::Graph g = workload::make_random_regular(400, 4, rng);
    ASSERT_GT(g.node_count(), spectral::dense_spectral_limit);
    g.set_journal_limit(4096);
    spectral::ProbeEngine forked;
    spectral::ProbeEngine serial;

    // One sample of each engine over the same journal delta, the forked one
    // in take_sample's order: sync, fork the solve, flood, join, commit.
    auto sample = [&](std::size_t expect_components) {
        forked.begin_sample(g, g.journal(), g.journal_overflowed());
        serial.begin_sample(g, g.journal(), g.journal_overflowed());
        g.clear_journal();
        forked.sync(g);
        auto solve = std::async(std::launch::async, [&] { return forked.solve_lambda2(g); });
        std::size_t components = forked.component_count(g);
        double speculative = forked.commit_lambda2(solve.get(), components);
        double gated = serial.lambda2(g);
        forked.end_sample();
        serial.end_sample();
        EXPECT_EQ(components, expect_components);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(speculative), std::bit_cast<std::uint64_t>(gated));
        return speculative;
    };

    EXPECT_GT(sample(1), 0.0);
    graph::NodeId loner = g.add_node();  // an isolated node: two components
    EXPECT_EQ(sample(2), 0.0);
    g.add_black_edge(loner, 0);
    g.add_black_edge(loner, 200);
    double rejoined = sample(1);
    EXPECT_GT(rejoined, 0.0);
    g.add_black_edge(7, 300);
    EXPECT_GT(sample(1), 0.0);

    // The disconnected sample's discarded solve never reached the warm
    // chain: an engine that never saw that sample warm-starts identically.
    util::Rng replay_rng(23);
    graph::Graph h = workload::make_random_regular(400, 4, replay_rng);
    spectral::ProbeEngine skipped;
    EXPECT_GT(skipped.lambda2(h), 0.0);
    graph::NodeId h_loner = h.add_node();
    h.add_black_edge(h_loner, 0);
    h.add_black_edge(h_loner, 200);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(skipped.lambda2(h)),
              std::bit_cast<std::uint64_t>(rejoined));
}

TEST(ScenarioRunner, WarmStartedLambda2MatchesAColdSolve) {
    // The sampled lambda2 on the final healed graph agrees with a cold
    // fresh-engine solve to probe tolerance — guards against the warm chain
    // drifting onto a stale Ritz vector.
    auto spec = ScenarioSpec::parse_file(std::string(XHEAL_REPO_DIR) +
                                         "/scenarios/p2p_churn.scn");
    ScenarioRunner runner(spec);
    auto result = runner.run();
    ASSERT_FALSE(std::isnan(result.final_sample.lambda2));
    spectral::ProbeEngine cold;
    EXPECT_NEAR(result.final_sample.lambda2, cold.lambda2(runner.session().current()),
                1e-2);
}

TEST(ScenarioRunner, SamplingCadenceDoesNotPerturbTheTrace) {
    auto base_spec = phased_churn_spec();
    auto probed_spec = phased_churn_spec();
    probed_spec.probes = {"connected", "degree", "expansion", "stretch"};
    probed_spec.sample_every = 5;
    auto base = ScenarioRunner(base_spec).run();
    auto probed = ScenarioRunner(probed_spec).run();
    EXPECT_EQ(base.trace_hash, probed.trace_hash);
    EXPECT_EQ(base.fingerprint, probed.fingerprint);
    EXPECT_GT(probed.samples.size(), base.samples.size());
}

TEST(ScenarioTrace, GraphFingerprintSeesClaimsAndStructure) {
    graph::Graph a;
    a.add_node();
    a.add_node();
    a.add_black_edge(0, 1);
    graph::Graph b;
    b.add_node();
    b.add_node();
    b.add_black_edge(0, 1);
    EXPECT_EQ(scenario::graph_fingerprint(a), scenario::graph_fingerprint(b));
    b.add_color_claim(0, 1, 4);
    EXPECT_NE(scenario::graph_fingerprint(a), scenario::graph_fingerprint(b));
}

TEST(ScenarioTrace, RejectsCorruptTraces) {
    std::stringstream empty;
    EXPECT_THROW(scenario::read_trace(empty), std::runtime_error);
    std::stringstream missing_end(
        R"({"type":"header","scenario":"x","seed":1,"spec_hash":"0x0"})"
        "\n");
    EXPECT_THROW(scenario::read_trace(missing_end), std::runtime_error);
    std::stringstream bad_count(
        R"({"type":"header","scenario":"x","seed":1,"spec_hash":"0x0"})"
        "\n"
        R"({"type":"end","events":3,"trace_hash":"0x0","fingerprint":"0x0"})"
        "\n");
    EXPECT_THROW(scenario::read_trace(bad_count), std::runtime_error);
}

TEST(ScenarioTrace, RejectsMalformedNumbersWithTheirLineNumber) {
    // Every numeric field is parsed whole and range-checked against the
    // field it lands in; a bad token is a malformed-file error at its line,
    // never a silently truncated or defaulted id.
    const std::string header =
        R"({"type":"header","scenario":"x","seed":1,"spec_hash":"0x0"})" "\n";
    const std::string end =
        R"({"type":"end","events":1,"trace_hash":"0x0","fingerprint":"0x0"})" "\n";
    auto expect_rejected = [&](const std::string& event, const std::string& fragment) {
        std::stringstream in(header + event + "\n" + end);
        try {
            scenario::read_trace(in);
            ADD_FAILURE() << "accepted malformed event: " << event;
        } catch (const std::runtime_error& e) {
            std::string what = e.what();
            EXPECT_NE(what.find("trace line 2"), std::string::npos) << what;
            EXPECT_NE(what.find(fragment), std::string::npos) << what;
        }
    };
    expect_rejected(R"({"type":"delete","step":4,"phase":0,"node":65xyz})", "65xyz");
    expect_rejected(R"({"type":"delete","step":4,"phase":0,"node":4294967361})",
                    "4294967361");
    expect_rejected(R"({"type":"delete","step":4,"phase":4294967296,"node":3})", "phase");
    expect_rejected(R"({"type":"delete","step":4,"phase":0,"node":-1})", "-1");
    expect_rejected(R"({"type":"delete","step":4,"phase":0,"node":})", "node");
    expect_rejected(R"({"type":"delete","step":99999999999999999999,"phase":0,"node":3})",
                    "step");
    expect_rejected(R"({"type":"insert","step":4,"phase":0,"node":9,"neighbors":[1,zz]})",
                    "zz");
    expect_rejected(R"({"type":"insert","step":4,"phase":0,"node":9,"neighbors":[1,,2]})",
                    "neighbors");
    expect_rejected(R"({"type":"insert","step":4,"phase":0,"node":9,"neighbors":[4294967296]})",
                    "4294967296");
    expect_rejected(R"({"type":"compact","step":4,"phase":0,"live":4294967296})", "live");

    // The widest in-range values still read.
    std::stringstream ok(header +
                         R"({"type":"insert","step":18446744073709551615,"phase":4294967295,)"
                         R"("node":4294967295,"neighbors":[0,4294967295]})" "\n" + end);
    auto trace = scenario::read_trace(ok);
    ASSERT_EQ(trace.events.size(), 1u);
    EXPECT_EQ(trace.events[0].step, 18446744073709551615ull);
    EXPECT_EQ(trace.events[0].neighbors, (std::vector<graph::NodeId>{0, 4294967295u}));
}

TEST(ScenarioRunnerV2, InsertBurstLeadsEveryStep) {
    // insert_burst forced arrivals are extra events on top of the regular
    // burst budget, recorded in the trace like any insert.
    auto spec = ScenarioSpec::parse(R"(
name flash
seed 3
topology cycle n=12
healer no-heal
phase flash steps=10 insert_burst=2 delete_fraction=0 inserter=random-attach k=2
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.steps_done, 10u);
    // 2 forced + 1 regular insert (delete_fraction=0) per step.
    EXPECT_EQ(result.events.size(), 30u);
    EXPECT_EQ(result.phases[0].insertions, 30u);
    for (const auto& e : result.events)
        EXPECT_EQ(e.kind, scenario::TraceEvent::Kind::insert);
}

TEST(ScenarioRunnerV2, PerPhaseSeedMakesPhaseStreamsPrefixIndependent) {
    // Two schedules whose first phases consume DIFFERENT amounts of master
    // randomness (k=2 vs k=3 neighbor picks) but produce the same
    // population. With seed= on the second phase, its event subsequence is
    // identical across both runs; without it, the prefix perturbation
    // leaks in.
    auto make = [](const std::string& k, const std::string& seed_key) {
        return ScenarioSpec::parse(
            "name reseed\nseed 5\ntopology cycle n=20\nhealer no-heal\n"
            "phase grow steps=6 delete_fraction=0 inserter=random-attach k=" + k + "\n"
            "phase drain steps=8" + seed_key +
            " delete_fraction=1 deleter=random min_nodes=4\n");
    };
    auto drain_events = [](const scenario::RunResult& result) {
        std::vector<scenario::TraceEvent> out;
        for (const auto& e : result.events)
            if (e.phase == 1) out.push_back(e);
        return out;
    };

    auto seeded_a = ScenarioRunner(make("2", " seed=77")).run();
    auto seeded_b = ScenarioRunner(make("3", " seed=77")).run();
    EXPECT_EQ(drain_events(seeded_a), drain_events(seeded_b));
    EXPECT_NE(seeded_a.trace_hash, seeded_b.trace_hash);  // phase 1 differs

    auto unseeded_a = ScenarioRunner(make("2", "")).run();
    auto unseeded_b = ScenarioRunner(make("3", "")).run();
    EXPECT_NE(drain_events(unseeded_a), drain_events(unseeded_b));
}

TEST(ScenarioRunnerV2, RampIsDeterministicAndReplayable) {
    auto spec = ScenarioSpec::parse(R"(
name ramp-replay
seed 17
topology random-regular n=24 d=4
healer xheal d=2
phase ramp steps=30 delete_fraction=0.2..0.8 deleter=random:0.5,max-degree:0.5 inserter=random-attach k=2 min_nodes=8
)");
    auto first = ScenarioRunner(spec).run();
    auto second = ScenarioRunner(spec).run();
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.fingerprint, second.fingerprint);

    auto replayed = ScenarioRunner(spec).replay(first.to_trace(spec));
    EXPECT_EQ(replayed.trace_hash, first.trace_hash);
    EXPECT_EQ(replayed.fingerprint, first.fingerprint);
}
