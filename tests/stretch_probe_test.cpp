// Sampled-stretch probe properties: the budgeted probe is a lower bound on
// the exact stretch (a max over a subset of sources can only miss pairs),
// it reaches the exact value once the budget covers every live node, and
// the probe RNG stream never perturbs run determinism (trace hash and
// final-graph fingerprint are budget-independent).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "spectral/probes.hpp"

using namespace xheal;

namespace {

scenario::ScenarioSpec churn_spec() {
    return scenario::ScenarioSpec::parse(R"(
name stretch-churn
seed 23
topology random-regular n=48 d=4
healer xheal d=2
phase churn steps=50 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=16
)");
}

/// Exact stretch of the paper's metric, clamped to the probe's >= 1 floor.
double exact_stretch(const graph::Graph& g, const graph::Graph& ref) {
    return std::max(1.0, graph::stretch_vs(g, ref));
}

/// The probe's contract spelled out per source: the same partial
/// Fisher-Yates draw over g's live ids, then one BFS pair per source.
double per_source_stretch(const graph::Graph& g, const graph::Graph& ref, std::size_t budget,
                          util::Rng& rng) {
    std::vector<graph::NodeId> pool(g.nodes().begin(), g.nodes().end());
    std::size_t n = pool.size();
    if (n < 2) return 1.0;
    std::size_t k = std::min(budget, n);
    if (k < n) {
        for (std::size_t i = 0; i < k; ++i) std::swap(pool[i], pool[i + rng.index(n - i)]);
        pool.resize(k);
    }
    return std::max(1.0, graph::stretch_vs(g, ref, pool));
}

/// A reference G' over n nodes (sparse, may be disconnected itself) and a
/// healed G derived from it: some nodes dead, some extra edges, some black
/// edges dropped (which can disconnect G), and nodes G' never saw.
std::pair<graph::Graph, graph::Graph> random_pair(std::size_t n, std::size_t drop_edges,
                                                  util::Rng& rng) {
    graph::Graph ref;
    for (std::size_t i = 0; i < n; ++i) ref.add_node();
    for (graph::NodeId v = 1; v < n; ++v) {
        ref.add_black_edge(v, static_cast<graph::NodeId>(rng.index(v)));
        auto u = static_cast<graph::NodeId>(rng.index(n));
        if (u != v) ref.add_black_edge(v, u);
    }
    graph::Graph g = ref;
    for (std::size_t i = 0; i < n / 10; ++i) {
        auto v = static_cast<graph::NodeId>(rng.index(n));
        if (g.has_node(v) && g.node_count() > n / 2) g.remove_node(v);
    }
    for (std::size_t i = 0; i < n / 4; ++i) {
        auto u = static_cast<graph::NodeId>(rng.index(n));
        auto v = static_cast<graph::NodeId>(rng.index(n));
        if (u != v && g.has_node(u) && g.has_node(v)) g.add_black_edge(u, v);
    }
    for (std::size_t i = 0; i < drop_edges; ++i) {
        auto u = static_cast<graph::NodeId>(rng.index(n));
        if (!g.has_node(u) || g.degree(u) == 0) continue;
        g.remove_black_claim(u, g.neighbors(u)[rng.index(g.degree(u))]);
    }
    for (int i = 0; i < 3; ++i) {
        graph::NodeId fresh = g.add_node();  // absent from the reference
        for (graph::NodeId v : {graph::NodeId{1}, graph::NodeId{2}, graph::NodeId{3}})
            if (g.has_node(v)) g.add_black_edge(fresh, v);
    }
    return {std::move(g), std::move(ref)};
}

}  // namespace

TEST(StretchProbe, SampledValueNeverExceedsExactAndConvergesWithBudget) {
    scenario::ScenarioRunner runner(churn_spec());
    runner.run();
    const graph::Graph& g = runner.session().current();
    const graph::Graph& ref = runner.session().reference();

    double exact = exact_stretch(g, ref);
    ASSERT_TRUE(std::isfinite(exact));

    spectral::ProbeEngine engine;
    double previous_best = 0.0;
    for (std::size_t budget : {1u, 2u, 4u, 8u, 16u, 32u}) {
        // Average-free determinism: a fresh rng per budget level keeps each
        // draw independent of the others.
        util::Rng rng(7000 + budget);
        double sampled = engine.sampled_stretch(g, ref, budget, rng);
        EXPECT_LE(sampled, exact) << "budget " << budget;
        EXPECT_GE(sampled, 1.0);
        previous_best = std::max(previous_best, sampled);
    }
    // A budget covering every live node degenerates to the exact sweep.
    util::Rng rng(1);
    double full = engine.sampled_stretch(g, ref, g.node_count(), rng);
    EXPECT_DOUBLE_EQ(full, exact);
    EXPECT_LE(previous_best, full);
}

TEST(StretchProbe, FullBudgetMatchesTheLegacyMetric) {
    scenario::ScenarioRunner runner(churn_spec());
    runner.run();
    const graph::Graph& g = runner.session().current();
    const graph::Graph& ref = runner.session().reference();

    spectral::ProbeEngine engine;
    util::Rng probe_rng(42);
    util::Rng legacy_rng(42);
    double sparse = engine.sampled_stretch(g, ref, g.node_count() + 5, probe_rng);
    double legacy = core::sampled_stretch(g, ref, g.node_count() + 5, legacy_rng);
    EXPECT_DOUBLE_EQ(sparse, legacy);
}

TEST(StretchProbe, TrivialGraphsReportUnitStretch) {
    spectral::ProbeEngine engine;
    util::Rng rng(3);
    graph::Graph tiny;
    tiny.add_node();
    EXPECT_DOUBLE_EQ(engine.sampled_stretch(tiny, tiny, 8, rng), 1.0);
    // Budget 0 samples nothing: the probe reports the trivial floor.
    graph::Graph pair;
    pair.add_node();
    pair.add_node();
    pair.add_black_edge(0, 1);
    EXPECT_DOUBLE_EQ(engine.sampled_stretch(pair, pair, 0, rng), 1.0);
}

TEST(StretchProbe, DisconnectionInTheHealedGraphIsInfinite) {
    // ref: a path 0-1-2; g: node 1 deleted and no healing (no-heal would
    // leave 0 and 2 disconnected while ref connects them through 1).
    graph::Graph ref;
    for (int i = 0; i < 3; ++i) ref.add_node();
    ref.add_black_edge(0, 1);
    ref.add_black_edge(1, 2);
    graph::Graph g;
    for (int i = 0; i < 3; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(1, 2);
    g.remove_node(1);

    spectral::ProbeEngine engine;
    util::Rng rng(9);
    EXPECT_TRUE(std::isinf(engine.sampled_stretch(g, ref, 8, rng)));
}

TEST(StretchProbe, ProbeBudgetLeavesRunDeterminismUnchanged) {
    auto base_spec = churn_spec();
    auto probed_spec = churn_spec();
    probed_spec.probes = {"stretch", "lambda2", "connected"};
    probed_spec.sample_every = 7;
    probed_spec.stretch_samples = 3;
    auto heavy_spec = churn_spec();
    heavy_spec.probes = {"stretch"};
    heavy_spec.sample_every = 2;
    heavy_spec.stretch_samples = 31;

    auto base = scenario::ScenarioRunner(base_spec).run();
    auto probed = scenario::ScenarioRunner(probed_spec).run();
    auto heavy = scenario::ScenarioRunner(heavy_spec).run();
    EXPECT_EQ(base.trace_hash, probed.trace_hash);
    EXPECT_EQ(base.trace_hash, heavy.trace_hash);
    EXPECT_EQ(base.fingerprint, probed.fingerprint);
    EXPECT_EQ(base.fingerprint, heavy.fingerprint);
}

TEST(StretchProbe, UnbatchedCallAfterASampleBatchRebuildsTheReference) {
    // G and G' are the path 0-1-2-3. One journaled sample batch syncs both
    // snapshots; then G' alone gains the chord 0-3. An un-batched probe on
    // the same engine must rebuild the G' snapshot (dist_G'(0,3) = 1, stretch
    // 3), exactly like a fresh engine — never reuse the batch's stale one.
    auto path = [] {
        graph::Graph p;
        for (int i = 0; i < 4; ++i) p.add_node();
        for (graph::NodeId v = 0; v + 1 < 4; ++v) p.add_black_edge(v, v + 1);
        p.set_journal_limit(1000);
        return p;
    };
    graph::Graph g = path();
    graph::Graph ref = path();

    spectral::ProbeEngine engine;
    util::Rng rng(5);
    engine.begin_sample(g, g.journal(), g.journal_overflowed());
    engine.note_reference(ref, ref.journal(), ref.journal_overflowed());
    g.clear_journal();
    ref.clear_journal();
    EXPECT_DOUBLE_EQ(engine.sampled_stretch(g, ref, 100, rng), 1.0);
    engine.end_sample();

    ref.add_black_edge(0, 3);
    util::Rng fresh_rng(5);
    EXPECT_DOUBLE_EQ(spectral::ProbeEngine().sampled_stretch(g, ref, 100, fresh_rng), 3.0);
    EXPECT_DOUBLE_EQ(engine.sampled_stretch(g, ref, 100, rng), 3.0);
}

TEST(StretchProbe, MultiSourceMatchesPerSourceBfs) {
    // The probe runs its sources through one multi-source BFS per graph,
    // in chunks of up to 8; the per-source oracle must agree bit for bit
    // (+infinity included) at every budget around the chunk boundaries, and
    // both must leave the rng in the same state.
    util::Rng graphs(2024);
    std::size_t finite = 0, infinite = 0;
    for (int round = 0; round < 6; ++round) {
        std::size_t n = 150 + static_cast<std::size_t>(round) * 10;
        std::size_t drop = round % 3 == 0 ? 0 : static_cast<std::size_t>(round) * 4;
        auto [g, ref] = random_pair(n, drop, graphs);
        spectral::ProbeEngine engine;
        for (std::size_t budget : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                                   std::size_t{8}, std::size_t{9}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65}, std::size_t{130},
                                   g.node_count(), g.node_count() + 9}) {
            SCOPED_TRACE("round " + std::to_string(round) + " budget " +
                         std::to_string(budget));
            util::Rng probe_rng(round * 1000 + budget);
            util::Rng oracle_rng = probe_rng;
            double sampled = engine.sampled_stretch(g, ref, budget, probe_rng);
            double oracle = per_source_stretch(g, ref, budget, oracle_rng);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(sampled), std::bit_cast<std::uint64_t>(oracle));
            EXPECT_EQ(probe_rng.index(1u << 30), oracle_rng.index(1u << 30));
            (std::isinf(sampled) ? infinite : finite) += 1;
        }
    }
    // Both outcomes occur, so the comparison covers the +infinity exit and
    // the finite max.
    EXPECT_GT(finite, 0u);
    EXPECT_GT(infinite, 0u);
}
