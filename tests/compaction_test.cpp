// Id-compaction epoch tests (DESIGN.md decision 12): graph-level remap
// semantics and slot-storage reclamation, the O(live) iteration bound the
// compaction exists to restore, steady-state allocation-freedom of the
// epoch close (counting allocator), and the scenario-layer contract —
// `compact=` runs are deterministic across double runs and strict replay
// reproduces the recorded stream across compaction boundaries, for both
// the in-process healer and the message-passing distributed backend.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <vector>

#include "graph/graph.hpp"
#include "scenario/runner.hpp"
#include "util/rng.hpp"

// ----- counting allocator -------------------------------------------------
// This TU overrides global operator new/delete to count heap allocations;
// each test source builds its own binary, so the override is local to this
// suite. Only allocation *counts* inside explicitly scoped regions are
// asserted — gtest's own allocations happen outside them.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace xheal;
using namespace xheal::graph;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::TraceEvent;

std::uint64_t allocations_during(const std::function<void()>& fn) {
    std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// ----- graph-level semantics ----------------------------------------------

TEST(Compaction, RemapIsAscendingDenseAndPreservesAdjacency) {
    Graph g;
    for (int i = 0; i < 10; ++i) g.add_node();
    // Ring + chords, then kill the odd ids: survivors 0,2,4,6,8.
    for (NodeId v = 0; v < 10; ++v) g.add_black_edge(v, (v + 1) % 10);
    g.add_black_edge(0, 4);
    g.add_color_claim(2, 8, 5);
    for (NodeId v = 1; v < 10; v += 2) g.remove_node(v);

    // Expected survivor adjacency keyed by *old* id.
    std::map<NodeId, std::set<NodeId>> before;
    for (NodeId v : g.nodes())
        for (NodeId u : g.neighbors(v)) before[v].insert(u);

    std::vector<NodeId> map;
    g.compact(map);

    // Map shape: pre-compaction next_id entries, ascending dense ranks on
    // the live ids, invalid elsewhere.
    ASSERT_EQ(map.size(), 10u);
    EXPECT_EQ(map[0], 0u);
    EXPECT_EQ(map[2], 1u);
    EXPECT_EQ(map[4], 2u);
    EXPECT_EQ(map[6], 3u);
    EXPECT_EQ(map[8], 4u);
    for (NodeId v = 1; v < 10; v += 2) EXPECT_EQ(map[v], invalid_node);

    // The epoch closed: dense id space, zero waste, ids restart after the
    // live range.
    EXPECT_EQ(g.node_count(), 5u);
    EXPECT_EQ(g.next_id(), 5u);
    EXPECT_EQ(g.retired_slots(), 0u);

    // Adjacency (and claim kinds) survived the renumbering.
    for (const auto& [old_v, nbrs] : before) {
        NodeId v = map[old_v];
        ASSERT_EQ(g.degree(v), nbrs.size());
        for (NodeId old_u : nbrs) EXPECT_TRUE(g.has_edge(v, map[old_u]));
    }
    EXPECT_TRUE(g.has_color_claim(map[2], map[8], 5));
    EXPECT_TRUE(g.has_black_claim(map[0], map[4]));

    // Post-compaction ids continue densely.
    EXPECT_EQ(g.add_node(), 5u);
}

TEST(Compaction, IterationCostIsProportionalToLiveNotIssued) {
    // Satellite of the unbounded-leak fix: NodesView walks every slot up
    // to next_id(), so after heavy churn iteration pays O(issued). The
    // compaction epoch restores O(live): the slot address space itself —
    // the quantity iteration is proportional to — shrinks to the live
    // count. Pin the bound structurally via next_id()/retired_slots().
    Graph g;
    std::vector<NodeId> alive;
    for (int i = 0; i < 64; ++i) alive.push_back(g.add_node());
    util::Rng rng(7);
    for (int round = 0; round < 2000; ++round) {
        std::size_t at = rng.index(alive.size());
        g.remove_node(alive[at]);
        alive[at] = g.add_node();
    }
    // 2064 ids issued, 64 live: iteration now walks ~32x the live count.
    EXPECT_EQ(g.node_count(), 64u);
    EXPECT_EQ(g.next_id(), 2064u);
    EXPECT_GE(g.retired_slots(), 2000u);

    std::vector<NodeId> map;
    g.compact(map);

    // The address space — and with it the iteration cost — is live-sized
    // again, and the view yields exactly the live ids, ascending.
    EXPECT_EQ(g.next_id(), 64u);
    EXPECT_EQ(g.retired_slots(), 0u);
    std::size_t walked = 0;
    NodeId prev = 0;
    for (NodeId v : g.nodes()) {
        EXPECT_TRUE(walked == 0 || v > prev);
        prev = v;
        ++walked;
    }
    EXPECT_EQ(walked, 64u);
    EXPECT_EQ(g.nodes().size(), 64u);
}

TEST(Compaction, SlotStorageStaysBoundedAcrossUnboundedChurn) {
    // The leak this PR fixes, at graph scale: issue 100k ids with a 256-
    // node live population, compacting whenever waste crosses 4x. The slot
    // address space must never exceed a small multiple of live.
    Graph g;
    std::vector<NodeId> alive;
    for (int i = 0; i < 256; ++i) alive.push_back(g.add_node());
    util::Rng rng(99);
    std::vector<NodeId> map;
    std::size_t issued = 256, peak = 0, compactions = 0;
    while (issued < 100000) {
        std::size_t at = rng.index(alive.size());
        g.remove_node(alive[at]);
        alive[at] = g.add_node();
        ++issued;
        peak = std::max<std::size_t>(peak, g.next_id());
        if (g.next_id() >= 4 * g.node_count()) {
            g.compact(map);
            for (NodeId& v : alive) v = map[v];
            ++compactions;
            peak = std::max<std::size_t>(peak, g.next_id());
        }
    }
    EXPECT_GE(compactions, 50u);
    EXPECT_EQ(g.node_count(), 256u);
    // Peak address space bounded by the trigger factor, not by issuance.
    EXPECT_LE(peak, 4 * 256u + 1);
}

TEST(Compaction, SteadyStateEpochCloseDoesNotAllocate) {
    // graph.hpp promises compact() is allocation-free once the caller's
    // scratch map and the internal row pool have grown. Warm up with two
    // full churn+compact cycles, then count heap allocations during the
    // third epoch close: it must be zero.
    Graph g;
    std::vector<NodeId> alive;
    for (int i = 0; i < 128; ++i) alive.push_back(g.add_node());
    for (std::size_t i = 1; i < alive.size(); ++i)
        g.add_black_edge(alive[i - 1], alive[i]);
    util::Rng rng(3);
    std::vector<NodeId> map;

    auto churn = [&] {
        for (int round = 0; round < 512; ++round) {
            std::size_t at = rng.index(alive.size());
            g.remove_node(alive[at]);
            NodeId v = g.add_node();
            alive[at] = v;
            g.add_black_edge(v, alive[(at + 1) % alive.size()]);
        }
    };

    for (int warmup = 0; warmup < 2; ++warmup) {
        churn();
        g.compact(map);
        for (NodeId& v : alive) v = map[v];
    }
    churn();
    std::uint64_t allocs = allocations_during([&] { g.compact(map); });
    for (NodeId& v : alive) v = map[v];
    EXPECT_EQ(allocs, 0u)
        << "compact() allocated in steady state — pooled row storage or the "
           "caller scratch map is not being reused";
}

// ----- scenario-layer contract --------------------------------------------

ScenarioSpec compact_churn_spec() {
    return ScenarioSpec::parse(R"(
name compact-churn
seed 11
topology erdos-renyi n=40 p=0.15
healer xheal d=2
phase churn steps=160 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=12 compact=2
expect connected
expect peak_slot_factor <= 4
)");
}

ScenarioSpec compact_dist_spec() {
    return ScenarioSpec::parse(R"(
name compact-dist
seed 303
topology random-regular n=48 d=4
healer xheal-dist d=2
phase churn steps=120 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=20 compact=2
expect connected
)");
}

TEST(CompactionScenario, DoubleRunTraceHashesAreIdentical) {
    auto first = ScenarioRunner(compact_churn_spec()).run();
    auto second = ScenarioRunner(compact_churn_spec()).run();
    ASSERT_GE(first.compactions, 1u)
        << "spec never triggered a compaction — the test is vacuous";
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.compactions, second.compactions);
    EXPECT_EQ(first.events.size(), second.events.size());
    EXPECT_TRUE(first.passed()) << (first.failures.empty() ? "" : first.failures[0]);
    // The compact events are in the recorded stream (replay depends on
    // them, not on re-evaluating the trigger).
    std::size_t compact_events = 0;
    for (const TraceEvent& e : first.events)
        if (e.kind == TraceEvent::Kind::compact) ++compact_events;
    EXPECT_EQ(compact_events, first.compactions);
}

TEST(CompactionScenario, ReplayReproducesAcrossCompactionBoundaries) {
    auto s = compact_churn_spec();
    auto recorded = ScenarioRunner(s).run();
    // compact=2 on a 40-node graph closes several epochs per run, so ids
    // are renumbered again after already-renumbered events.
    ASSERT_GE(recorded.compactions, 3u);
    auto trace = recorded.to_trace(s);
    auto replayed = ScenarioRunner(s).replay(trace);
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
    EXPECT_EQ(replayed.compactions, recorded.compactions);

    // With the lambda2 probe on, ProbeEngine::on_compact must carry the
    // snapshots and the warm-start vector onto the new numbering: the
    // replayed final lambda2 equals the recorded one bit for bit.
    auto probed = ScenarioSpec::parse(R"(
name replay-compact-lambda2
seed 23
topology random-regular n=64 d=4
healer xheal d=2
probes connected lambda2
sample_every 0
phase churn steps=160 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=24 compact=2
expect connected
expect lambda2 >= 0.01
)");
    auto probed_run = ScenarioRunner(probed).run();
    ASSERT_GE(probed_run.compactions, 1u);
    auto probed_replay = ScenarioRunner(probed).replay(probed_run.to_trace(probed));
    EXPECT_EQ(probed_replay.trace_hash, probed_run.trace_hash);
    EXPECT_EQ(probed_replay.fingerprint, probed_run.fingerprint);
    EXPECT_EQ(probed_replay.compactions, probed_run.compactions);
    EXPECT_EQ(probed_replay.failures, probed_run.failures);
    ASSERT_FALSE(std::isnan(probed_replay.final_sample.lambda2));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probed_replay.final_sample.lambda2),
              std::bit_cast<std::uint64_t>(probed_run.final_sample.lambda2));
}

TEST(CompactionScenario, ReplayMatchesRunSlotAccounting) {
    // peak_slot_count / live_high_water are the numerator and denominator
    // of the `expect peak_slot_factor <=` bound — replay must keep the
    // same per-step accounting discipline as run() (seeded from the
    // initial topology, sampled at step boundaries before compaction
    // fires), or a replayed trace could pass an expectation the recorded
    // run failed.
    auto s = compact_churn_spec();
    auto recorded = ScenarioRunner(s).run();
    ASSERT_GE(recorded.compactions, 1u);
    ASSERT_GT(recorded.peak_slot_count, 0u);
    ASSERT_GT(recorded.live_high_water, 0u);
    auto replayed = ScenarioRunner(s).replay(recorded.to_trace(s));
    EXPECT_EQ(replayed.peak_slot_count, recorded.peak_slot_count);
    EXPECT_EQ(replayed.live_high_water, recorded.live_high_water);
    EXPECT_EQ(replayed.failures, recorded.failures);

    // And on a compaction-free spec, where the peak is just the issuance
    // high-water mark — the two paths must still agree exactly.
    auto plain = ScenarioSpec::parse(R"(
name no-compact-accounting
seed 17
topology erdos-renyi n=40 p=0.15
healer xheal d=2
phase churn steps=80 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=12
expect connected
)");
    auto run_r = ScenarioRunner(plain).run();
    auto rep_r = ScenarioRunner(plain).replay(run_r.to_trace(plain));
    EXPECT_EQ(rep_r.peak_slot_count, run_r.peak_slot_count);
    EXPECT_EQ(rep_r.live_high_water, run_r.live_high_water);
}

TEST(CompactionScenario, TraceJsonlRoundTripsCompactEvents) {
    auto s = compact_churn_spec();
    auto recorded = ScenarioRunner(s).run();
    ASSERT_GE(recorded.compactions, 1u);
    auto trace = recorded.to_trace(s);
    std::ostringstream out;
    scenario::write_trace(out, trace);
    std::istringstream in(out.str());
    auto back = scenario::read_trace(in);
    ASSERT_EQ(back.events.size(), trace.events.size());
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        EXPECT_EQ(back.events[i].kind, trace.events[i].kind);
        EXPECT_EQ(back.events[i].step, trace.events[i].step);
        EXPECT_EQ(back.events[i].node, trace.events[i].node);
    }
    auto replayed = ScenarioRunner(s).replay(back);
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
}

TEST(CompactionScenario, DistributedHealerCompactsDeterministically) {
    // The distributed backend remaps its simulated network addressing at
    // the epoch boundary (Network::remap_nodes); billing and stream must
    // stay deterministic.
    auto first = ScenarioRunner(compact_dist_spec()).run();
    auto second = ScenarioRunner(compact_dist_spec()).run();
    ASSERT_GE(first.compactions, 1u)
        << "spec never triggered a compaction — the test is vacuous";
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_TRUE(first.passed()) << (first.failures.empty() ? "" : first.failures[0]);
    EXPECT_EQ(first.final_sample.messages, second.final_sample.messages);
    EXPECT_EQ(first.final_sample.rounds, second.final_sample.rounds);

    auto s = compact_dist_spec();
    auto trace = first.to_trace(s);
    auto replayed = ScenarioRunner(s).replay(trace);
    EXPECT_EQ(replayed.trace_hash, first.trace_hash);
    EXPECT_EQ(replayed.fingerprint, first.fingerprint);
}

TEST(CompactionScenario, LegacySpecsNeverCompact) {
    // compact= defaults to off: a spec without the key must keep the exact
    // pre-epoch behavior (zero compactions, no compact events) — this is
    // what keeps every checked-in golden trace and fingerprint valid.
    auto spec = ScenarioSpec::parse(R"(
name no-compact
seed 11
topology erdos-renyi n=40 p=0.15
healer xheal d=2
phase churn steps=80 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=12
expect connected
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.compactions, 0u);
    for (const TraceEvent& e : result.events)
        EXPECT_NE(e.kind, TraceEvent::Kind::compact);
}

}  // namespace
