// Structural-event allocation soak: the repair hot path is allocation-free
// in steady state (repair_scratch_soak_test), and since the arena'd
// connect_units landed the STRUCTURAL events — creating a new secondary
// expander cloud and the costly combine — are too: clouds are recycled
// through the registry's slot pool, heal events and their member vectors
// through the healer's event pool, and every former per-call container is
// a persistent scratch buffer. This soak drives exactly those paths (a
// bridge-hunting kill loop starves clouds of free nodes, forcing
// FixSecondary and combines) and PINS the steady-state budget at ZERO.
//
// "Steady state" means every pooled buffer has seen its peak: the cloud
// pool its peak live-cloud count, each revived cloud's H-graph its peak
// membership, the event pool its peak per-repair event count. Those peaks
// depend on how the kill schedule unfolds, so a fixed-length warmup can't
// be trusted; instead the warmup is ADAPTIVE — batches of bridge kills
// until two consecutive batches allocate nothing — and only then does the
// counted window open. A single allocation in the window fails the pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "core/cloud_registry.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

// ----- counting global allocator -----------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace xheal;
using graph::NodeId;

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Bridge-first victim picker (the adversary::BridgeHunterDeletion policy)
/// with caller-owned scratch, so the PICKER contributes no allocations to
/// the counted window — the budget below measures the healer alone.
NodeId pick_bridge_victim(const core::HealingSession& session,
                          const core::CloudRegistry& registry,
                          std::vector<graph::ColorId>& prim_scratch) {
    const auto& g = session.current();
    NodeId best = graph::invalid_node;
    std::size_t best_score = 0;
    for (NodeId v : g.nodes()) {
        if (registry.is_free(v)) continue;
        registry.primary_clouds_of(g, v, prim_scratch);
        std::size_t score = 1 + prim_scratch.size();
        if (best == graph::invalid_node || score > best_score) {
            best = v;
            best_score = score;
        }
    }
    if (best != graph::invalid_node) return best;
    // Before any cloud exists (or between waves) fall back to the hub, the
    // deletion most likely to spawn the first secondary clouds.
    std::size_t best_degree = 0;
    for (NodeId v : g.nodes()) {
        std::size_t d = g.degree(v);
        if (best == graph::invalid_node || d > best_degree) {
            best = v;
            best_degree = d;
        }
    }
    return best;
}

/// Adversary inserts restoring the population to `target`, each new node
/// attached to three distinct random survivors. Runs OUTSIDE the measured
/// batches: insertion itself may allocate (fresh ids grow the graph's slot
/// table and, once they bridge, the registry's secondary table), but it
/// keeps the workload stationary so the kill batches can reach a true
/// steady state.
void replenish(core::HealingSession& session, util::Rng& rng, std::size_t target,
               std::vector<NodeId>& alive, std::vector<NodeId>& nbrs) {
    while (session.current().node_count() < target) {
        const auto view = session.current().nodes();
        alive.assign(view.begin(), view.end());
        nbrs.clear();
        while (nbrs.size() < 3 && nbrs.size() < alive.size()) {
            NodeId w = alive[rng.index(alive.size())];
            if (std::find(nbrs.begin(), nbrs.end(), w) == nbrs.end()) nbrs.push_back(w);
        }
        session.insert_node(nbrs);
    }
}

}  // namespace

TEST(ConnectUnitsSoak, StructuralEventsAllocateNothingInSteadyState) {
    util::Rng topo_rng(29);
    auto healer = std::make_unique<core::XhealHealer>(core::XhealConfig{/*d=*/2,
                                                                       /*seed=*/17});
    const core::CloudRegistry& registry = healer->registry();
    core::HealingSession session(workload::make_erdos_renyi(140, 0.12, topo_rng),
                                 std::move(healer));

    std::vector<graph::ColorId> prim_scratch;
    std::vector<NodeId> alive_scratch, nbr_scratch;
    util::Rng insert_rng(99);
    core::RepairReport window_totals;

    // Adaptive warmup: batches of 10 bridge kills, population replenished
    // between batches (outside measurement) so the workload is stationary,
    // until two consecutive batches allocate nothing — only then has every
    // pool provably seen its peak for this schedule. A fixed-length warmup
    // can't be trusted: the peaks (pool slots, per-slot H-graph sizes,
    // per-repair event counts) depend on how the schedule unfolds.
    std::size_t warm_batches = 0;
    std::size_t zero_streak = 0;
    while (zero_streak < 2) {
        ASSERT_LT(warm_batches, 300u)
            << "warmup never reached an allocation-free batch — the arena is "
               "no longer reaching steady state";
        replenish(session, insert_rng, 140, alive_scratch, nbr_scratch);
        std::uint64_t batch_before = allocations();
        for (int i = 0; i < 10; ++i) {
            NodeId v = pick_bridge_victim(session, registry, prim_scratch);
            ASSERT_NE(v, graph::invalid_node);
            session.delete_node(v);
        }
        zero_streak = allocations() == batch_before ? zero_streak + 1 : 0;
        ++warm_batches;
    }
    ASSERT_GT(registry.cloud_count(), 0u);

    // Counted window: 30 more bridge kills, all forcing FixSecondary /
    // combine repairs (each one creates or merges clouds).
    replenish(session, insert_rng, 140, alive_scratch, nbr_scratch);
    std::uint64_t before = allocations();
    std::size_t deletions = 0;
    for (int i = 0; i < 30; ++i) {
        NodeId v = pick_bridge_victim(session, registry, prim_scratch);
        ASSERT_NE(v, graph::invalid_node);
        auto report = session.delete_node(v);
        window_totals.accumulate(report);
        ++deletions;
    }
    std::uint64_t allocated = allocations() - before;

    // The window must actually have exercised the structural paths.
    ASSERT_EQ(deletions, 30u);
    ASSERT_GT(window_totals.combines, 0u) << "workload no longer forces combines";
    ASSERT_GT(window_totals.clouds_touched, deletions)
        << "workload no longer creates/merges clouds";

    // The PIN: zero. Cloud creation recycles a pooled slot, combine reuses
    // the survivor's H-graph storage, events and member lists come from the
    // event pool — nothing on the structural path may touch the heap once
    // warm. Any regression (a per-event container, a re-materialized
    // member list) fails here with the exact count.
    EXPECT_EQ(allocated, 0u)
        << allocated << " allocations over " << window_totals.clouds_touched
        << " structural cloud events — the arena'd connect_units path "
           "regressed";
    std::cout << "[ BUDGET   ] " << allocated << " allocations / "
              << window_totals.clouds_touched << " cloud events after "
              << warm_batches << " warmup batches (combines: "
              << window_totals.combines << ")\n";

    session.healer().check_consistency(session.current());
}
