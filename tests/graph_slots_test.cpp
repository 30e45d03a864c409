// Property tests for the slot-indexed flat-adjacency storage core:
// tombstone reuse rules, allocation-free view iteration against a
// sorted-container oracle, claim-set transitions under interleaved
// add/remove, the incremental degree-histogram extremes, and the bulk fill
// of an initial topology against the per-edge build.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "expander/hgraph.hpp"
#include "graph/graph.hpp"
#include "scenario/trace.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::graph;
using xheal::util::ContractViolation;
using xheal::util::Rng;

// ----- tombstone rules -----

TEST(GraphSlots, TombstonedIdIsNeverReusable) {
    Graph g;
    NodeId a = g.add_node();
    NodeId b = g.add_node();
    g.add_black_edge(a, b);
    g.remove_node(a);
    EXPECT_FALSE(g.has_node(a));
    // The id is retired: explicit re-insertion is a contract violation...
    EXPECT_THROW(g.add_node_with_id(a), ContractViolation);
    // ...and fresh allocation skips past it.
    EXPECT_EQ(g.add_node(), 2u);
    EXPECT_EQ(g.next_id(), 3u);
}

TEST(GraphSlots, GapSlotsFromMirroredIdsAreFillable) {
    Graph g;
    g.add_node_with_id(5);  // ids 0..4 become gap slots, never issued
    EXPECT_FALSE(g.has_node(3));
    g.add_node_with_id(3);  // a gap is not a tombstone
    EXPECT_TRUE(g.has_node(3));
    EXPECT_EQ(g.node_count(), 2u);
    // A gap that got filled and then removed is retired like any other id.
    g.remove_node(3);
    EXPECT_THROW(g.add_node_with_id(3), ContractViolation);
    EXPECT_EQ(g.add_node(), 6u);
}

TEST(GraphSlots, DeadSlotRejectsAllNodeAndEdgeOperations) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.remove_node(1);
    EXPECT_THROW(g.remove_node(1), ContractViolation);
    EXPECT_THROW(g.degree(1), ContractViolation);
    EXPECT_THROW(g.add_black_edge(0, 1), ContractViolation);
    EXPECT_THROW((void)g.neighbors(1), ContractViolation);
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphSlots, TombstoneScanIsSkippedByViews) {
    Graph g;
    for (int i = 0; i < 10; ++i) g.add_node();
    for (NodeId v : {2u, 3u, 4u, 7u, 9u}) g.remove_node(v);
    std::vector<NodeId> seen;
    for (NodeId v : g.nodes()) seen.push_back(v);
    EXPECT_EQ(seen, (std::vector<NodeId>{0, 1, 5, 6, 8}));
    EXPECT_EQ(g.nodes().size(), 5u);
    EXPECT_EQ(g.nodes().front(), 0u);
    g.remove_node(0);
    EXPECT_EQ(g.nodes().front(), 1u);
}

// ----- views vs a sorted-container oracle -----

/// Reference model: ordered adjacency sets plus per-edge claim state.
struct Oracle {
    std::map<NodeId, std::set<NodeId>> adj;
    std::map<std::pair<NodeId, NodeId>, std::pair<bool, std::set<ColorId>>> claims;

    static std::pair<NodeId, NodeId> key(NodeId u, NodeId v) {
        return {std::min(u, v), std::max(u, v)};
    }
    void add_edge(NodeId u, NodeId v) {
        adj[u].insert(v);
        adj[v].insert(u);
    }
    void erase_edge_if_unclaimed(NodeId u, NodeId v) {
        auto it = claims.find(key(u, v));
        if (it != claims.end() && (it->second.first || !it->second.second.empty())) return;
        claims.erase(key(u, v));
        adj[u].erase(v);
        adj[v].erase(u);
    }
};

void expect_matches_oracle(const Graph& g, const Oracle& oracle) {
    // Node view matches the oracle's sorted key walk.
    std::vector<NodeId> got;
    for (NodeId v : g.nodes()) got.push_back(v);
    std::vector<NodeId> want;
    for (const auto& [v, _] : oracle.adj) want.push_back(v);
    ASSERT_EQ(got, want);
    ASSERT_EQ(g.node_count(), oracle.adj.size());

    std::size_t edge_total = 0;
    std::size_t max_deg = 0;
    std::size_t min_deg = oracle.adj.empty() ? 0 : SIZE_MAX;
    for (const auto& [v, nbrs] : oracle.adj) {
        // Neighbor view matches the oracle's sorted set, including random
        // access.
        std::vector<NodeId> gn;
        for (NodeId u : g.neighbors(v)) gn.push_back(u);
        std::vector<NodeId> wn(nbrs.begin(), nbrs.end());
        ASSERT_EQ(gn, wn);
        ASSERT_EQ(g.neighbors(v).size(), nbrs.size());
        ASSERT_EQ(g.degree(v), nbrs.size());
        for (std::size_t i = 0; i < wn.size(); ++i) ASSERT_EQ(g.neighbors(v)[i], wn[i]);
        edge_total += nbrs.size();
        max_deg = std::max(max_deg, nbrs.size());
        min_deg = std::min(min_deg, nbrs.size());
    }
    ASSERT_EQ(2 * g.edge_count(), edge_total);
    ASSERT_EQ(g.max_degree(), max_deg);
    ASSERT_EQ(g.min_degree(), oracle.adj.empty() ? 0 : min_deg);

    // for_each_edge visits each edge once, ascending, with live claims.
    std::pair<NodeId, NodeId> prev{0, 0};
    bool first = true;
    std::size_t visits = 0;
    g.for_each_edge([&](NodeId u, NodeId v, const EdgeClaims& c) {
        ASSERT_LT(u, v);
        if (!first) ASSERT_TRUE(prev < std::make_pair(u, v));
        prev = {u, v};
        first = false;
        ++visits;
        auto it = oracle.claims.find({u, v});
        ASSERT_NE(it, oracle.claims.end());
        ASSERT_EQ(c.black, it->second.first);
        std::vector<ColorId> wc(it->second.second.begin(), it->second.second.end());
        ASSERT_EQ(c.colors, wc);
        // The mirror entry must carry identical claims.
        ASSERT_EQ(g.claims(v, u).black, c.black);
        ASSERT_EQ(g.claims(v, u).colors, c.colors);
    });
    ASSERT_EQ(visits, g.edge_count());
}

TEST(GraphSlots, RandomChurnMatchesOracle) {
    Rng rng(0x51ee7ULL);
    Graph g;
    Oracle oracle;
    std::vector<NodeId> alive;

    for (int step = 0; step < 3000; ++step) {
        double roll = rng.uniform01();
        if (roll < 0.15 || alive.size() < 2) {
            NodeId v = g.add_node();
            oracle.adj[v];
            alive.push_back(v);
        } else if (roll < 0.25 && alive.size() > 2) {
            std::size_t i = rng.index(alive.size());
            NodeId v = alive[i];
            for (NodeId u : oracle.adj[v]) {
                oracle.adj[u].erase(v);
                oracle.claims.erase(Oracle::key(u, v));
            }
            oracle.adj.erase(v);
            g.remove_node(v);
            alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            NodeId u = alive[rng.index(alive.size())];
            NodeId v = alive[rng.index(alive.size())];
            if (u == v) continue;
            auto key = Oracle::key(u, v);
            double op = rng.uniform01();
            if (op < 0.35) {
                g.add_black_edge(u, v);
                oracle.add_edge(u, v);
                oracle.claims[key].first = true;
            } else if (op < 0.65) {
                ColorId c = 1 + static_cast<ColorId>(rng.index(6));
                g.add_color_claim(u, v, c);
                oracle.add_edge(u, v);
                oracle.claims[key].second.insert(c);
            } else if (op < 0.85) {
                ColorId c = 1 + static_cast<ColorId>(rng.index(6));
                bool had = oracle.claims.contains(key) && oracle.claims[key].second.count(c);
                EXPECT_EQ(g.remove_color_claim(u, v, c), had);
                if (had) {
                    oracle.claims[key].second.erase(c);
                    oracle.erase_edge_if_unclaimed(u, v);
                }
            } else {
                bool had = oracle.claims.contains(key) && oracle.claims[key].first;
                EXPECT_EQ(g.remove_black_claim(u, v), had);
                if (had) {
                    oracle.claims[key].first = false;
                    oracle.erase_edge_if_unclaimed(u, v);
                }
            }
        }
        if (step % 50 == 0) expect_matches_oracle(g, oracle);
    }
    expect_matches_oracle(g, oracle);
}

// ----- claim-set transitions under interleaved add/remove -----

TEST(GraphSlots, ClaimTransitionsPreserveEdgeLifecycle) {
    Graph g;
    g.add_node();
    g.add_node();
    // black -> +c1 -> +c2 -> -black -> -c1 -> -c2 kills the edge exactly
    // at the last step.
    g.add_black_edge(0, 1);
    g.add_color_claim(0, 1, 1);
    g.add_color_claim(0, 1, 2);
    EXPECT_TRUE(g.remove_black_claim(0, 1));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.remove_color_claim(0, 1, 1));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.remove_color_claim(0, 1, 2));
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 0u);

    // Idempotence: re-adding the same claim twice keeps one edge, and the
    // claim set is a set.
    g.add_color_claim(0, 1, 7);
    g.add_color_claim(1, 0, 7);
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(g.claims(0, 1).colors, (std::vector<ColorId>{7}));
    // Recreating a black edge after a full teardown works (edges, unlike
    // node ids, may be recreated).
    EXPECT_TRUE(g.remove_color_claim(0, 1, 7));
    g.add_black_edge(0, 1);
    EXPECT_TRUE(g.has_black_claim(0, 1));
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphSlots, InterleavedClaimChurnKeepsMirrorsExact) {
    Rng rng(77);
    Graph g;
    for (int i = 0; i < 8; ++i) g.add_node();
    for (int step = 0; step < 2000; ++step) {
        NodeId u = static_cast<NodeId>(rng.index(8));
        NodeId v = static_cast<NodeId>(rng.index(8));
        if (u == v) continue;
        switch (rng.index(4)) {
            case 0: g.add_black_edge(u, v); break;
            case 1: g.add_color_claim(u, v, 1 + static_cast<ColorId>(rng.index(3))); break;
            case 2: g.remove_color_claim(u, v, 1 + static_cast<ColorId>(rng.index(3))); break;
            default: g.remove_black_claim(u, v); break;
        }
        // Claim-empty => edge erased, mirrors bit-for-bit equal.
        g.for_each_edge([&](NodeId a, NodeId b, const EdgeClaims& c) {
            ASSERT_FALSE(c.empty());
            ASSERT_EQ(g.claims(b, a).black, c.black);
            ASSERT_EQ(g.claims(b, a).colors, c.colors);
        });
    }
}

// ----- incremental degree extremes -----

TEST(GraphSlots, DegreeExtremesTrackChurn) {
    Graph g;
    EXPECT_EQ(g.max_degree(), 0u);
    EXPECT_EQ(g.min_degree(), 0u);
    for (int i = 0; i < 6; ++i) g.add_node();
    EXPECT_EQ(g.max_degree(), 0u);
    for (NodeId v = 1; v < 6; ++v) g.add_black_edge(0, v);  // star
    EXPECT_EQ(g.max_degree(), 5u);
    EXPECT_EQ(g.min_degree(), 1u);
    g.remove_node(0);  // hub gone: everyone isolated
    EXPECT_EQ(g.max_degree(), 0u);
    EXPECT_EQ(g.min_degree(), 0u);
    g.add_black_edge(1, 2);
    g.add_black_edge(2, 3);
    EXPECT_EQ(g.max_degree(), 2u);
    EXPECT_EQ(g.min_degree(), 0u);
    g.remove_node(4);
    g.remove_node(5);
    EXPECT_EQ(g.min_degree(), 1u);
    g.remove_node(2);
    EXPECT_EQ(g.max_degree(), 0u);
}

// ----- bulk fill -----

/// Nodes 0..n-1, then add_black_edge per pair: the build the bulk fill
/// must equal.
Graph per_edge_build(std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
    Graph g;
    for (std::size_t i = 0; i < n; ++i) g.add_node();
    for (const auto& [u, v] : edges) g.add_black_edge(u, v);
    return g;
}

void expect_same_graph(const Graph& a, const Graph& b) {
    ASSERT_EQ(a.node_count(), b.node_count());
    ASSERT_EQ(a.next_id(), b.next_id());
    EXPECT_EQ(a.edge_count(), b.edge_count());
    EXPECT_EQ(a.max_degree(), b.max_degree());
    EXPECT_EQ(a.min_degree(), b.min_degree());
    EXPECT_EQ(a.journal_overflowed(), b.journal_overflowed());
    EXPECT_EQ(a.journal(), b.journal());
    for (NodeId v : a.nodes()) {
        ASSERT_TRUE(b.has_node(v));
        ASSERT_EQ(a.degree(v), b.degree(v)) << "node " << v;
        auto ra = a.row(v);
        auto rb = b.row(v);
        for (std::size_t i = 0; i < ra.size(); ++i) {
            ASSERT_EQ(ra[i].first, rb[i].first) << "node " << v;
            ASSERT_EQ(ra[i].second.black, rb[i].second.black);
            ASSERT_TRUE(ra[i].second.colors == rb[i].second.colors);
        }
    }
    EXPECT_EQ(xheal::scenario::graph_fingerprint(a), xheal::scenario::graph_fingerprint(b));
}

TEST(GraphSlots, BulkFillEqualsPerEdgeBuild) {
    for (std::size_t n : {48u, 1000u, 20000u}) {
        SCOPED_TRACE(n);
        // make_hgraph_graph (the bulk fill) against the per-edge build of
        // the same H-graph drawn from a copy of its rng.
        Rng rng(n * 31 + 7);
        Rng replay = rng;
        Graph bulk = xheal::workload::make_hgraph_graph(n, 3, rng);
        std::vector<NodeId> members;
        for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<NodeId>(i));
        auto edges = xheal::expander::HGraph(members, 3, replay).edges();
        Graph built = per_edge_build(n, edges);
        expect_same_graph(bulk, built);

        // An unsorted list with flipped orientations and repeats fills the
        // same graph.
        auto messy = edges;
        for (std::size_t i = 0; i < messy.size(); i += 3)
            messy[i] = {messy[i].second, messy[i].first};
        messy.insert(messy.end(), edges.begin(), edges.begin() + edges.size() / 5);
        Rng shuffle_rng(n);
        shuffle_rng.shuffle(messy);
        expect_same_graph(Graph::with_black_edges(n, messy), built);

        // The degree histogram behind the extremes: drain both graphs the
        // same way and the extremes keep agreeing.
        Graph drained_bulk = bulk;
        Graph drained_built = built;
        for (NodeId v = 0; v < n; v += 2) {
            drained_bulk.remove_node(v);
            drained_built.remove_node(v);
            if (v % 64 == 0) {
                ASSERT_EQ(drained_bulk.max_degree(), drained_built.max_degree());
                ASSERT_EQ(drained_bulk.min_degree(), drained_built.min_degree());
            }
        }
        expect_same_graph(drained_bulk, drained_built);

        // A healing session over each repairs identically.
        auto make_session = [](Graph g) {
            return xheal::core::HealingSession(
                std::move(g),
                std::make_unique<xheal::core::XhealHealer>(xheal::core::XhealConfig{2, 9}));
        };
        auto from_bulk = make_session(bulk);
        auto from_built = make_session(built);
        Rng victims(n + 1);
        for (int i = 0; i < 40; ++i) {
            NodeId v = static_cast<NodeId>(victims.index(n));
            if (!from_bulk.current().has_node(v)) continue;
            from_bulk.delete_node(v);
            from_built.delete_node(v);
        }
        EXPECT_EQ(xheal::scenario::graph_fingerprint(from_bulk.current()),
                  xheal::scenario::graph_fingerprint(from_built.current()));
        EXPECT_EQ(xheal::scenario::graph_fingerprint(from_bulk.reference()),
                  xheal::scenario::graph_fingerprint(from_built.reference()));
    }
    Graph empty = Graph::with_black_edges(0, {});
    expect_same_graph(empty, Graph{});
}

}  // namespace
