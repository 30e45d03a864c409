#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "util/expects.hpp"

namespace {

using namespace xheal::graph;
using xheal::util::ContractViolation;

TEST(Graph, AddNodesAllocatesMonotonicIds) {
    Graph g;
    EXPECT_EQ(g.add_node(), 0u);
    EXPECT_EQ(g.add_node(), 1u);
    g.remove_node(1);
    // Ids are never reused.
    EXPECT_EQ(g.add_node(), 2u);
    EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, AddNodeWithIdAdvancesCounter) {
    Graph g;
    g.add_node_with_id(10);
    EXPECT_EQ(g.add_node(), 11u);
    EXPECT_THROW(g.add_node_with_id(10), ContractViolation);
}

TEST(Graph, BlackEdgeBasics) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_black_claim(0, 1));
    EXPECT_FALSE(g.is_colored_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
    // Idempotent.
    g.add_black_edge(1, 0);
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, SelfLoopRejected) {
    Graph g;
    g.add_node();
    EXPECT_THROW(g.add_black_edge(0, 0), ContractViolation);
}

TEST(Graph, ColorClaimCreatesEdge) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_color_claim(0, 1, 5);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.is_colored_edge(0, 1));
    EXPECT_FALSE(g.has_black_claim(0, 1));
    EXPECT_TRUE(g.has_color_claim(0, 1, 5));
    EXPECT_FALSE(g.has_color_claim(0, 1, 6));
}

TEST(Graph, RecoloringKeepsOneEdge) {
    // The paper's "recolor instead of multi-edge": a black edge gaining a
    // color claim stays a single edge with both claims.
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    EXPECT_TRUE(g.add_color_claim(0, 1, 3));
    EXPECT_FALSE(g.add_color_claim(1, 0, 3));  // already claimed: no-op
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_TRUE(g.claims(0, 1).black);
    EXPECT_TRUE(g.claims(0, 1).has_color(3));
    EXPECT_TRUE(g.is_colored_edge(0, 1));
}

TEST(Graph, DroppingColorRevertsToBlack) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.add_color_claim(0, 1, 3);
    EXPECT_TRUE(g.remove_color_claim(0, 1, 3));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(g.is_colored_edge(0, 1));
    EXPECT_TRUE(g.has_black_claim(0, 1));
}

TEST(Graph, EdgeDisappearsWhenLastClaimRemoved) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_color_claim(0, 1, 3);
    g.add_color_claim(0, 1, 9);
    EXPECT_TRUE(g.remove_color_claim(0, 1, 3));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.remove_color_claim(0, 1, 9));
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, RemoveMissingClaimReturnsFalse) {
    Graph g;
    g.add_node();
    g.add_node();
    EXPECT_FALSE(g.remove_color_claim(0, 1, 3));
    g.add_black_edge(0, 1);
    EXPECT_FALSE(g.remove_color_claim(0, 1, 3));
    EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Graph, RemoveBlackClaim) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.add_color_claim(0, 1, 2);
    EXPECT_TRUE(g.remove_black_claim(0, 1));
    EXPECT_TRUE(g.has_edge(0, 1));  // color claim keeps it alive
    EXPECT_TRUE(g.remove_color_claim(0, 1, 2));
    EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, RemoveNodeDropsIncidentEdges) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(0, 2);
    g.add_color_claim(0, 3, 7);
    g.add_black_edge(1, 2);
    g.remove_node(0);
    EXPECT_FALSE(g.has_node(0));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_TRUE(g.has_edge(1, 2));
    EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, NeighborsSortedAndMirrored) {
    Graph g;
    for (int i = 0; i < 5; ++i) g.add_node();
    g.add_black_edge(2, 4);
    g.add_black_edge(2, 0);
    g.add_black_edge(2, 3);
    auto view = g.neighbors(2);
    EXPECT_EQ(std::vector<NodeId>(view.begin(), view.end()),
              (std::vector<NodeId>{0, 3, 4}));
    for (NodeId u : g.neighbors(2)) {
        EXPECT_TRUE(g.claims(u, 2).black);
    }
}

TEST(Graph, ForEachEdgeVisitsOncePerEdge) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(1, 2);
    g.add_black_edge(2, 3);
    std::size_t visits = 0;
    g.for_each_edge([&](NodeId u, NodeId v, const EdgeClaims& c) {
        EXPECT_LT(u, v);
        EXPECT_TRUE(c.black);
        ++visits;
    });
    EXPECT_EQ(visits, 3u);
}

TEST(Graph, VolumeAndDegreeExtremes) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(0, 2);
    g.add_black_edge(0, 3);
    EXPECT_EQ(g.max_degree(), 3u);
    EXPECT_EQ(g.min_degree(), 1u);
    std::vector<NodeId> s{0, 1};
    EXPECT_EQ(g.volume(s), 4u);
}

TEST(Graph, CopySemanticsIndependent) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    Graph copy = g;
    copy.remove_node(0);
    EXPECT_TRUE(g.has_node(0));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(copy.has_node(0));
}

TEST(Graph, ClaimsRequireExistingNodes) {
    Graph g;
    g.add_node();
    EXPECT_THROW(g.add_black_edge(0, 99), ContractViolation);
    EXPECT_THROW(g.degree(99), ContractViolation);
}

TEST(Graph, InvalidColorRejected) {
    Graph g;
    g.add_node();
    g.add_node();
    EXPECT_THROW(g.add_color_claim(0, 1, invalid_color), ContractViolation);
}

}  // namespace
