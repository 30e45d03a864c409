#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/cloud_registry.hpp"
#include "util/expects.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::ColorId;
using xheal::graph::Graph;
using xheal::graph::NodeId;
using xheal::util::ContractViolation;
using xheal::util::Rng;
namespace wl = xheal::workload;

std::vector<NodeId> ids(std::size_t n) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<NodeId>(i));
    return out;
}

struct RegistryTest : ::testing::Test {
    Graph g;
    CloudRegistry reg{2};  // kappa = 4
    Rng rng{77};

    void add_nodes(std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) g.add_node();
    }
};

TEST_F(RegistryTest, CreateCloudClaimsEdges) {
    add_nodes(4);
    std::size_t added = 0;
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(4), rng, &added);
    EXPECT_NE(c, xheal::graph::invalid_color);
    // 4 <= kappa+1: clique, 6 edges claimed.
    EXPECT_EQ(added, 6u);
    EXPECT_EQ(g.edge_count(), 6u);
    EXPECT_TRUE(g.has_color_claim(0, 1, c));
    reg.verify(g);
}

TEST_F(RegistryTest, RecolorExistingBlackEdge) {
    add_nodes(3);
    g.add_black_edge(0, 1);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(3), rng);
    EXPECT_EQ(g.edge_count(), 3u);  // no duplicate created
    EXPECT_TRUE(g.claims(0, 1).black);
    EXPECT_TRUE(g.has_color_claim(0, 1, c));
    reg.verify(g);
}

TEST_F(RegistryTest, DestroyCloudRevertsSharedEdgesToBlack) {
    add_nodes(3);
    g.add_black_edge(0, 1);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(3), rng);
    std::size_t removed = 0;
    reg.destroy_cloud(g, c, &removed);
    EXPECT_EQ(removed, 3u);
    EXPECT_TRUE(g.has_edge(0, 1));  // black claim survives
    EXPECT_FALSE(g.has_edge(1, 2));
    EXPECT_FALSE(reg.exists(c));
    EXPECT_TRUE(reg.primary_clouds_of(g, 0).empty() && reg.is_free(0));
    reg.verify(g);
}

TEST_F(RegistryTest, MembershipQueries) {
    add_nodes(6);
    ColorId p1 = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId p2 = reg.create_cloud(g, CloudKind::primary, {2, 3, 4}, rng);
    EXPECT_EQ(reg.primary_clouds_of(g, 2), (std::vector<ColorId>{p1, p2}));
    EXPECT_EQ(reg.primary_clouds_of(g, 5), std::vector<ColorId>{});
    EXPECT_TRUE(reg.is_free(0));

    ColorId s = reg.create_cloud(g, CloudKind::secondary, {0, 3}, rng);
    EXPECT_EQ(reg.secondary_cloud_of(0), std::optional<ColorId>{s});
    EXPECT_FALSE(reg.is_free(0));
    EXPECT_TRUE(reg.is_free(2));
    EXPECT_EQ(reg.free_members_of(p1), (std::vector<NodeId>{1, 2}));
    reg.verify(g);
}

TEST_F(RegistryTest, SecondaryRequiresFreeMembers) {
    add_nodes(4);
    reg.create_cloud(g, CloudKind::secondary, {0, 1}, rng);
    EXPECT_THROW(reg.create_cloud(g, CloudKind::secondary, {1, 2}, rng),
                 ContractViolation);
}

TEST_F(RegistryTest, RemoveMemberKeepsCloudConsistent) {
    add_nodes(8);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(8), rng);
    // Node 3 leaves (healer-driven, still in graph).
    NodeId survivor = reg.remove_member(g, c, 3, rng);
    EXPECT_EQ(survivor, xheal::graph::invalid_node);
    EXPECT_FALSE(reg.find(c)->has_member(3));
    EXPECT_EQ(reg.find(c)->size(), 7u);
    // Node 3 has no leftover claims.
    EXPECT_EQ(g.degree(3), 0u);
    reg.verify(g);
}

TEST_F(RegistryTest, RemoveMemberAfterGraphDeletion) {
    add_nodes(6);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(6), rng);
    g.remove_node(2);
    NodeId survivor = reg.remove_member(g, c, 2, rng);
    EXPECT_EQ(survivor, xheal::graph::invalid_node);
    EXPECT_EQ(reg.find(c)->size(), 5u);
    reg.verify(g);
}

TEST_F(RegistryTest, DissolutionReturnsSurvivor) {
    add_nodes(2);
    ColorId c = reg.create_cloud(g, CloudKind::primary, {0, 1}, rng);
    NodeId survivor = reg.remove_member(g, c, 0, rng);
    EXPECT_EQ(survivor, 1u);
    EXPECT_FALSE(reg.exists(c));
    EXPECT_TRUE(reg.primary_clouds_of(g, 1).empty() && reg.is_free(1));
    EXPECT_FALSE(g.has_edge(0, 1));
    reg.verify(g);
}

TEST_F(RegistryTest, ThreeMemberCloudSurvivesOneLoss) {
    add_nodes(3);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(3), rng);
    NodeId survivor = reg.remove_member(g, c, 1, rng);
    EXPECT_EQ(survivor, xheal::graph::invalid_node);
    EXPECT_TRUE(reg.exists(c));
    EXPECT_TRUE(g.has_color_claim(0, 2, c));
    reg.verify(g);
}

TEST_F(RegistryTest, InsertMemberGrowsCloud) {
    add_nodes(5);
    ColorId c = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    reg.insert_member(g, c, 4, rng);
    EXPECT_TRUE(reg.find(c)->has_member(4));
    EXPECT_EQ(reg.primary_clouds_of(g, 4), std::vector<ColorId>{c});
    EXPECT_GE(g.degree(4), 1u);
    reg.verify(g);
}

TEST_F(RegistryTest, HalfLossTriggersRebuild) {
    add_nodes(20);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(20), rng);
    std::size_t before = reg.find(c)->rebuild_count;
    for (NodeId v = 0; v < 11; ++v) {
        reg.remove_member(g, c, v, rng);
    }
    EXPECT_GT(reg.find(c)->rebuild_count, before);
    reg.verify(g);
}

TEST_F(RegistryTest, LeadershipMaintainedAcrossRemovals) {
    add_nodes(10);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(10), rng);
    for (NodeId v = 0; v < 8; ++v) {
        reg.remove_member(g, c, v, rng);
        const Cloud* cloud = reg.find(c);
        ASSERT_NE(cloud, nullptr);
        EXPECT_TRUE(cloud->has_member(cloud->leader));
        if (cloud->size() >= 2) {
            EXPECT_TRUE(cloud->has_member(cloud->vice_leader));
            EXPECT_NE(cloud->leader, cloud->vice_leader);
        }
    }
    reg.verify(g);
}

TEST_F(RegistryTest, OverlappingCloudsShareEdgeClaims) {
    add_nodes(4);
    ColorId a = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId b = reg.create_cloud(g, CloudKind::primary, {1, 2, 3}, rng);
    // Edge (1,2) carries both claims and is one physical edge.
    EXPECT_TRUE(g.has_color_claim(1, 2, a));
    EXPECT_TRUE(g.has_color_claim(1, 2, b));
    reg.destroy_cloud(g, a);
    EXPECT_TRUE(g.has_edge(1, 2));  // still claimed by b
    EXPECT_FALSE(g.has_edge(0, 1));
    reg.verify(g);
}

TEST_F(RegistryTest, VerifyRejectsClaimDriftFromTheTopology) {
    // Claims live only in g, so verify() compares the topology's projection
    // with g's claims of the cloud's color in both directions.
    add_nodes(16);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(16), rng);
    const Cloud* cloud = reg.find(c);
    ASSERT_EQ(cloud->topology.mode(), xheal::expander::CloudTopology::Mode::hgraph);
    reg.verify(g);

    // A stray claim of c on a member pair the topology does not contain.
    NodeId u = 0;
    NodeId v = 1;
    while (cloud->topology.has_edge(u, v)) ++v;
    ASSERT_LT(v, 16u);
    ASSERT_TRUE(g.add_color_claim(u, v, c));
    EXPECT_THROW(reg.verify(g), ContractViolation);
    ASSERT_TRUE(g.remove_color_claim(u, v, c));
    reg.verify(g);

    // A topology pair whose claim was removed from g.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    cloud->topology.collect_edges(pairs);
    auto [a, b] = pairs.front();
    ASSERT_TRUE(g.remove_color_claim(a, b, c));
    EXPECT_THROW(reg.verify(g), ContractViolation);
    ASSERT_TRUE(g.add_color_claim(a, b, c));
    reg.verify(g);
}

TEST_F(RegistryTest, BridgeAssocPurgedOnRemoval) {
    add_nodes(6);
    ColorId p = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId s = reg.create_cloud(g, CloudKind::secondary, {0, 3, 4}, rng);
    reg.find(s)->set_bridge_assoc(0, p);
    reg.remove_member(g, s, 0, rng);
    EXPECT_FALSE(reg.find(s)->has_bridge_assoc(0));
    EXPECT_TRUE(reg.is_free(0));
    reg.verify(g);
}

TEST_F(RegistryTest, SecondaryTableTracksMembershipThroughLifecycle) {
    // secondary_cloud_of reads one per-node slot and primary_clouds_of reads
    // the node's graph row; after every mutation both must agree with a
    // brute-force scan of the live clouds' members.
    auto expect_table_matches = [&](const char* step) {
        SCOPED_TRACE(step);
        for (NodeId v = 0; v < g.next_id(); ++v) {
            std::optional<ColorId> brute;
            std::vector<ColorId> brute_primaries;  // colors() ascends
            for (ColorId c : reg.colors()) {
                const Cloud* cloud = reg.find(c);
                if (!cloud->has_member(v)) continue;
                if (cloud->kind == CloudKind::primary) {
                    brute_primaries.push_back(c);
                } else {
                    ASSERT_FALSE(brute.has_value()) << "node " << v << " in two secondaries";
                    brute = c;
                }
            }
            EXPECT_EQ(reg.secondary_cloud_of(v), brute) << "node " << v;
            EXPECT_EQ(reg.is_free(v), !brute.has_value()) << "node " << v;
            EXPECT_EQ(reg.primary_clouds_of(g, v), brute_primaries) << "node " << v;
        }
        reg.verify(g);
    };

    add_nodes(14);
    ColorId p1 = reg.create_cloud(g, CloudKind::primary, {0, 1, 2, 3, 4}, rng);
    ColorId p2 = reg.create_cloud(g, CloudKind::primary, {4, 5, 6, 7}, rng);
    ColorId s1 = reg.create_cloud(g, CloudKind::secondary, {1, 5, 8, 9}, rng);
    ColorId s2 = reg.create_cloud(g, CloudKind::secondary, {2, 6, 10}, rng);
    expect_table_matches("create");
    EXPECT_EQ(reg.primary_clouds_of(g, 5), std::vector<ColorId>{p2});

    reg.insert_member(g, s1, 11, rng);  // secondary insert sets the slot
    reg.insert_member(g, p1, 12, rng);  // primary insert leaves it free
    expect_table_matches("insert");
    EXPECT_EQ(reg.secondary_cloud_of(11), std::optional<ColorId>{s1});
    EXPECT_TRUE(reg.is_free(12));

    reg.remove_member(g, s1, 8, rng);
    expect_table_matches("remove, still in graph");
    EXPECT_TRUE(reg.is_free(8));

    g.remove_node(9);
    reg.remove_member(g, s1, 9, rng);
    expect_table_matches("remove, deleted from graph");

    // Dissolving a 2-member secondary clears both slots.
    g.remove_node(10);
    reg.remove_member(g, s2, 10, rng);
    reg.remove_member(g, s2, 6, rng);
    EXPECT_FALSE(reg.exists(s2));
    expect_table_matches("dissolve");
    EXPECT_TRUE(reg.is_free(2));

    ColorId s3 = reg.create_cloud(g, CloudKind::secondary, {3, 7, 13}, rng);
    reg.destroy_cloud(g, s1);
    expect_table_matches("destroy");
    EXPECT_TRUE(reg.is_free(1));
    EXPECT_TRUE(reg.is_free(11));

    // Close an id epoch: nodes 9 and 10 are gone, so every later id slides
    // down; the slots must move with their nodes.
    std::vector<NodeId> old_to_new;
    g.compact(old_to_new);
    reg.remap_ids(old_to_new, g.node_count());
    expect_table_matches("remap_ids");
    EXPECT_EQ(reg.secondary_cloud_of(old_to_new[13]), std::optional<ColorId>{s3});
    EXPECT_EQ(reg.secondary_cloud_of(old_to_new[7]), std::optional<ColorId>{s3});
    EXPECT_TRUE(reg.is_free(old_to_new[11]));

    // The table keeps working on the renumbered ids.
    reg.insert_member(g, s3, old_to_new[11], rng);
    reg.destroy_cloud(g, p1);
    expect_table_matches("after remap");
    EXPECT_EQ(reg.secondary_cloud_of(old_to_new[11]), std::optional<ColorId>{s3});
}

}  // namespace
