#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "util/expects.hpp"

namespace {

using namespace xheal::sim;
using xheal::graph::NodeId;
using xheal::util::ContractViolation;

/// A deliver callable for networks whose nodes only absorb messages.
void sink(const Message&) {}

TEST(Network, MessagesDeliveredNextRound) {
    Network net;
    std::vector<int> received;
    net.add_node(1);
    net.post(0, 1, 42);
    EXPECT_TRUE(received.empty());  // not yet delivered
    EXPECT_EQ(net.step([&](const Message& m) { received.push_back(m.type); }), 1u);
    EXPECT_EQ(received, std::vector<int>{42});
    EXPECT_EQ(net.rounds_executed(), 1u);
    EXPECT_EQ(net.messages_sent(), 1u);
}

TEST(Network, StepOnIdleChargesNoRound) {
    Network net;
    net.add_node(1);
    EXPECT_EQ(net.step(sink), 0u);
    EXPECT_EQ(net.rounds_executed(), 0u);
}

TEST(Network, RepliesArriveOneRoundLater) {
    Network net;
    int pongs = 0;
    net.add_node(1);
    net.add_node(2);
    auto deliver = [&](const Message& m) {
        if (m.to == 1 && m.type == 1) net.post(m.to, m.from, 2);  // ping -> pong
        if (m.to == 2 && m.type == 2) ++pongs;
    };
    net.post(2, 1, 1);
    net.step(deliver);  // ping delivered, pong enqueued
    EXPECT_EQ(pongs, 0);
    net.step(deliver);
    EXPECT_EQ(pongs, 1);
    EXPECT_EQ(net.messages_sent(), 2u);
    EXPECT_EQ(net.rounds_executed(), 2u);
}

TEST(Network, MessagesToRemovedNodesDropSilently) {
    Network net;
    net.add_node(1);
    net.add_node(2);
    net.post(1, 2, 7);
    net.remove_node(2);
    EXPECT_EQ(net.step(sink), 0u);  // dropped on delivery
    EXPECT_EQ(net.messages_sent(), 1u);  // still counted as sent
}

TEST(Network, RunUntilQuiescent) {
    // A relay chain: node i forwards to i+1.
    Network net;
    for (NodeId i = 0; i < 5; ++i) net.add_node(i);
    net.post(99, 0, 5);
    std::size_t rounds = net.run([&](const Message& m) {
        if (m.to < 4) net.post(m.to, m.to + 1, m.type);
    });
    EXPECT_EQ(rounds, 5u);  // 0->1->2->3->4 then quiescent
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.messages_sent(), 5u);
}

TEST(Network, RunRespectsMaxRounds) {
    // Two nodes bouncing forever.
    Network net;
    net.add_node(1);
    net.add_node(2);
    net.post(1, 2, 0);
    std::size_t rounds =
        net.run([&](const Message& m) { net.post(m.to, m.from, m.type); }, 10);
    EXPECT_EQ(rounds, 10u);
    EXPECT_FALSE(net.idle());
}

TEST(Network, DuplicateNodeRejected) {
    Network net;
    net.add_node(1);
    EXPECT_THROW(net.add_node(1), ContractViolation);
    EXPECT_THROW(net.remove_node(5), ContractViolation);
}

TEST(Network, BroadcastWaveCountsRoundsOnce) {
    // One sender fans out to 10 receivers: 10 messages, 1 round.
    Network net;
    for (NodeId i = 0; i < 11; ++i) net.add_node(i);
    for (NodeId i = 1; i < 11; ++i) net.post(0, i, 1);
    net.step(sink);
    EXPECT_EQ(net.messages_sent(), 10u);
    EXPECT_EQ(net.rounds_executed(), 1u);
}

TEST(Network, MembershipCannotChangeMidStep) {
    Network net;
    net.add_node(1);
    net.post(0, 1, 1);
    EXPECT_THROW(net.step([&](const Message&) { net.add_node(2); }), ContractViolation);
    Network other;
    other.add_node(1);
    other.post(0, 1, 1);
    EXPECT_THROW(other.step([&](const Message& m) { other.remove_node(m.to); }),
                 ContractViolation);
}

TEST(Network, RemapSlidesLiveness) {
    // Compaction map of live {1, 4, 6} (2, 3, 5 retired): 1->0, 4->1, 6->2.
    Network net;
    for (NodeId v : {1u, 2u, 3u, 4u, 5u, 6u}) net.add_node(v);
    for (NodeId v : {2u, 3u, 5u}) net.remove_node(v);
    const NodeId x = xheal::graph::invalid_node;
    net.remap_nodes({x, 0, x, x, 1, x, 2});
    for (NodeId v : {0u, 1u, 2u}) EXPECT_TRUE(net.has_node(v)) << v;
    for (NodeId v : {3u, 4u, 5u, 6u}) EXPECT_FALSE(net.has_node(v)) << v;
    // A message to a remapped id is delivered; one to a retired id (6 held
    // a node before the slide, none after) is dropped and billed.
    std::vector<NodeId> got;
    net.post(0, 2, 1);
    net.post(0, 6, 1);
    EXPECT_EQ(net.step([&](const Message& m) { got.push_back(m.to); }), 1u);
    EXPECT_EQ(got, std::vector<NodeId>{2});
    EXPECT_EQ(net.messages_sent(), 2u);
    // The map must cover every live node, never raise an id, and stay
    // injective.
    EXPECT_THROW(net.remap_nodes({0, x, 2}), ContractViolation);
    EXPECT_THROW(net.remap_nodes({0, 0, 2}), ContractViolation);
}

TEST(Network, RemapRequiresQuiescentNetwork) {
    Network net;
    net.add_node(0);
    net.post(0, 0, 1);
    EXPECT_THROW(net.remap_nodes({0}), ContractViolation);
    net.run(sink);
    net.remap_nodes({0});
    EXPECT_TRUE(net.has_node(0));
}

// ---- round-numbering convention (pinned; see network.hpp header) ----

TEST(Network, RoundConventionDeliveryRoundIsOneBased) {
    // A pre-step post is a round-0 send: delivered in round 1, and
    // rounds_executed() inside deliver reports exactly that. A reply sent
    // from round r arrives in round r + 1.
    Network net;
    std::vector<std::uint64_t> delivery_rounds;
    net.add_node(1);
    net.post(0, 1, 1);
    net.run([&](const Message& m) {
        delivery_rounds.push_back(net.rounds_executed());
        if (m.type == 1) net.post(1, 1, 2);  // self-reply, next round
    });
    EXPECT_EQ(delivery_rounds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(net.rounds_executed(), 2u);
}

TEST(Network, RoundConventionLatencyDelaysDelivery) {
    // latency = 2: a round-0 send is delivered in round 1 + 2 = 3. The two
    // gap steps deliver nothing but are charged as rounds (the network is
    // not idle, time passes).
    Network net;
    std::uint64_t delivered_in = 0;
    auto deliver = [&](const Message&) { delivered_in = net.rounds_executed(); };
    net.add_node(1);
    net.set_fault_model({0.0, 2});
    net.post(0, 1, 7);
    EXPECT_EQ(net.step(deliver), 0u);  // gap round 1
    EXPECT_EQ(net.step(deliver), 0u);  // gap round 2
    EXPECT_FALSE(net.idle());
    EXPECT_EQ(net.step(deliver), 1u);  // delivery round 3
    EXPECT_EQ(delivered_in, 3u);
    EXPECT_EQ(net.rounds_executed(), 3u);
    EXPECT_TRUE(net.idle());
}

TEST(Network, InFlightMessagesKeepTheirStampedDelay) {
    // Lowering latency mid-run must not accelerate messages already in
    // flight; new sends use the new model.
    Network net;
    std::vector<int> order;
    net.add_node(1);
    net.set_fault_model({0.0, 3});
    net.post(0, 1, 100);            // due in round 4
    net.set_fault_model({0.0, 0});
    net.post(0, 1, 200);            // due in round 1
    net.run([&](const Message& m) { order.push_back(m.type); });
    EXPECT_EQ(order, (std::vector<int>{200, 100}));
    EXPECT_EQ(net.rounds_executed(), 4u);
}

// ---- fault injection ----

TEST(Network, DropStreamIsDeterministicPerSeed) {
    auto run_once = [](std::uint64_t seed) {
        Network net;
        std::vector<int> got;
        net.add_node(1);
        net.seed_drop_stream(seed);
        net.set_fault_model({0.5, 0});
        for (int i = 0; i < 64; ++i) net.post(0, 1, i);
        net.run([&](const Message& m) { got.push_back(m.type); });
        return std::pair{got, net.messages_dropped()};
    };
    auto [a, dropped_a] = run_once(42);
    auto [b, dropped_b] = run_once(42);
    EXPECT_EQ(a, b);  // same seed, same survivors in the same order
    EXPECT_EQ(dropped_a, dropped_b);
    // Sanity: at drop=0.5 over 64 coins, both outcomes occur.
    EXPECT_GT(dropped_a, 0u);
    EXPECT_LT(dropped_a, 64u);
    EXPECT_EQ(a.size() + dropped_a, 64u);
}

TEST(Network, DroppedMessagesStillBilledAsSent) {
    Network net;
    net.add_node(1);
    net.set_fault_model({1.0, 0});  // certain loss
    net.post(0, 1, 1);
    net.post(0, 1, 2);
    EXPECT_TRUE(net.idle());        // nothing actually in flight
    EXPECT_EQ(net.messages_sent(), 2u);
    EXPECT_EQ(net.messages_dropped(), 2u);
    EXPECT_EQ(net.run(sink), 0u);
}

}  // namespace
