// Synchronous round-based message-passing network (the LOCAL model of the
// paper's Fig. 1), with an optional seeded fault model for lossy-network
// experiments: messages sent in round r are delivered at the start of round
// r + 1 + latency; a message is lost with probability `drop` (decided
// deterministically from a dedicated seeded stream, in send order). The
// network counts every message sent, every message dropped and every round
// executed — these counters are the measurements behind the Theorem 5
// benches.
//
// Every node runs the same protocol, so the network holds no per-node
// behaviour: a node is a liveness bit, and step()/run() hand each message
// delivered to a live node to the caller's `deliver` callable, which may
// post replies. Messages to dead nodes are dropped on delivery (still
// billed as sent).
//
// Round numbering convention (pinned by sim_test RoundConvention*):
//   - rounds_executed() is the number of COMPLETED rounds outside step()
//     and the round being executed inside it (1-based); the k-th call to
//     step() that delivers (or waits out a latency gap) executes round k.
//   - A message is "sent in round r" where r = rounds_executed() at the
//     post: the delivering round for replies posted by `deliver`, the last
//     completed round for posts made between steps (posts before the first
//     step are round-0 sends). It is delivered in round r + 1 + latency.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"

namespace xheal::sim {

/// Scenario-configurable fault injection. `drop` is the per-message loss
/// probability in [0, 1]; `latency` is the extra integer delay in rounds on
/// top of the model's baseline one round (delivery after r + 1 + latency).
struct FaultModel {
    double drop = 0.0;
    std::size_t latency = 0;
};

class Network {
public:
    /// Register a node. Ids must be unique among live nodes. Not callable
    /// from inside step() (nor are remove_node and remap_nodes).
    void add_node(graph::NodeId id);

    /// Remove a node; in-flight messages to it are dropped on delivery.
    void remove_node(graph::NodeId id);

    bool has_node(graph::NodeId id) const { return id < alive_.size() && alive_[id] != 0; }

    /// Id-compaction support: move every live node through the old->new
    /// map, which must send each of them to a valid id no larger than its
    /// old one, injectively (the compaction map does). Requires a quiescent
    /// network — stamped messages carry old ids. The drop stream, counters
    /// and fault model are untouched.
    void remap_nodes(const std::vector<graph::NodeId>& old_to_new);

    /// Configure fault injection for subsequent sends. In-flight messages
    /// keep the delivery round they were stamped with; the drop stream
    /// (seed_drop_stream) is NOT reset, so mid-run model changes stay
    /// deterministic.
    void set_fault_model(const FaultModel& model) { model_ = model; }
    const FaultModel& fault_model() const { return model_; }

    /// Seed the deterministic drop-decision stream. One coin is drawn per
    /// send while drop > 0, in send order.
    void seed_drop_stream(std::uint64_t seed) { drop_rng_ = util::Rng(seed); }

    /// Send a message, from the environment between steps or from a
    /// `deliver` callable: billed, then dropped or delivered 1 + latency
    /// rounds later.
    void post(const Message& m);
    void post(graph::NodeId from, graph::NodeId to, int type, std::uint64_t seq = 0) {
        post(Message{from, to, type, seq});
    }

    /// Deliver one synchronous round, calling deliver(const Message&) for
    /// each due message whose recipient is live, in send order. Returns the
    /// number of messages delivered (0 when already quiescent, in which case
    /// no round is charged; a latency gap — in-flight messages none of which
    /// are due yet — charges a round and delivers 0).
    template <class Deliver>
    std::size_t step(Deliver&& deliver);

    /// Step until quiescent or max_rounds elapsed; returns rounds executed.
    template <class Deliver>
    std::size_t run(Deliver&& deliver, std::size_t max_rounds = 1'000'000) {
        std::size_t executed = 0;
        for (; !idle() && executed < max_rounds; ++executed) step(deliver);
        return executed;
    }

    bool idle() const { return in_flight_ == 0; }

    // ---- counters ----
    std::uint64_t messages_sent() const { return messages_sent_; }
    std::uint64_t messages_dropped() const { return messages_dropped_; }
    std::uint64_t rounds_executed() const { return rounds_; }

private:
    /// Charge a round and move its due messages into current_.
    void begin_round();

    /// alive_[id] != 0 iff node id is live.
    std::vector<std::uint8_t> alive_;
    /// A ring of round buckets: slots_[(head_ + i) % slots_.size()] holds
    /// the messages due i rounds after the next step()'s round, so sends
    /// land at i = latency. Buckets keep their capacity across rounds.
    std::vector<std::vector<Message>> slots_;
    std::size_t head_ = 0;
    /// The bucket being delivered (swapped out of the ring by begin_round).
    std::vector<Message> current_;
    std::size_t in_flight_ = 0;
    FaultModel model_;
    util::Rng drop_rng_{0x6c6f737379ull};  // "lossy"
    std::uint64_t messages_sent_ = 0;
    std::uint64_t messages_dropped_ = 0;
    std::uint64_t rounds_ = 0;
    bool stepping_ = false;
};

template <class Deliver>
std::size_t Network::step(Deliver&& deliver) {
    if (in_flight_ == 0) return 0;
    begin_round();
    stepping_ = true;
    std::size_t delivered = 0;
    for (const Message& m : current_) {
        if (!has_node(m.to)) continue;  // deleted node: message dropped
        ++delivered;
        deliver(m);
    }
    stepping_ = false;
    return delivered;
}

}  // namespace xheal::sim
