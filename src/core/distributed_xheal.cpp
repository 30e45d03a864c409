#include "core/distributed_xheal.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace xheal::core {

using graph::Graph;
using graph::NodeId;

namespace {
// Salt separating the network's drop-coin stream from the healer's repair
// randomness: faults must never perturb which repairs happen.
constexpr std::uint64_t kDropStreamSalt = 0x9e3779b97f4a7c15ull;
}  // namespace

DistributedXheal::DistributedXheal(XhealConfig config, DistFaultConfig faults)
    : inner_(config), base_faults_(faults), max_retries_(faults.retries) {
    XHEAL_EXPECTS(faults.drop >= 0.0 && faults.drop <= 1.0);
    net_.seed_drop_stream(config.seed ^ kDropStreamSalt);
    net_.set_fault_model({faults.drop, faults.latency});
}

void DistributedXheal::set_network_faults(const NetFaults& faults) {
    sim::FaultModel model;
    model.drop = faults.drop.value_or(base_faults_.drop);
    model.latency = faults.latency.value_or(base_faults_.latency);
    XHEAL_EXPECTS(model.drop >= 0.0 && model.drop <= 1.0);
    // The drop stream is intentionally NOT reseeded: phase boundaries must
    // not reset determinism mid-run.
    net_.set_fault_model(model);
}

void DistributedXheal::receive(const sim::Message& m) {
    if (m.type == sim::tag::ack) {
        acked_[m.seq] = 1;
        return;
    }
    if (m.seq != 0) net_.post(m.to, m.from, sim::tag::ack, m.seq);
    if (m.type == sim::tag::flood) visit(m);
}

void DistributedXheal::ensure_attached(const Graph& g) {
    if (attached_) return;
    for (NodeId v : g.nodes()) {
        if (!net_.has_node(v)) net_.add_node(v);
    }
    attached_ = true;
}

void DistributedXheal::on_insert(Graph& g, NodeId v) {
    ensure_attached(g);
    if (!net_.has_node(v)) net_.add_node(v);
    // Insertion requires no healing work (paper Section 5); neighbors'
    // NoN bookkeeping is part of the model's O(1) preprocessing.
    inner_.on_insert(g, v);
}

void DistributedXheal::deliver_reliably(const std::vector<sim::Message>& batch) {
    if (batch.empty()) return;
    const sim::FaultModel& model = net_.fault_model();
    if (model.drop == 0.0) {
        // Perfect-delivery fast path: no acks, so message/round counts are
        // byte-identical to the historical protocol (one delivery round per
        // 1 + latency hops, nothing else in flight).
        for (const sim::Message& m : batch) net_.post(m);
        drain(model.latency + 2);
        XHEAL_ASSERT(net_.idle());
        return;
    }
    const std::size_t rtt = 2 * (model.latency + 1) + 2;
    const std::uint64_t base = acked_.size();
    acked_.resize(base + batch.size(), 0);
    std::vector<std::size_t> pending(batch.size());
    for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
    for (std::size_t attempt = 0; attempt <= max_retries_ && !pending.empty();
         ++attempt) {
        if (attempt > 0) retries_accum_ += pending.size();
        for (std::size_t i : pending) {
            sim::Message m = batch[i];
            m.seq = base + i;
            net_.post(m);
        }
        // Timeout = the network draining (send-time drops mean every
        // surviving message resolves within one RTT).
        drain(rtt);
        XHEAL_ASSERT(net_.idle());
        std::erase_if(pending, [&](std::size_t i) { return acked_[base + i] != 0; });
    }
    // Bounded retry: leftovers are abandoned. Repair decisions are
    // leader-local, so an abandoned install costs fidelity only — the
    // repaired graph is unaffected and the budget keeps runs terminating.
}

RepairReport DistributedXheal::on_delete(Graph& g, NodeId v) {
    ensure_attached(g);
    XHEAL_EXPECTS(g.has_node(v));
    // Epoch boundary: a previous repair may never leak in-flight messages
    // into this repair's bill.
    XHEAL_ASSERT(net_.idle());
    // Snapshot: the repair below removes v, so the view must be copied.
    auto nbr_view = g.neighbors(v);
    std::vector<NodeId> nbrs(nbr_view.begin(), nbr_view.end());

    RepairReport report = inner_.on_delete(g, v);

    std::uint64_t messages_before = net_.messages_sent();
    std::uint64_t rounds_before = net_.rounds_executed();
    acked_.assign(1, 0);
    retries_accum_ = 0;

    // v stays on the network through the notice phase so that, under loss,
    // its neighbors' acks still have a live collector — reliable delivery
    // of the deletion notice itself.
    phase_deletion_notice(v, nbrs);
    if (net_.has_node(v)) net_.remove_node(v);

    for (const HealEvent& event : inner_.last_events()) {
        switch (event.kind) {
            case HealEvent::Kind::fix_cloud:
                phase_fix_cloud(event);
                break;
            case HealEvent::Kind::dissolve_cloud:
                phase_dissolve(event);
                break;
            case HealEvent::Kind::create_primary:
            case HealEvent::Kind::create_secondary:
                phase_create_cloud(event);
                break;
            case HealEvent::Kind::insert_member:
                phase_insert_member(event);
                break;
            case HealEvent::Kind::combine:
                phase_combine(event);
                break;
        }
    }
    XHEAL_ASSERT(net_.idle());

    last_messages_ = net_.messages_sent() - messages_before;
    last_rounds_ = static_cast<std::size_t>(net_.rounds_executed() - rounds_before);
    last_retries_ = retries_accum_;
    report.messages = last_messages_;
    report.rounds = last_rounds_;
    report.retries = last_retries_;
    return report;
}

void DistributedXheal::on_compact(Graph& g, const std::vector<NodeId>& old_to_new) {
    inner_.on_compact(g, old_to_new);
    // Between repairs the network is always drained (every phase ends in a
    // full run()), so the node table can slide wholesale. Dead nodes already
    // left the network when their deletion was repaired.
    if (attached_) net_.remap_nodes(old_to_new);
}

void DistributedXheal::check_consistency(const Graph& g) const {
    inner_.check_consistency(g);
    // Every alive graph node must be live on the network once attached.
    if (attached_) {
        for (NodeId v : g.nodes()) XHEAL_ASSERT(net_.has_node(v));
    }
}

void DistributedXheal::phase_deletion_notice(NodeId v, const std::vector<NodeId>& nbrs) {
    std::vector<sim::Message> batch;
    batch.reserve(nbrs.size());
    for (NodeId u : nbrs) batch.push_back({v, u, sim::tag::deletion_notice});
    deliver_reliably(batch);
}

void DistributedXheal::phase_fix_cloud(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr) return;  // destroyed by a later combine
    const std::vector<NodeId>& members = cloud->topology.members();
    if (members.empty()) return;

    // H-graph DELETE splice: the deleted node's <= kappa cycle neighbors
    // reconnect pairwise — O(kappa) messages, one round.
    std::size_t splices = std::min(kappa(), members.size());
    std::vector<sim::Message> batch;
    for (std::size_t i = 0; i < splices; ++i) {
        NodeId a = members[i % members.size()];
        NodeId b = members[(i + 1) % members.size()];
        if (a != b) batch.push_back({a, b, sim::tag::splice});
    }
    deliver_reliably(batch);

    if (event.leader_was_deleted) {
        // Vice-leader takes over and announces itself to the cloud.
        NodeId announcer = cloud->leader;
        batch.clear();
        for (NodeId m : members) {
            if (m != announcer) batch.push_back({announcer, m, sim::tag::leader_announce});
        }
        deliver_reliably(batch);
    }
    if (event.rebuilt) {
        // Half-loss rule: leader rebuilt the expander; install it.
        cloud->topology.collect_edges(edges_);
        install_topology(*cloud, edges_);
    }
}

void DistributedXheal::phase_dissolve(const HealEvent& event) {
    if (event.members.empty()) return;
    // The survivor is told the cloud is gone (by the departing leader's
    // final message).
    NodeId survivor = event.members.front();
    deliver_reliably({{survivor, survivor, sim::tag::leader_announce}});
}

graph::NodeId DistributedXheal::run_tournament(const std::vector<NodeId>& candidates) {
    XHEAL_EXPECTS(!candidates.empty());
    std::vector<NodeId> active = candidates;
    std::vector<sim::Message> batch;
    while (active.size() > 1) {
        std::vector<NodeId> winners;
        winners.reserve((active.size() + 1) / 2);
        batch.clear();
        for (std::size_t i = 0; i + 1 < active.size(); i += 2) {
            // Loser reports to winner; one message per match.
            batch.push_back({active[i + 1], active[i], sim::tag::elect});
            winners.push_back(active[i]);
        }
        if (active.size() % 2 == 1) winners.push_back(active.back());
        deliver_reliably(batch);
        active = std::move(winners);
    }
    return active.front();
}

void DistributedXheal::install_topology(const Cloud& cloud, const EdgeList& edges) {
    NodeId leader = cloud.leader;
    std::vector<sim::Message> batch;
    batch.reserve(2 * edges.size() + 1);
    for (const auto& [a, b] : edges) {
        batch.push_back({leader, a, sim::tag::inform_topology});
        batch.push_back({leader, b, sim::tag::inform_topology});
    }
    // Vice-leader designation rides along in the same round.
    if (cloud.vice_leader != graph::invalid_node) {
        batch.push_back({leader, cloud.vice_leader, sim::tag::leader_announce});
    }
    deliver_reliably(batch);
}

void DistributedXheal::phase_create_cloud(const HealEvent& event) {
    if (event.members.size() < 2) return;
    if (event.kind == HealEvent::Kind::create_secondary) {
        // Free-node discovery: each bridge was located by querying its
        // cloud leader — one query + one reply per bridge.
        std::vector<sim::Message> batch;
        batch.reserve(event.members.size());
        for (NodeId b : event.members) batch.push_back({b, b, sim::tag::free_query});
        deliver_reliably(batch);
        batch.clear();
        for (NodeId b : event.members) batch.push_back({b, b, sim::tag::free_reply});
        deliver_reliably(batch);
    }
    run_tournament(event.members);
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr) return;
    cloud->topology.collect_edges(edges_);
    install_topology(*cloud, edges_);
}

void DistributedXheal::phase_insert_member(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr || event.members.empty()) return;
    NodeId w = event.members.front();
    NodeId leader = cloud->leader == w && cloud->vice_leader != graph::invalid_node
                        ? cloud->vice_leader
                        : cloud->leader;
    // H-graph INSERT: query the leader for random cycle positions, receive
    // them, then splice in next to <= kappa cycle neighbors.
    deliver_reliably({{w, leader, sim::tag::free_query}});
    deliver_reliably({{leader, w, sim::tag::free_reply}});
    const std::vector<NodeId>& members = cloud->topology.members();
    std::size_t splices = std::min(kappa(), members.size());
    std::vector<sim::Message> batch;
    std::size_t sent = 0;
    for (NodeId m : members) {
        if (m == w) continue;
        batch.push_back({w, m, sim::tag::splice});
        if (++sent >= splices) break;
    }
    deliver_reliably(batch);
}

std::uint32_t DistributedXheal::Flood::position(NodeId v) const {
    auto it = std::lower_bound(members->begin(), members->end(), v);
    XHEAL_ASSERT(it != members->end() && *it == v);
    return static_cast<std::uint32_t>(it - members->begin());
}

void DistributedXheal::visit(const sim::Message& m) {
    const std::uint32_t self = flood_.position(m.to);
    if (flood_.visited[self] != 0) return;
    flood_.visited[self] = 1;
    const std::vector<NodeId>& members = *flood_.members;
    for (std::uint32_t k = flood_.offsets[self]; k < flood_.offsets[self + 1]; ++k) {
        NodeId nbr = members[flood_.targets[k]];
        if (nbr != m.from) net_.post(m.to, nbr, sim::tag::flood);
    }
    sim::Message converge{m.to, m.from, sim::tag::converge};  // address convergecast
    if (lossy()) {
        converge.seq = acked_.size();
        acked_.push_back(0);
        flood_.converges.push_back(converge);
    }
    net_.post(converge);
}

void DistributedXheal::phase_combine(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr || cloud->size() < 2) return;
    const std::vector<NodeId>& members = cloud->topology.members();

    // The combined cloud's claimed pairs as a CSR over member positions;
    // each row lists its neighbors in pair order.
    cloud->topology.collect_edges(edges_);
    flood_.members = &members;
    const std::size_t k = members.size();
    std::vector<std::uint32_t>& offsets = flood_.offsets;
    std::vector<std::uint32_t>& targets = flood_.targets;
    offsets.assign(k + 1, 0);
    for (const auto& [a, b] : edges_) {
        ++offsets[flood_.position(a) + 1];
        ++offsets[flood_.position(b) + 1];
    }
    for (std::size_t i = 0; i < k; ++i) offsets[i + 1] += offsets[i];
    targets.resize(offsets[k]);
    for (const auto& [a, b] : edges_) {
        const std::uint32_t pa = flood_.position(a), pb = flood_.position(b);
        targets[offsets[pa]++] = pb;
        targets[offsets[pb]++] = pa;
    }
    // The fill advanced each row start to the next row's start.
    for (std::size_t i = k; i > 0; --i) offsets[i] = offsets[i - 1];
    offsets[0] = 0;

    // BFS: a member's first flood receipt forwards the wave and
    // convergecasts its address toward the root (via its parent), see
    // visit(). Under loss the convergecast requests an ack so the driver can
    // re-send it; the flood itself is repaired by re-flooding from the
    // visited frontier (see the retry loop below).
    flood_.visited.assign(k, 0);
    flood_.converges.clear();
    const std::uint32_t root = flood_.position(cloud->leader);
    flood_.visited[root] = 1;

    const sim::FaultModel& model = net_.fault_model();
    const std::size_t budget = (model.latency + 1) * (4 * cloud->size() + 8);
    for (std::uint32_t e = offsets[root]; e < offsets[root + 1]; ++e)
        net_.post(members[root], members[targets[e]], sim::tag::flood);
    drain(budget);
    XHEAL_ASSERT(net_.idle());

    if (lossy()) {
        // Retry loop: dropped floods are repaired by the visited frontier
        // re-flooding toward still-unvisited members (deterministic order:
        // members x claimed-edge adjacency); dropped or unacked
        // convergecasts are re-sent with their original sequence numbers.
        for (std::size_t attempt = 0; attempt < max_retries_; ++attempt) {
            std::size_t resent = 0;
            for (std::uint32_t u = 0; u < k; ++u) {
                if (flood_.visited[u] == 0) continue;
                for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
                    if (flood_.visited[targets[e]] != 0) continue;
                    net_.post(members[u], members[targets[e]], sim::tag::flood);
                    ++resent;
                }
            }
            for (const sim::Message& c : flood_.converges) {
                if (acked_[c.seq] != 0) continue;
                net_.post(c);
                ++resent;
            }
            if (resent == 0) break;
            retries_accum_ += resent;
            drain(budget);
            XHEAL_ASSERT(net_.idle());
        }
    }
    flood_.members = nullptr;
    install_topology(*cloud, edges_);
}

}  // namespace xheal::core
