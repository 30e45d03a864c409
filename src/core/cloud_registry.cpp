#include "core/cloud_registry.hpp"

#include <algorithm>

#include "util/expects.hpp"
#include "util/sorted_vec.hpp"

namespace xheal::core {

using graph::ColorId;
using graph::Graph;
using graph::NodeId;

CloudRegistry::CloudRegistry(std::size_t d, bool rebuild_on_half_loss)
    : d_(d), rebuild_on_half_loss_(rebuild_on_half_loss) {
    XHEAL_EXPECTS(d >= 1);
}

ColorId CloudRegistry::create_cloud(Graph& g, CloudKind kind,
                                    const std::vector<NodeId>& members, util::Rng& rng,
                                    std::size_t* claims_added) {
    XHEAL_EXPECTS(members.size() >= 2);
    for (NodeId v : members) XHEAL_EXPECTS(g.has_node(v));
    if (kind == CloudKind::secondary) {
        for (NodeId v : members) XHEAL_EXPECTS(is_free(v));
    }

    ColorId color = next_color_++;
    Cloud* cloud;
    if (!free_slots_.empty()) {
        // Arena path: revive a destroyed cloud in place. reset() clears the
        // bookkeeping and topology.reset consumes exactly the rng draws a
        // fresh construction would, so pooled and fresh clouds behave
        // identically.
        std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        cloud = pool_[slot].get();
        cloud->reset(color, kind);
        cloud->topology.reset(members, d_, rng);
        index_.push_back({color, slot});  // colors are monotone: stays sorted
    } else {
        std::uint32_t slot = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(std::make_unique<Cloud>(
            color, kind, expander::CloudTopology(members, d_, rng)));
        cloud = pool_[slot].get();
        index_.push_back({color, slot});
    }
    if (kind == CloudKind::secondary) {
        for (NodeId v : cloud->topology.members()) set_secondary(v, color);
    }
    // A fresh color holds no claims yet: claim the whole projection.
    cloud->topology.collect_edges(desired_);
    for (const auto& [a, b] : desired_) g.add_color_claim(a, b, color);
    if (claims_added != nullptr) *claims_added += desired_.size();
    fix_leadership(*cloud, rng);
    return color;
}

std::size_t CloudRegistry::index_lower_bound(ColorId color) const {
    auto it = std::lower_bound(
        index_.begin(), index_.end(), color,
        [](const std::pair<ColorId, std::uint32_t>& e, ColorId c) { return e.first < c; });
    return static_cast<std::size_t>(it - index_.begin());
}

void CloudRegistry::release_cloud(ColorId color) {
    std::size_t at = index_lower_bound(color);
    XHEAL_ASSERT(at < index_.size() && index_[at].first == color);
    free_slots_.push_back(index_[at].second);
    index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(at));
}

void CloudRegistry::destroy_cloud(Graph& g, ColorId color, std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    // Pairs with a member the adversary already deleted find no claim in g.
    cloud->topology.collect_edges(desired_);
    for (const auto& [u, v] : desired_) {
        if (g.remove_color_claim(u, v, color) && claims_removed != nullptr) ++*claims_removed;
    }
    if (cloud->kind == CloudKind::secondary) {
        for (NodeId v : cloud->topology.members()) secondary_of_[v] = graph::invalid_color;
    }
    release_cloud(color);
}

NodeId CloudRegistry::remove_member(Graph& g, ColorId color, NodeId v, util::Rng& rng,
                                    std::size_t* claims_added, std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    XHEAL_EXPECTS(cloud->has_member(v));

    // Release the claims that touch v. If the adversary already deleted v,
    // its edges took the claims with them. Otherwise they are listed from
    // v's row (ascending) into scratch first, since releasing a claim can
    // erase its edge from that row.
    if (g.has_node(v)) {
        claimed_.clear();
        for (const auto& [u, claims] : g.row(v)) {
            if (claims.has_color(color))
                claimed_.push_back({std::min(u, v), std::max(u, v)});
        }
        for (const auto& [a, b] : claimed_) g.remove_color_claim(a, b, color);
        if (claims_removed != nullptr) *claims_removed += claimed_.size();
    }
    bool secondary = cloud->kind == CloudKind::secondary;
    if (secondary) secondary_of_[v] = graph::invalid_color;
    cloud->erase_bridge_assoc(v);

    if (cloud->size() <= 2) {
        // Dissolve: fewer than 2 members remain after v leaves.
        NodeId survivor = graph::invalid_node;
        for (NodeId m : cloud->topology.members()) {
            if (m != v) survivor = m;
        }
        if (secondary && survivor != graph::invalid_node)
            secondary_of_[survivor] = graph::invalid_color;
        release_cloud(color);
        return survivor;
    }

    delta_.clear();
    cloud->topology.remove(v, rng, &delta_);
    bool resync = delta_.full_resync;
    if (rebuild_on_half_loss_ && cloud->topology.needs_rebuild()) {
        cloud->topology.rebuild(rng);
        ++cloud->rebuild_count;
        resync = true;
    }
    if (resync) {
        sync_claims(g, *cloud, claims_added, claims_removed);
    } else {
        apply_splice(g, *cloud, claims_added, claims_removed);
    }
    if (cloud->leader == v || cloud->vice_leader == v) fix_leadership(*cloud, rng);
    return graph::invalid_node;
}

void CloudRegistry::insert_member(Graph& g, ColorId color, NodeId v, util::Rng& rng,
                                  std::size_t* claims_added, std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    XHEAL_EXPECTS(g.has_node(v));
    XHEAL_EXPECTS(!cloud->has_member(v));
    delta_.clear();
    cloud->topology.insert(v, rng, &delta_);
    if (cloud->kind == CloudKind::secondary) set_secondary(v, color);
    if (delta_.full_resync) {
        sync_claims(g, *cloud, claims_added, claims_removed);
    } else {
        apply_splice(g, *cloud, claims_added, claims_removed);
    }
}

Cloud* CloudRegistry::find(ColorId color) {
    std::size_t at = index_lower_bound(color);
    return at < index_.size() && index_[at].first == color ? pool_[index_[at].second].get()
                                                           : nullptr;
}

const Cloud* CloudRegistry::find(ColorId color) const {
    std::size_t at = index_lower_bound(color);
    return at < index_.size() && index_[at].first == color ? pool_[index_[at].second].get()
                                                           : nullptr;
}

void CloudRegistry::primary_clouds_of(const Graph& g, NodeId v,
                                      std::vector<ColorId>& out) const {
    out.clear();
    if (!g.has_node(v)) return;
    // A clique claims every member pair and an H-graph (> kappa+1 members)
    // gives each member a cycle neighbor, so v's row names every cloud it
    // belongs to. All of them but the (at most one) secondary are primary.
    for (const graph::NeighborEntry& e : g.row(v))
        out.insert(out.end(), e.second.colors.begin(), e.second.colors.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    if (std::optional<ColorId> sec = secondary_cloud_of(v)) util::sorted_erase(out, *sec);
}

std::vector<ColorId> CloudRegistry::primary_clouds_of(const Graph& g, NodeId v) const {
    std::vector<ColorId> out;
    primary_clouds_of(g, v, out);
    return out;
}

std::optional<ColorId> CloudRegistry::secondary_cloud_of(NodeId v) const {
    if (v >= secondary_of_.size() || secondary_of_[v] == graph::invalid_color)
        return std::nullopt;
    return secondary_of_[v];
}

void CloudRegistry::free_members_of(ColorId color, std::vector<NodeId>& out) const {
    const Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    out.clear();
    for (NodeId v : cloud->topology.members()) {
        if (is_free(v)) out.push_back(v);
    }  // members() is sorted, so out is ascending
}

std::vector<NodeId> CloudRegistry::free_members_of(ColorId color) const {
    std::vector<NodeId> out;
    free_members_of(color, out);
    return out;
}

std::vector<ColorId> CloudRegistry::colors() const {
    std::vector<ColorId> out;
    out.reserve(index_.size());
    for (const auto& [c, _] : index_) out.push_back(c);  // index_ is sorted
    return out;
}

void CloudRegistry::sync_claims(Graph& g, Cloud& cloud, std::size_t* added,
                                std::size_t* removed) {
    cloud.topology.collect_edges(desired_);  // sorted ascending, into scratch
    // The color's claims as g holds them: members and their rows ascend, so
    // the pairs (u, w > u) come out sorted.
    claimed_.clear();
    for (NodeId u : cloud.topology.members()) {
        for (const auto& [w, claims] : g.row(u)) {
            if (w > u && claims.has_color(cloud.color)) claimed_.push_back({u, w});
        }
    }

    for (const auto& pair : claimed_) {
        if (!std::binary_search(desired_.begin(), desired_.end(), pair)) {
            g.remove_color_claim(pair.first, pair.second, cloud.color);
            if (removed != nullptr) ++*removed;
        }
    }
    for (const auto& pair : desired_) {
        if (!std::binary_search(claimed_.begin(), claimed_.end(), pair)) {
            g.add_color_claim(pair.first, pair.second, cloud.color);
            if (added != nullptr) ++*added;
        }
    }
}

void CloudRegistry::apply_splice(Graph& g, Cloud& cloud, std::size_t* added,
                                 std::size_t* removed) {
    // A removed candidate only loses its claim if no other cycle still
    // realizes the pair; candidates touching the departed member find no
    // claim left in g. Only the claims g reports as changed are counted.
    for (const auto& [a, b] : delta_.splice.removed) {
        if (cloud.topology.has_edge(a, b)) continue;
        if (g.remove_color_claim(a, b, cloud.color) && removed != nullptr) ++*removed;
    }
    for (const auto& [a, b] : delta_.splice.added) {
        if (g.add_color_claim(a, b, cloud.color) && added != nullptr) ++*added;
    }
}

void CloudRegistry::fix_leadership(Cloud& cloud, util::Rng& rng) {
    const std::vector<NodeId>& members = cloud.topology.members();
    XHEAL_ASSERT(!members.empty());
    bool leader_alive = cloud.leader != graph::invalid_node &&
                        cloud.has_member(cloud.leader);
    if (!leader_alive) {
        // If the vice-leader survived it takes over (paper invariant d);
        // otherwise elect a fresh random leader.
        if (cloud.vice_leader != graph::invalid_node && cloud.has_member(cloud.vice_leader)) {
            cloud.leader = cloud.vice_leader;
            cloud.vice_leader = graph::invalid_node;
        } else {
            cloud.leader = members[rng.index(members.size())];
        }
    }
    bool vice_ok = cloud.vice_leader != graph::invalid_node &&
                   cloud.has_member(cloud.vice_leader) && cloud.vice_leader != cloud.leader;
    if (!vice_ok) {
        cloud.vice_leader = graph::invalid_node;
        if (members.size() >= 2) {
            do {
                cloud.vice_leader = members[rng.index(members.size())];
            } while (cloud.vice_leader == cloud.leader);
        }
    }
}

void CloudRegistry::set_secondary(NodeId v, ColorId color) {
    if (secondary_of_.size() <= v) secondary_of_.resize(v + 1, graph::invalid_color);
    XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
    secondary_of_[v] = color;
}

void CloudRegistry::remap_ids(const std::vector<NodeId>& old_to_new,
                              std::size_t live_count) {
    // Live clouds carry renumbered-graph ids everywhere: topology, bridge
    // associations, leadership (the graph renumbers its own claims, and with
    // them every node's primary clouds). Pooled clouds are skipped —
    // create_cloud fully re-initializes them on revival.
    for (const auto& [color, slot] : index_) pool_[slot]->remap_ids(old_to_new);

    // Slide the secondary table down to the new ids. The map is ascending
    // (new <= old), so a forward pass never overwrites an entry that hasn't
    // moved yet. Dead ids must be free: they left their secondary on
    // deletion.
    std::size_t upper = std::min(secondary_of_.size(), old_to_new.size());
    for (NodeId v = 0; v < upper; ++v) {
        NodeId to = old_to_new[v];
        if (to == graph::invalid_node) {
            XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
        } else if (to != v) {
            secondary_of_[to] = secondary_of_[v];
            secondary_of_[v] = graph::invalid_color;
        }
    }
    // Past the live range only vacated entries remain.
    for (std::size_t v = std::min(live_count, upper); v < upper; ++v)
        XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
    if (secondary_of_.size() > live_count) secondary_of_.resize(live_count);
}

void CloudRegistry::verify(const Graph& g) const {
    std::vector<std::pair<NodeId, NodeId>> pairs;  // reused across the clouds
    for (const auto& [color, slot] : index_) {
        const Cloud* cloud = pool_[slot].get();
        XHEAL_ASSERT(cloud->color == color);
        XHEAL_ASSERT(cloud->size() >= 2);
        const std::vector<NodeId>& members = cloud->topology.members();
        for (NodeId v : members) {
            XHEAL_ASSERT(g.has_node(v));
            // The secondary table names this cloud for each of its members,
            // which also holds every node to at most one secondary.
            if (cloud->kind == CloudKind::secondary)
                XHEAL_ASSERT(secondary_cloud_of(v) == color);
        }
        // Every pair of the topology's projection is claimed in g (the
        // converse is the graph sweep below).
        cloud->topology.collect_edges(pairs);
        for (const auto& [u, v] : pairs) XHEAL_ASSERT(g.has_color_claim(u, v, color));
        // Leadership invariant.
        XHEAL_ASSERT(cloud->leader != graph::invalid_node);
        XHEAL_ASSERT(cloud->has_member(cloud->leader));
        if (cloud->size() >= 2) {
            XHEAL_ASSERT(cloud->vice_leader != graph::invalid_node);
            XHEAL_ASSERT(cloud->has_member(cloud->vice_leader));
            XHEAL_ASSERT(cloud->vice_leader != cloud->leader);
        }
        if (cloud->kind == CloudKind::secondary) {
            for (const auto& [v, assoc] : cloud->bridge_assoc) {
                XHEAL_ASSERT(cloud->has_member(v));
                if (assoc != graph::invalid_color) {
                    const Cloud* prim = find(assoc);
                    // The associated primary may have been dissolved since;
                    // if alive it must be primary and contain the bridge.
                    if (prim != nullptr) {
                        XHEAL_ASSERT(prim->kind == CloudKind::primary);
                        XHEAL_ASSERT(prim->has_member(v));
                    }
                }
            }
        }
    }
    // Every set secondary slot names a live secondary containing its node.
    for (NodeId v = 0; v < secondary_of_.size(); ++v) {
        if (secondary_of_[v] == graph::invalid_color) continue;
        const Cloud* cloud = find(secondary_of_[v]);
        XHEAL_ASSERT(cloud != nullptr);
        XHEAL_ASSERT(cloud->kind == CloudKind::secondary);
        XHEAL_ASSERT(cloud->has_member(v));
    }
    // Every color claim in the graph is a pair of a live cloud's topology.
    g.for_each_edge([&](NodeId u, NodeId v, const graph::EdgeClaims& claims) {
        for (ColorId c : claims.colors) {
            const Cloud* cloud = find(c);
            XHEAL_ASSERT(cloud != nullptr);
            XHEAL_ASSERT(cloud->topology.has_edge(u, v));
        }
    });
}

}  // namespace xheal::core
