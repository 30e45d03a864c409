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
    for (NodeId v : cloud->topology.members()) register_membership(v, color, kind);
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
    for (NodeId v : cloud->topology.members()) unregister_membership(v, color);
    release_cloud(color);
}

NodeId CloudRegistry::remove_member(Graph& g, ColorId color, NodeId v, util::Rng& rng,
                                    bool deleted_from_graph, std::size_t* claims_added,
                                    std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    XHEAL_EXPECTS(cloud->has_member(v));

    // Release the claims that touch v. If the adversary already deleted v,
    // its edges took the claims with them. Otherwise they are listed from
    // v's row (ascending) into scratch first, since releasing a claim can
    // erase its edge from that row.
    if (!deleted_from_graph) {
        claimed_.clear();
        for (const auto& [u, claims] : g.row(v)) {
            if (claims.has_color(color))
                claimed_.push_back({std::min(u, v), std::max(u, v)});
        }
        for (const auto& [a, b] : claimed_) g.remove_color_claim(a, b, color);
        if (claims_removed != nullptr) *claims_removed += claimed_.size();
    }
    unregister_membership(v, color);
    if (deleted_from_graph) retire_membership_row(v);
    cloud->erase_bridge_assoc(v);

    if (cloud->size() <= 2) {
        // Dissolve: fewer than 2 members remain after v leaves.
        NodeId survivor = graph::invalid_node;
        for (NodeId m : cloud->topology.members()) {
            if (m != v) survivor = m;
        }
        if (survivor != graph::invalid_node) unregister_membership(survivor, color);
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
    register_membership(v, color, cloud->kind);
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

void CloudRegistry::primary_clouds_of(NodeId v, std::vector<ColorId>& out) const {
    out.clear();
    if (v >= memberships_.size()) return;
    // Every membership but the (at most one) secondary is a primary.
    for (ColorId c : memberships_[v]) {
        if (c != secondary_of_[v]) out.push_back(c);
    }  // memberships_[v] is sorted, so out is ascending
}

std::vector<ColorId> CloudRegistry::primary_clouds_of(NodeId v) const {
    std::vector<ColorId> out;
    primary_clouds_of(v, out);
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

bool CloudRegistry::in_any_cloud(NodeId v) const {
    return v < memberships_.size() && !memberships_[v].empty();
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

void CloudRegistry::register_membership(NodeId v, ColorId color, CloudKind kind) {
    // The two per-node tables grow together, so the secondary slots cost no
    // allocation beyond the membership table's own growth.
    if (memberships_.size() <= v) {
        memberships_.resize(v + 1);
        secondary_of_.resize(v + 1, graph::invalid_color);
    }
    std::vector<ColorId>& row = memberships_[v];
    if (row.capacity() == 0 && !membership_pool_.empty()) {
        row = std::move(membership_pool_.back());
        membership_pool_.pop_back();
        row.clear();
    }
    util::sorted_insert(row, color);
    if (kind == CloudKind::secondary) {
        XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
        secondary_of_[v] = color;
    }
}

void CloudRegistry::unregister_membership(NodeId v, ColorId color) {
    if (v >= memberships_.size()) return;
    util::sorted_erase(memberships_[v], color);
    if (secondary_of_[v] == color) secondary_of_[v] = graph::invalid_color;
}

void CloudRegistry::retire_membership_row(NodeId v) {
    if (v >= memberships_.size()) return;
    std::vector<ColorId>& row = memberships_[v];
    if (row.empty() && row.capacity() != 0 &&
        membership_pool_.size() < membership_pool_cap) {
        // One-time full reserve: the pool's own growth must not allocate
        // mid-run either (the steady-state soaks pin repair at zero).
        if (membership_pool_.capacity() == 0)
            membership_pool_.reserve(membership_pool_cap);
        membership_pool_.push_back(std::move(row));
    }
}

void CloudRegistry::remap_ids(const std::vector<NodeId>& old_to_new,
                              std::size_t live_count) {
    // Live clouds carry renumbered-graph ids everywhere: topology, bridge
    // associations, leadership (the graph renumbers its own claims). Pooled
    // clouds are skipped — create_cloud fully re-initializes them on revival.
    for (const auto& [color, slot] : index_) pool_[slot]->remap_ids(old_to_new);

    // Slide membership rows down to their new ids. The map is ascending
    // (new <= old), so a forward pass never overwrites a row that hasn't
    // moved yet. Dead ids must carry no memberships (their rows were emptied
    // when they left their last cloud); their storage is retired into the
    // pool just like retire_membership_row does, so the next epoch's fresh
    // ids register without allocating. secondary_of_ slides with the rows.
    std::size_t upper = std::min(memberships_.size(), old_to_new.size());
    for (NodeId v = 0; v < upper; ++v) {
        std::vector<ColorId>& row = memberships_[v];
        NodeId to = old_to_new[v];
        if (to == graph::invalid_node) {
            XHEAL_ASSERT(row.empty());
            XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
            if (row.capacity() != 0 && membership_pool_.size() < membership_pool_cap) {
                if (membership_pool_.capacity() == 0)
                    membership_pool_.reserve(membership_pool_cap);
                membership_pool_.push_back(std::move(row));
            }
            std::vector<ColorId>().swap(row);
            continue;
        }
        if (to != v) {
            row.swap(memberships_[to]);
            secondary_of_[to] = secondary_of_[v];
            secondary_of_[v] = graph::invalid_color;
        }
    }
    // Rows past the map (ids that never joined a cloud) don't exist, and the
    // tail beyond the live range holds only moved-from/empty rows.
    for (NodeId v = static_cast<NodeId>(std::min<std::size_t>(live_count, upper));
         v < upper; ++v) {
        XHEAL_ASSERT(memberships_[v].empty());
        XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
    }
    if (memberships_.size() > live_count) {
        memberships_.resize(live_count);
        secondary_of_.resize(live_count);
    }
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
            XHEAL_ASSERT(v < memberships_.size());
            XHEAL_ASSERT(std::binary_search(memberships_[v].begin(),
                                            memberships_[v].end(), color));
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
    // Membership map has no dangling colors, the "at most one secondary
    // cloud per node" invariant holds, and secondary_of_ names exactly that
    // secondary (invalid_color for a free node).
    XHEAL_ASSERT(secondary_of_.size() == memberships_.size());
    for (NodeId v = 0; v < memberships_.size(); ++v) {
        std::size_t secondary_count = 0;
        ColorId secondary = graph::invalid_color;
        for (ColorId c : memberships_[v]) {
            const Cloud* cloud = find(c);
            XHEAL_ASSERT(cloud != nullptr);
            XHEAL_ASSERT(cloud->has_member(v));
            if (cloud->kind == CloudKind::secondary) {
                ++secondary_count;
                secondary = c;
            }
        }
        XHEAL_ASSERT(secondary_count <= 1);
        XHEAL_ASSERT(secondary_of_[v] == secondary);
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
