#include "sim/network.hpp"

#include <algorithm>

namespace xheal::sim {

void Network::add_node(graph::NodeId id) {
    XHEAL_EXPECTS(!stepping_);
    XHEAL_EXPECTS(!has_node(id));
    if (alive_.size() <= id) alive_.resize(static_cast<std::size_t>(id) + 1, 0);
    alive_[id] = 1;
}

void Network::remove_node(graph::NodeId id) {
    XHEAL_EXPECTS(!stepping_);
    XHEAL_EXPECTS(has_node(id));
    alive_[id] = 0;
}

void Network::remap_nodes(const std::vector<graph::NodeId>& old_to_new) {
    XHEAL_EXPECTS(idle());
    XHEAL_EXPECTS(!stepping_);
    // Ascending slide: every target lies at or below its source, so a
    // target below the current id is already processed and holds a bit only
    // if an earlier id moved there too.
    for (graph::NodeId id = 0; id < alive_.size(); ++id) {
        if (alive_[id] == 0) continue;
        XHEAL_EXPECTS(id < old_to_new.size());
        const graph::NodeId to = old_to_new[id];
        XHEAL_EXPECTS(to <= id && (to == id || alive_[to] == 0));
        alive_[id] = 0;
        alive_[to] = 1;
    }
}

void Network::post(const Message& m) {
    ++messages_sent_;
    if (model_.drop > 0.0 && drop_rng_.chance(model_.drop)) {
        ++messages_dropped_;
        return;
    }
    if (slots_.size() <= model_.latency) {
        // Grow the ring with its head at index 0 so every pending bucket
        // keeps its distance from the next step.
        std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                    slots_.end());
        head_ = 0;
        slots_.resize(model_.latency + 1);
    }
    slots_[(head_ + model_.latency) % slots_.size()].push_back(m);
    ++in_flight_;
}

void Network::begin_round() {
    ++rounds_;
    current_.clear();
    current_.swap(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    in_flight_ -= current_.size();
}

}  // namespace xheal::sim
