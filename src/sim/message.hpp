// Message type for the synchronous LOCAL-model simulator. The LOCAL model
// (paper Section 2) does not bound message size, and the protocol's bill
// counts messages and rounds, never their content, so a message carries
// only its endpoints, a protocol tag and a reliable-delivery sequence
// number.
#pragma once

#include <cstdint>

#include "graph/types.hpp"

namespace xheal::sim {

struct Message {
    graph::NodeId from = graph::invalid_node;
    graph::NodeId to = graph::invalid_node;
    int type = 0;
    /// Reliable-delivery sequence number (lossy-network retry protocol). On
    /// a tag::ack it names the acknowledged message; on any other message a
    /// non-zero value asks the receiver for an ack carrying it, 0 for none.
    std::uint64_t seq = 0;
};

/// Message tags of the Xheal repair protocol.
namespace tag {
inline constexpr int deletion_notice = 1;   ///< neighbor informed of deletion
inline constexpr int splice = 2;            ///< H-graph cycle splice repair
inline constexpr int elect = 3;             ///< leader-election tournament
inline constexpr int inform_topology = 4;   ///< leader installs cloud edges
inline constexpr int leader_announce = 5;   ///< new leader broadcast
inline constexpr int free_query = 6;        ///< ask a cloud leader for a free node
inline constexpr int free_reply = 7;        ///< leader's reply
inline constexpr int flood = 8;             ///< BFS wave (combine operation)
inline constexpr int converge = 9;          ///< BFS convergecast of addresses
inline constexpr int ack = 10;              ///< delivery ack (seq = acknowledged seq)
}  // namespace tag

}  // namespace xheal::sim
