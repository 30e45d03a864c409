#include "core/invariants.hpp"

#include "graph/algorithms.hpp"
#include "util/expects.hpp"

namespace xheal::core {

using graph::Graph;
using graph::NodeId;

void check_graph_consistency(const Graph& g) {
    std::size_t directed_edges = 0;
    for (NodeId u : g.nodes()) {
        for (const auto& [v, claims] : g.row(u)) {
            XHEAL_ASSERT(u != v);
            XHEAL_ASSERT(g.has_node(v));
            XHEAL_ASSERT(!claims.empty());
            // The other row's entry must carry identical claims.
            const auto& other = g.claims(v, u);
            XHEAL_ASSERT(other.black == claims.black);
            XHEAL_ASSERT(other.colors == claims.colors);
            ++directed_edges;
        }
    }
    XHEAL_ASSERT(directed_edges == 2 * g.edge_count());
}

void check_reference_edges_present(const Graph& g, const Graph& ref) {
    ref.for_each_edge([&](NodeId u, NodeId v, const graph::EdgeClaims&) {
        if (g.has_node(u) && g.has_node(v)) {
            XHEAL_ASSERT(g.has_edge(u, v));
            XHEAL_ASSERT(g.claims(u, v).black);
        }
    });
}

void check_connected(const Graph& g) { XHEAL_ASSERT(graph::is_connected(g)); }

void check_degree_bound(const Graph& g, const Graph& ref, std::size_t kappa) {
    for (NodeId v : g.nodes()) {
        XHEAL_ASSERT(ref.has_node(v));
        std::size_t ref_degree = ref.degree(v);
        std::size_t bound = kappa * ref_degree + 2 * kappa;
        XHEAL_ASSERT(g.degree(v) <= bound);
    }
}

void check_session(const HealingSession& session, std::size_t kappa) {
    check_graph_consistency(session.current());
    check_reference_edges_present(session.current(), session.reference());
    check_connected(session.current());
    check_degree_bound(session.current(), session.reference(), kappa);
    session.healer().check_consistency(session.current());
}

namespace {

/// Run one throwing check, converting a contract violation (or any other
/// exception the check surfaces) into a finding under `oracle`.
template <typename F>
void run_oracle(const char* oracle, std::vector<InvariantFinding>& out, F&& check) {
    try {
        check();
    } catch (const std::exception& e) {
        out.push_back({oracle, e.what()});
    }
}

}  // namespace

void InvariantSuite::check_structural(const HealingSession& session,
                                      std::vector<InvariantFinding>& out) const {
    const graph::Graph& g = session.current();
    run_oracle("graph-consistency", out, [&] { check_graph_consistency(g); });
    run_oracle("reference-edges", out,
               [&] { check_reference_edges_present(g, session.reference()); });
    run_oracle("connectivity", out, [&] { check_connected(g); });
    if (degree_bound_)
        run_oracle("degree-bound", out,
                   [&] { check_degree_bound(g, session.reference(), kappa_); });
    run_oracle("healer-consistency", out,
               [&] { session.healer().check_consistency(g); });
}

void InvariantSuite::check_spectral(const HealingSession& session,
                                    std::vector<InvariantFinding>& out) const {
    if (!spectral_enabled()) return;
    run_oracle("lambda2-floor", out, [&] {
        double lambda2 = lambda2_probe_(session.current());
        if (!(lambda2 >= lambda2_floor_))
            throw util::ContractViolation("lambda2 " + std::to_string(lambda2) +
                                          " below floor " +
                                          std::to_string(lambda2_floor_));
    });
}

}  // namespace xheal::core
