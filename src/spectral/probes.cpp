#include "spectral/probes.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace xheal::spectral {

using graph::Graph;
using graph::NodeId;

void IncrementalSnapshot::sync(const Graph& g) {
    if (force_rebuild_ || graph_ != &g) {
        csr_.build(g);
        graph_ = &g;
        force_rebuild_ = false;
        pending_.clear();
        ++rebuilds_;
        return;
    }
    if (pending_.empty()) return;  // snapshot already current
    std::sort(pending_.begin(), pending_.end());
    pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
    // Patching rewrites only the touched rows but still scans every clean
    // row once to renumber; past a quarter of the rows dirty, the fresh
    // build is no slower and simpler, so rebuild there (and when the delta
    // breaks the patcher's append-only id assumption).
    if (pending_.size() * 4 > csr_.size() || !csr_.patch(g, pending_)) {
        csr_.build(g);
        ++rebuilds_;
    } else {
        patched_events_ += pending_.size();
    }
    pending_.clear();
}

void ProbeEngine::sync(const Graph& g) {
    if (batch_graph_ == &g && snapshot_valid_) return;
    if (batch_graph_ != &g) snap_.invalidate();  // un-batched probe: rebuild
    snap_.sync(g);
    snapshot_valid_ = batch_graph_ == &g;
}

// ----- lambda2 -----

double ProbeEngine::lambda2(const Graph& g, std::uint64_t seed) {
    if (g.node_count() < 2) return 0.0;
    sync(g);
    const CsrGraph& csr = snap_.csr();
    std::size_t components = 1;
    if (csr.size() > dense_spectral_limit) {
        components = csr.component_count(spectral_.visited, spectral_.queue);
        if (components > 1) return 0.0;  // the gate: no solve, warm state kept
    }
    return commit_lambda2(solve_synced(seed), components);
}

ProbeEngine::Lambda2Solve ProbeEngine::solve_lambda2(const Graph& g, std::uint64_t seed) {
    if (g.node_count() < 2) return {};
    sync(g);
    return solve_synced(seed);
}

ProbeEngine::Lambda2Solve ProbeEngine::solve_synced(std::uint64_t seed) {
    const CsrGraph& csr = snap_.csr();
    Lambda2Solve solve;
    if (csr.size() <= dense_spectral_limit) {
        solve.value = dense_lambda2(csr, spectral_);
        return solve;
    }
    auto result = lanczos_lambda2(csr, spectral_, seed, probe_lanczos_steps,
                                  probe_lambda2_tol, build_warm_start(csr));
    solve.value = result.value;
    solve.lanczos = true;
    return solve;
}

double ProbeEngine::commit_lambda2(Lambda2Solve solve, std::size_t components) {
    if (!solve.lanczos) return solve.value;  // dense path: no gate
    if (components != 1) return 0.0;
    const auto& ids = snap_.csr().nodes();
    warm_ids_.assign(ids.begin(), ids.end());
    // The solve's buffer becomes the warm state and the old warm buffer the
    // next solve's output: neither is reallocated at steady size.
    warm_vec_.swap(spectral_.lanczos.ritz);
    has_warm_ = true;
    return solve.value;
}

const std::vector<double>* ProbeEngine::build_warm_start(const CsrGraph& csr) {
    if (!has_warm_) return nullptr;
    std::size_t n = csr.size();
    start_.assign(n, 0.0);
    // Both id lists are ascending; merge the stored vector onto the current
    // dense numbering, zero-filling rows born since the previous solve.
    const auto& ids = csr.nodes();
    std::size_t matched = 0, w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (w < warm_ids_.size() && warm_ids_[w] < ids[i]) ++w;
        if (w == warm_ids_.size()) break;
        if (warm_ids_[w] == ids[i]) {
            start_[i] = warm_vec_[w];
            ++matched;
        }
    }
    return matched * 2 >= n ? &start_ : nullptr;
}

// ----- components -----

std::size_t ProbeEngine::component_count(const Graph& g) {
    sync(g);
    return snap_.csr().component_count(visited_, queue_);
}

// ----- stretch -----

namespace {

/// Per-node set of sources, one bit each (stretch_chunk_sources of them).
using Mask = std::uint8_t;

/// Multi-source BFS (Then et al., "The More the Merrier", VLDB 2015): the
/// sources share one level-synchronous traversal, each node carrying one
/// bit per source, so a node reached by several sources at the same level
/// scans its row once for all of them. visit(node, fresh, level) fires once
/// per node and level at which source bits first reach it (level 0: the
/// sources themselves); returning false stops the traversal. A level whose
/// frontier holds at least 1/32 of the nodes runs without per-edge branches
/// and leaves the next frontier in ascending order, so its rows stream
/// through memory; small levels touch only the nodes they reach, so a
/// high-diameter graph is not scanned whole once per level. Measured on a
/// 4-core box: on probe_heavy (n = 1e5, 4 sources) the sparse push alone
/// takes 2.6x as long (its frontiers stay in arrival order and rows are
/// read at random); on a 2e4-node path topology the branch-free path alone
/// takes 4x as long.
template <typename Frontier, typename Visit>
bool multi_source_bfs(const CsrGraph& csr, const std::uint32_t* sources, std::size_t k,
                      Frontier& bfs, Visit&& visit) {
    const std::size_t n = csr.size();
    bfs.seen.assign(n, 0);
    bfs.last.assign(n, 0);
    bfs.next.assign(n, 0);
    // Raw pointers in locals: a byte-sized mask store may alias any object,
    // so arrays reached through a reference would be reloaded after each.
    Mask* seen = bfs.seen.data();
    Mask* last = bfs.last.data();
    Mask* next = bfs.next.data();
    const std::uint32_t* off = csr.offsets().data();
    const std::uint32_t* tg = csr.targets().data();
    bfs.nodes.clear();
    for (std::size_t i = 0; i < k; ++i) {
        std::uint32_t s = sources[i];
        auto bit = static_cast<Mask>(Mask{1} << i);
        seen[s] = bit;
        last[s] = bit;
        bfs.nodes.push_back(s);
        if (!visit(s, bit, 0u)) return false;
    }
    for (std::uint32_t level = 1; !bfs.nodes.empty(); ++level) {
        bfs.next_nodes.clear();
        const std::uint32_t* fb = bfs.nodes.data();
        const std::size_t fs = bfs.nodes.size();
        if (fs * 32 >= n) {
            // Large level: push without per-edge branches, then settle by one
            // ascending scan, which keeps the next frontier ascending.
            for (std::size_t f = 0; f < fs; ++f) {
                std::uint32_t v = fb[f];
                Mask reach = last[v];
                for (std::uint32_t e = off[v], end = off[v + 1]; e < end; ++e) {
                    std::uint32_t u = tg[e];
                    next[u] = static_cast<Mask>(next[u] | reach);
                }
            }
            for (std::uint32_t u = 0; u < n; ++u) {
                auto fresh = static_cast<Mask>(next[u] & ~seen[u]);
                next[u] = fresh;
                if (fresh != 0) bfs.next_nodes.push_back(u);
            }
        } else {
            for (std::size_t f = 0; f < fs; ++f) {
                std::uint32_t v = fb[f];
                Mask reach = last[v];
                for (std::uint32_t e = off[v], end = off[v + 1]; e < end; ++e) {
                    std::uint32_t u = tg[e];
                    auto fresh = static_cast<Mask>(reach & ~seen[u]);
                    if (fresh == 0) continue;
                    if (next[u] == 0) bfs.next_nodes.push_back(u);
                    next[u] = static_cast<Mask>(next[u] | fresh);
                }
            }
        }
        // Settle: this level's arrivals become the frontier.
        for (std::size_t f = 0; f < fs; ++f) last[fb[f]] = 0;
        for (std::uint32_t u : bfs.next_nodes) {
            Mask fresh = next[u];
            next[u] = 0;
            last[u] = fresh;
            seen[u] = static_cast<Mask>(seen[u] | fresh);
            if (!visit(u, fresh, level)) return false;
        }
        bfs.nodes.swap(bfs.next_nodes);
    }
    return true;
}

}  // namespace

bool ProbeEngine::stretch_chunk(const CsrGraph& csr, const CsrGraph& ref_csr,
                                std::size_t first, std::size_t k, double& worst) {
    // dist_G(source i, node t) at source_dist_[t * k + i].
    source_dist_.assign(csr.size() * k, CsrGraph::npos);
    std::uint32_t* dist = source_dist_.data();
    multi_source_bfs(csr, source_index_.data() + first, k, bfs_,
                     [dist, k](std::uint32_t t, Mask fresh, std::uint32_t level) {
                         for (; fresh != 0; fresh = static_cast<Mask>(fresh & (fresh - 1)))
                             dist[t * k + static_cast<std::size_t>(std::countr_zero(fresh))] =
                                 level;
                         return true;
                     });
    const std::uint32_t* ref_to_g = ref_to_g_.data();
    return multi_source_bfs(
        ref_csr, ref_source_index_.data() + first, k, bfs_,
        [dist, k, ref_to_g, &worst](std::uint32_t j, Mask fresh, std::uint32_t rd) {
            if (rd == 0) return true;  // s itself
            std::uint32_t ti = ref_to_g[j];
            if (ti == CsrGraph::npos) return true;  // deleted nodes don't count
            const std::uint32_t* to_t = dist + static_cast<std::size_t>(ti) * k;
            for (; fresh != 0; fresh = static_cast<Mask>(fresh & (fresh - 1))) {
                std::uint32_t gd = to_t[std::countr_zero(fresh)];
                if (gd == CsrGraph::npos) return false;
                worst = std::max(worst, static_cast<double>(gd) / static_cast<double>(rd));
            }
            return true;
        });
}

double ProbeEngine::sampled_stretch(const Graph& g, const Graph& ref,
                                    std::size_t budget, util::Rng& rng) {
    sync(g);
    // Inside a batch the reference follows note_reference(); outside one it
    // is rebuilt, like the main snapshot.
    if (batch_graph_ != &g) ref_snap_.invalidate();
    ref_snap_.sync(ref);
    const CsrGraph& csr = snap_.csr();
    const CsrGraph& ref_csr = ref_snap_.csr();
    std::size_t n = csr.size();
    if (n < 2) return 1.0;  // stretch degenerates to 1.0; draw nothing

    // Sample `budget` distinct sources by partial Fisher-Yates over the live
    // pool; budget >= n degenerates to the exact all-sources sweep.
    sources_.assign(csr.nodes().begin(), csr.nodes().end());
    std::size_t k = std::min(budget, n);
    if (k < n) {
        for (std::size_t i = 0; i < k; ++i) {
            std::size_t j = i + rng.index(n - i);
            std::swap(sources_[i], sources_[j]);
        }
        sources_.resize(k);
    }
    source_index_.clear();
    ref_source_index_.clear();
    for (NodeId s : sources_) {
        std::uint32_t ri = ref_csr.index_of(s);
        if (ri == CsrGraph::npos) continue;  // source unknown to the reference
        source_index_.push_back(csr.index_of(s));
        ref_source_index_.push_back(ri);
    }
    const auto& ref_nodes = ref_csr.nodes();
    ref_to_g_.resize(ref_nodes.size());
    for (std::size_t j = 0; j < ref_nodes.size(); ++j) ref_to_g_[j] = csr.index_of(ref_nodes[j]);

    // The stretch is a max over (source, target) pairs, so the chunks and
    // the traversal order within one leave it bitwise unchanged.
    double worst = 0.0;
    for (std::size_t first = 0; first < source_index_.size(); first += stretch_chunk_sources) {
        std::size_t chunk = std::min(stretch_chunk_sources, source_index_.size() - first);
        if (!stretch_chunk(csr, ref_csr, first, chunk, worst))
            return std::numeric_limits<double>::infinity();
    }
    return std::max(worst, 1.0);
}

}  // namespace xheal::spectral
