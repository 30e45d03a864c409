#include "spectral/probes.hpp"

#include <algorithm>
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
    if (csr.size() <= dense_spectral_limit) return dense_lambda2(csr, spectral_);
    auto result = lanczos_lambda2(csr, spectral_, seed, probe_lanczos_steps,
                                  probe_lambda2_tol, build_warm_start(csr));
    if (!result.vector.empty()) {  // gated solves leave the warm state alone
        warm_ids_.assign(csr.nodes().begin(), csr.nodes().end());
        warm_vec_ = std::move(result.vector);
        has_warm_ = true;
    }
    return result.value;
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
    return snap_.csr().component_count(dist_, queue_);
}

// ----- stretch -----

void ProbeEngine::bfs(const CsrGraph& csr, std::uint32_t src,
                      std::vector<std::uint32_t>& dist) {
    dist.assign(csr.size(), CsrGraph::npos);
    queue_.clear();
    queue_.push_back(src);
    dist[src] = 0;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        std::uint32_t u = queue_[head];
        std::uint32_t du = dist[u];
        for (std::uint32_t v : csr.row(u)) {
            if (dist[v] == CsrGraph::npos) {
                dist[v] = du + 1;
                queue_.push_back(v);
            }
        }
    }
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

    double worst = 0.0;
    for (NodeId s : sources_) {
        std::uint32_t gi = csr.index_of(s);
        std::uint32_t ri = ref_csr.index_of(s);
        if (ri == CsrGraph::npos) continue;  // source unknown to the reference
        bfs(csr, gi, dist_);
        bfs(ref_csr, ri, ref_dist_);
        const auto& ref_nodes = ref_csr.nodes();
        for (std::size_t j = 0; j < ref_nodes.size(); ++j) {
            std::uint32_t rd = ref_dist_[j];
            if (rd == CsrGraph::npos || rd == 0) continue;  // unreachable or s itself
            std::uint32_t ti = csr.index_of(ref_nodes[j]);
            if (ti == CsrGraph::npos) continue;  // deleted nodes don't count
            std::uint32_t gd = dist_[ti];
            if (gd == CsrGraph::npos) return std::numeric_limits<double>::infinity();
            worst = std::max(worst,
                             static_cast<double>(gd) / static_cast<double>(rd));
        }
    }
    return std::max(worst, 1.0);
}

}  // namespace xheal::spectral
