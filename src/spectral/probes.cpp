#include "spectral/probes.hpp"

#include <algorithm>
#include <limits>

#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"

namespace xheal::spectral {

using graph::Graph;
using graph::NodeId;

namespace {

/// Flood-fill component count over a built snapshot, reusing the caller's
/// visited/work buffers.
std::size_t count_components(const CsrGraph& csr, std::vector<std::uint32_t>& visited,
                             std::vector<std::uint32_t>& queue) {
    std::size_t n = csr.size();
    visited.assign(n, 0);
    std::size_t comps = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (visited[i] != 0) continue;
        ++comps;
        visited[i] = 1;
        queue.clear();
        queue.push_back(i);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (std::uint32_t v : csr.row(queue[head])) {
                if (visited[v] == 0) {
                    visited[v] = 1;
                    queue.push_back(v);
                }
            }
        }
    }
    return comps;
}

}  // namespace

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
    if (snap_.csr().size() <= dense_limit_) return lambda2_dense_csr(snap_.csr());
    return lambda2_sparse_csr(snap_.csr(), seed, probe_lanczos_steps, probe_lambda2_tol,
                              /*warm=*/true);
}

double ProbeEngine::lambda2_dense(const Graph& g) {
    if (g.node_count() < 2) return 0.0;
    sync(g);
    return lambda2_dense_csr(snap_.csr());
}

double ProbeEngine::lambda2_dense_csr(const CsrGraph& csr) {
    std::size_t n = csr.size();
    if (n < 2) return 0.0;
    // Materialize I - D^{-1/2} A D^{-1/2} straight from the snapshot into
    // the reused scratch matrix (isolated vertices contribute zero rows,
    // matching laplacian_dense's convention). The product isd_i * isd_j is
    // commutative, so the matrix is exactly symmetric by construction.
    dense_scratch_.reset(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        double isd_i = csr.inv_sqrt_deg(i);
        if (isd_i == 0.0) continue;  // isolated vertex: zero row
        dense_scratch_.at(i, i) = 1.0;
        for (std::uint32_t j : csr.row(i))
            dense_scratch_.at(i, j) = -isd_i * csr.inv_sqrt_deg(j);
    }
    jacobi_eigenvalues_inplace(dense_scratch_, dense_values_);
    return std::max(0.0, dense_values_[1]);
}

double ProbeEngine::lambda2_sparse_csr(const CsrGraph& csr, std::uint64_t seed,
                                       std::size_t max_iterations, double tolerance,
                                       bool warm) {
    if (csr.size() < 2) return 0.0;
    if (count_components(csr, gate_visited_, gate_queue_) > 1) return 0.0;

    csr.normalized_kernel(kernel_);
    util::Rng rng(seed);
    LinearOperator apply = [this, &csr](const std::vector<double>& x,
                                        std::vector<double>& y) {
        csr.apply_normalized_laplacian(x, y, scaled_);
    };
    const std::vector<double>* warm_start = warm ? build_warm_start(csr) : nullptr;
    auto result = lanczos_smallest(apply, csr.size(), kernel_, rng, max_iterations,
                                   tolerance, warm_start);
    if (warm) {
        warm_ids_.assign(csr.nodes().begin(), csr.nodes().end());
        warm_vec_ = std::move(result.vector);
        has_warm_ = true;
    }
    return std::max(0.0, result.value);
}

double ProbeEngine::lambda2_sparse(const Graph& g, std::uint64_t seed,
                                   std::size_t max_iterations, double tolerance) {
    if (g.node_count() < 2) return 0.0;
    sync(g);
    return lambda2_sparse_csr(snap_.csr(), seed, max_iterations, tolerance,
                              /*warm=*/false);
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
    return count_components(snap_.csr(), dist_, queue_);
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
    // The reference only follows the incremental protocol when the caller
    // feeds note_reference(); otherwise fall back to rebuild-per-call.
    if (!incremental_) ref_snap_.invalidate();
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
