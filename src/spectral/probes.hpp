// ProbeEngine — the sparse, scratch-reusing metric probe layer that lets
// scenario runs sample spectral and stretch metrics at n = 1e5+.
//
// The engine owns incremental CSR snapshots (csr.hpp) plus flat BFS scratch
// and the spectral kernels' scratch. Inside a sample batch the snapshot is
// patched forward from the graph's structure journal (the ScenarioRunner
// hands begin_sample the delta accumulated since the previous sample, and
// only the touched rows are rewritten); a probe outside a batch rebuilds
// it. Buffers only grow, so steady-state probing allocates nothing once the
// population peak has been seen.
//
//   * lambda2()        — algebraic connectivity of the normalized Laplacian
//                        through the shared kernels of laplacian.hpp: the
//                        dense kernel at or below dense_spectral_limit
//                        nodes, the Lanczos kernel at the probe budget above
//                        it, warm-started from the previous solve's Ritz
//                        vector when at least half its support is still
//                        alive.
//   * component_count() — connected components via CSR BFS (flat arrays, no
//                        hashing), the probe behind `connected`.
//   * sampled_stretch() — the paper's network-stretch metric over a fixed
//                        budget of sampled BFS sources: max over pairs
//                        (s, t), s sampled, of dist_G(s,t) / dist_G'(s,t).
//                        A max over a subset of sources, so the sampled
//                        value never exceeds the exact stretch and reaches
//                        it once the budget covers every live node. Sources
//                        are drawn from the caller's rng (the runner's
//                        independent probe stream), so probe cadence never
//                        perturbs the adversary trace. Up to 8 sources
//                        share one multi-source BFS of G and one of G'.
//
// Threading: inside a begin_sample batch, once sync(g) has frozen the
// snapshot, solve_lambda2(g) — or the serial lambda2(g) — may run on one
// thread while component_count(g) and sampled_stretch() run on another. The
// solve only reads the frozen snapshot and writes scratch no other probe
// touches (the kernels' SpectralScratch and the warm-start vector it
// scatters). commit_lambda2, which writes the warm-start state, runs after
// the join. No other pair of calls may overlap.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "spectral/csr.hpp"
#include "spectral/laplacian.hpp"
#include "util/rng.hpp"

namespace xheal::spectral {

/// A CsrGraph that tracks its own staleness. Callers note() the journal of
/// node ids touched since the last sync; sync() then patches the snapshot
/// forward, falling back to a full rebuild when the snapshot was never
/// built, the journal overflowed, the churn exceeds a quarter of the rows,
/// or the delta violates the patcher's append-only id assumption. Either
/// way the synced arrays are byte-identical to a fresh build.
class IncrementalSnapshot {
public:
    /// Record that `dirty` (a graph journal: unsorted, may repeat, may name
    /// dead ids) happened since the last sync. An overflowed journal is an
    /// unknown delta and forces the next sync to rebuild.
    void note(const graph::Graph& g, const std::vector<graph::NodeId>& dirty,
              bool overflowed) {
        if (&g != graph_ || overflowed) {
            invalidate();
            graph_ = &g;
            return;
        }
        if (!force_rebuild_)
            pending_.insert(pending_.end(), dirty.begin(), dirty.end());
    }

    /// Forget the snapshot; the next sync rebuilds from scratch.
    void invalidate() {
        force_rebuild_ = true;
        pending_.clear();
    }

    /// Bring the snapshot up to date with g.
    void sync(const graph::Graph& g);

    const CsrGraph& csr() const { return csr_; }

    std::uint64_t rebuilds() const { return rebuilds_; }
    std::uint64_t patched_events() const { return patched_events_; }

private:
    CsrGraph csr_;
    const graph::Graph* graph_ = nullptr;
    std::vector<graph::NodeId> pending_;
    bool force_rebuild_ = true;
    std::uint64_t rebuilds_ = 0;
    std::uint64_t patched_events_ = 0;
};

class ProbeEngine {
public:
    /// Lanczos step budget of the lambda2() probe. lambda2 of an
    /// expander sits at the edge of the spectral bulk (no eigengap), so the
    /// iteration converges only polynomially there; 64 steps land within
    /// ~0.5% of the exhaustive answer at n = 1e5 for ~1/6 of the cost, which
    /// is probe-grade accuracy. The Ritz value approaches lambda2 from
    /// above, so probe readings are a slight over-estimate.
    static constexpr std::size_t probe_lanczos_steps = 64;

    /// Convergence tolerance of the lambda2() probe. At probe scale the
    /// bottom of the spectrum is a cluster (edge of the bulk), so the
    /// intrinsic bias of the step budget above is already ~1e-3; asking
    /// Lanczos for more digits than that burns the full budget every sample
    /// for accuracy the probe cannot deliver anyway. 2e-3 stops the cold
    /// solve once the Ritz value stalls at probe-grade accuracy and lets a
    /// warm-started solve exit after a handful of iterations. Threshold
    /// expectations (`expect lambda2 >= x`) sit orders of magnitude away.
    static constexpr double probe_lambda2_tol = 2e-3;

    /// lambda2 of the normalized Laplacian; 0 for < 2 nodes (and, above
    /// dense_spectral_limit, for disconnected graphs). Deterministic given
    /// the seed and the warm-start chain: the dense kernel at or below
    /// dense_spectral_limit nodes, the Lanczos kernel at the probe budget
    /// above it, warm-started from the previous solve when possible. The
    /// serial form of the pair below: count components, solve only when
    /// connected, commit.
    double lambda2(const graph::Graph& g, std::uint64_t seed = 12345);

    /// One lambda2 solve awaiting its connectivity verdict.
    struct Lambda2Solve {
        double value = 0.0;
        /// Lanczos path: the Ritz vector, by csr.nodes(), waits in the
        /// engine's Lanczos scratch. False on the dense path, whose value
        /// needs no connectivity gate.
        bool lanczos = false;
    };

    /// The solve half of lambda2(g), with no connectivity gate, so it can
    /// run beside the components probe that decides the gate anyway.
    /// Reads the warm-start state but never writes it.
    Lambda2Solve solve_lambda2(const graph::Graph& g, std::uint64_t seed = 12345);

    /// The commit half: `components` is the component count of the same
    /// frozen snapshot. A Lanczos solve on a connected snapshot keeps its
    /// value and becomes the next warm start; on a disconnected one it
    /// reads 0 and the warm state stays untouched — exactly the value and
    /// state lambda2(g) leaves. Dense solves need no gate.
    double commit_lambda2(Lambda2Solve solve, std::size_t components);

    /// Connected-component count via CSR BFS (0 for the empty graph).
    std::size_t component_count(const graph::Graph& g);

    /// Sampled network stretch of g against the insert-only reference ref:
    /// max over sampled sources s (budget many; all live nodes when budget
    /// >= |V|) and all targets t of dist_g(s,t) / dist_ref(s,t), counting
    /// pairs alive in both graphs and connected in ref. +infinity when such
    /// a pair is disconnected in g; never below 1.
    double sampled_stretch(const graph::Graph& g, const graph::Graph& ref,
                           std::size_t budget, util::Rng& rng);

    /// Batch scope: between begin_sample(g, ...) and end_sample(), the CSR
    /// snapshot of g is synced lazily on first use (or eagerly by sync())
    /// and then shared by every probe in the batch (the caller vouches that
    /// g does not mutate). `dirty` is g's structure journal since the
    /// previous begin_sample, so the sync patches instead of rebuilding.
    /// Outside a batch each probe rebuilds the snapshots itself, the
    /// stretch probe's reference included.
    void begin_sample(const graph::Graph& g, const std::vector<graph::NodeId>& dirty,
                      bool journal_overflowed) {
        batch_graph_ = &g;
        snapshot_valid_ = false;
        snap_.note(g, dirty, journal_overflowed);
    }
    /// Batch companion for the stretch probe's reference graph: its journal
    /// since the previous batch. A batch that samples stretch must feed it.
    void note_reference(const graph::Graph& ref, const std::vector<graph::NodeId>& dirty,
                        bool journal_overflowed) {
        ref_snap_.note(ref, dirty, journal_overflowed);
    }
    void end_sample() {
        batch_graph_ = nullptr;
        snapshot_valid_ = false;
    }

    /// Sync the snapshot of g now instead of at the first probe. Inside a
    /// batch every later probe reuses it, so lambda2(g) may then run on
    /// another thread (see the threading note at the top of this file).
    void sync(const graph::Graph& g);

    /// Id-compaction support: both snapshots hold renumbered rows now, so
    /// they are invalidated (the graphs' cleared-overflowed journals force
    /// the same on the next note() anyway), and the warm-start Ritz vector
    /// is permuted through the old->new map so the next lambda2 solve still
    /// warm-starts — compaction must not cost a cold solve. Entries of
    /// retired ids (dead since the last sample) are dropped; values are
    /// untouched, so the permuted vector scatters exactly as the old one
    /// would onto surviving rows.
    void on_compact(const std::vector<graph::NodeId>& old_to_new) {
        snap_.invalidate();
        ref_snap_.invalidate();
        if (!has_warm_) return;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < warm_ids_.size(); ++i) {
            graph::NodeId id = warm_ids_[i];
            graph::NodeId to =
                id < old_to_new.size() ? old_to_new[id] : graph::invalid_node;
            if (to == graph::invalid_node) continue;
            warm_ids_[keep] = to;
            warm_vec_[keep] = warm_vec_[i];
            ++keep;
        }
        warm_ids_.resize(keep);
        warm_vec_.resize(keep);
        has_warm_ = keep != 0;
    }

    /// Full CSR rebuilds / rows-patched-in-place performed so far, summed
    /// over the main and reference snapshots. Surfaced per run as the
    /// `probe_rebuilds` / `probe_patched_events` counters.
    std::uint64_t probe_rebuilds() const {
        return snap_.rebuilds() + ref_snap_.rebuilds();
    }
    std::uint64_t probe_patched_events() const {
        return snap_.patched_events() + ref_snap_.patched_events();
    }

private:
    /// solve_lambda2 over the already synced snapshot (>= 2 nodes).
    Lambda2Solve solve_synced(std::uint64_t seed);

    /// Scatter the stored Ritz vector onto csr's dense indexing (zeros for
    /// rows with no stored entry). Returns null when absent or fewer than
    /// half of csr's rows carry a stored value — too stale to help.
    const std::vector<double>* build_warm_start(const CsrGraph& csr);

    /// Sources per multi-source BFS: one bit each of a per-node byte mask.
    static constexpr std::size_t stretch_chunk_sources = 8;

    /// Scratch of one multi-source BFS, one mask bit per source.
    struct SourceFrontier {
        std::vector<std::uint8_t> seen;  ///< per node: sources that reached it
        std::vector<std::uint8_t> last;  ///< per node: sources that arrived last level
        std::vector<std::uint8_t> next;  ///< per node: sources arriving this level
        std::vector<std::uint32_t> nodes, next_nodes;  ///< frontier, by level
    };

    /// The stretch of one chunk of k <= stretch_chunk_sources sources,
    /// folded into `worst`: one multi-source BFS of G records dist_G per
    /// (node, source), one of G' then reads it as each (node, source) bit
    /// first appears. Returns false as soon as a G'-reachable live target
    /// is unreachable in G (stretch +infinity).
    bool stretch_chunk(const CsrGraph& csr, const CsrGraph& ref_csr, std::size_t first,
                       std::size_t k, double& worst);

    const graph::Graph* batch_graph_ = nullptr;
    bool snapshot_valid_ = false;
    IncrementalSnapshot snap_;
    IncrementalSnapshot ref_snap_;
    // Caller-thread probe scratch: the components flood, then the stretch
    // probe's sources, G' -> G index map, per-source G distances and BFS
    // frontiers.
    std::vector<std::uint32_t> visited_;
    std::vector<std::uint32_t> queue_;
    std::vector<graph::NodeId> sources_;
    std::vector<std::uint32_t> source_index_;      // G dense index per source
    std::vector<std::uint32_t> ref_source_index_;  // G' dense index per source
    std::vector<std::uint32_t> ref_to_g_;          // G' dense index -> G's or npos
    std::vector<std::uint32_t> source_dist_;       // dist_G, node-major, k per node
    SourceFrontier bfs_;
    // The kernels' scratch (dense matrix, Lanczos basis and spmv pass, the
    // serial lambda2's connectivity flood) belongs to lambda2 alone, so the
    // solve shares no buffer with the components and stretch probes.
    SpectralScratch spectral_;
    // Warm-start state: the previous Lanczos solve's Ritz vector keyed by
    // node id.
    std::vector<graph::NodeId> warm_ids_;
    std::vector<double> warm_vec_;
    std::vector<double> start_;
    bool has_warm_ = false;
};

}  // namespace xheal::spectral
