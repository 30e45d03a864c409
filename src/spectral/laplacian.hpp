// Graph Laplacians and the one spectral pipeline behind every lambda2.
//
// The paper's lambda(G) (Theorem 1, Theorem 2(4)) is the second-smallest
// eigenvalue of the *normalized* Laplacian L = I - D^{-1/2} A D^{-1/2}
// (Chung's convention, which the Cheeger inequality 2*phi >= lambda >
// phi^2/2 requires). Every solve runs over a CsrGraph snapshot through one
// of two kernels:
//
//   * dense_lambda2()   — materializes L from the snapshot and runs Jacobi;
//                         the path at or below dense_spectral_limit nodes.
//   * lanczos_lambda2() — matrix-free Lanczos on CsrGraph's normalized
//                         Laplacian apply with the D^{1/2} 1 kernel deflated;
//                         the path above it.
//
// Neither kernel gates on connectivity. The paper's lambda2 of a
// disconnected graph is 0, so each caller floods the snapshot once and
// decides: the free fiedler()/lambda2() below skip the solve, and the
// ProbeEngine (probes.hpp) either skips it or, when the solve runs beside
// the components probe, discards its result. The engine solves at its
// probe budget with a warm start; fiedler()/lambda2() at the exhaustive
// budget, cold. The combinatorial Laplacian D - A survives only in
// laplacian_spectrum(), the dense oracle for tests against closed-form
// spectra.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "spectral/csr.hpp"
#include "spectral/dense_matrix.hpp"
#include "spectral/lanczos.hpp"

namespace xheal::spectral {

enum class LaplacianKind {
    combinatorial,  ///< D - A
    normalized,     ///< I - D^{-1/2} A D^{-1/2}
};

/// Node count at or below which lambda2 is solved by the dense kernel.
inline constexpr std::size_t dense_spectral_limit = 160;

/// All Laplacian eigenvalues (ascending) via Jacobi; n <= ~400 advised.
/// Isolated vertices contribute an all-zero row in both conventions.
std::vector<double> laplacian_spectrum(const graph::Graph& g, LaplacianKind kind);

/// Reusable buffers of both kernels. Buffers only grow, so a caller that
/// keeps one across solves allocates nothing once at capacity.
struct SpectralScratch {
    DenseMatrix dense;                  ///< materialized Laplacian (dense kernel)
    std::vector<double> values;         ///< Jacobi eigenvalues (dense kernel)
    std::vector<double> kernel;         ///< D^{1/2} 1 (Lanczos kernel)
    LanczosScratch lanczos;             ///< Krylov basis and apply pass
    std::vector<std::uint32_t> visited; ///< the callers' connectivity flood
    std::vector<std::uint32_t> queue;
};

/// The dense kernel: lambda2 of csr's normalized Laplacian by Jacobi,
/// clamped at 0 (0 below two nodes). No connectivity gate: a disconnected
/// snapshot reads as its round-off-level second eigenvalue. When
/// `fiedler_vector` is non-null it receives lambda2's eigenvector, aligned
/// with csr.nodes().
double dense_lambda2(const CsrGraph& csr, SpectralScratch& scratch,
                     std::vector<double>* fiedler_vector = nullptr);

/// The Lanczos kernel: smallest eigenpair of csr's normalized Laplacian
/// orthogonal to D^{1/2} 1, value clamped at 0, Ritz vector in
/// scratch.lanczos.ritz aligned with csr.nodes(); value 0 and no solve
/// below two nodes. No
/// connectivity gate: on a disconnected snapshot the value is a round-off
/// reading of the repeated zero eigenvalue, so callers that report the
/// paper's lambda2 count components first. Deterministic given the seed and
/// `warm_start` (see lanczos_smallest).
LanczosResult lanczos_lambda2(const CsrGraph& csr, SpectralScratch& scratch,
                              std::uint64_t seed,
                              std::size_t max_iterations = exact_lanczos_steps,
                              double tolerance = exact_lanczos_tol,
                              const std::vector<double>* warm_start = nullptr);

struct FiedlerResult {
    double lambda2 = 0.0;
    /// The raw eigenvector y of the normalized Laplacian, aligned with the
    /// snapshot's nodes() — ascending id (sweep callers rescale by D^{-1/2}
    /// themselves). All zeros for graphs with < 2 nodes or more than one
    /// component.
    std::vector<double> vector;
};

/// lambda2 of the normalized Laplacian together with the Fiedler vector:
/// the dense kernel at or below dense_spectral_limit nodes, the Lanczos
/// kernel at the exhaustive budget above it. Exactly 0 for < 2 nodes and
/// for disconnected graphs. Deterministic given the seed.
FiedlerResult fiedler(const CsrGraph& csr, std::uint64_t seed = 12345);
FiedlerResult fiedler(const graph::Graph& g, std::uint64_t seed = 12345);

/// fiedler(g, seed).lambda2.
double lambda2(const graph::Graph& g, std::uint64_t seed = 12345);

}  // namespace xheal::spectral
