// Lanczos iteration with full reorthogonalization for the smallest
// eigenpair of a snapshot's normalized Laplacian restricted to the
// complement of a known kernel vector. With the kernel D^{1/2} 1 deflated
// this is exactly lambda2, the algebraic connectivity.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "spectral/csr.hpp"
#include "util/rng.hpp"

namespace xheal::spectral {

/// Exhaustive budget: on graphs below this many nodes the Krylov space is
/// exhausted and the smallest Ritz value is exact to round-off.
inline constexpr std::size_t exact_lanczos_steps = 160;
inline constexpr double exact_lanczos_tol = 1e-9;

struct LanczosResult {
    double value = 0.0;            ///< smallest Ritz value found
    std::size_t iterations = 0;    ///< Lanczos steps performed
    bool converged = false;        ///< Ritz value stabilized below tolerance
};

/// Reusable buffers of one solve. Buffers only grow, so a caller that keeps
/// one across solves allocates nothing once at capacity.
struct LanczosScratch {
    /// The Krylov basis as one block: column j at [j*n, (j+1)*n). Allocated
    /// uninitialized for the whole step budget, so only the columns a solve
    /// reaches ever become resident.
    std::unique_ptr<double[]> basis;
    std::size_t basis_capacity = 0;
    std::vector<double> w;                    ///< the next Lanczos vector
    std::vector<double> scaled;               ///< the apply's D^{-1/2} x pass
    std::vector<const double*> chain;         ///< one Gram-Schmidt sweep
    std::vector<double> alphas, betas;        ///< the tridiagonal
    /// Output: the solve's Ritz vector (unit norm, aligned with csr.nodes()),
    /// overwritten by the next solve. A caller that keeps it swaps it out
    /// for a buffer of its own, so the two trade places solve after solve.
    std::vector<double> ritz;
};

/// Smallest eigenpair of csr's normalized Laplacian restricted to the
/// orthogonal complement of `kernel` (must be unit norm, or empty to disable
/// deflation): the value in the result, the vector in scratch.ritz.
/// Deterministic given the rng state.
///
/// `warm_start`, when non-null and of size n, seeds the iteration with that
/// vector (re-orthogonalized against the kernel) instead of a random draw,
/// and probes convergence more eagerly — when the seed is the previous
/// sample's Ritz vector and the spectrum moved little, convergence drops
/// from tens of iterations to a handful. A degenerate warm vector (lies in
/// the kernel, wrong size) silently falls back to the cold random start.
LanczosResult lanczos_smallest(const CsrGraph& csr, const std::vector<double>& kernel,
                               LanczosScratch& scratch, util::Rng& rng,
                               std::size_t max_iterations = exact_lanczos_steps,
                               double tolerance = exact_lanczos_tol,
                               const std::vector<double>* warm_start = nullptr);

}  // namespace xheal::spectral
