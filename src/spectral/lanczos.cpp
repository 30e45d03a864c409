#include "spectral/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "spectral/tridiag.hpp"
#include "util/expects.hpp"

namespace xheal::spectral {

namespace {

double dot(const double* a, const double* b, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(double* y, double alpha, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] *= alpha;
}

/// y += alpha * x, then dot(y, z), in one pass in element order. Each y[i]
/// is final before it enters the sum, and the sum runs over i in dot()'s
/// order, so the result is bitwise the separate axpy and dot loops. z may
/// alias y (the closing norm).
double axpy_dot(double* y, double alpha, const double* x, const double* z, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        y[i] += alpha * x[i];
        s += y[i] * z[i];
    }
    return s;
}

/// Apply the pending update v += alpha * x (none when x is null), then
/// remove v's component along each chain vector in order, and return ||v||.
/// Every axpy is fused with the dot that follows it (the next chain vector,
/// or v itself for the norm), so v streams through memory once per chain
/// vector instead of twice. The values are bitwise those of the unfused
/// dot/axpy sequence.
double sweep(double* v, double alpha, const double* x,
             const std::vector<const double*>& chain, std::size_t n) {
    const double* first = chain.empty() ? v : chain.front();
    double c = x != nullptr ? axpy_dot(v, alpha, x, first, n) : dot(v, first, n);
    for (std::size_t k = 0; k < chain.size(); ++k) {
        const double* next = k + 1 < chain.size() ? chain[k + 1] : v;
        c = axpy_dot(v, -c, chain[k], next, n);
    }
    return std::sqrt(c);
}

}  // namespace

LanczosResult lanczos_smallest(const CsrGraph& csr, const std::vector<double>& kernel,
                               LanczosScratch& scratch, util::Rng& rng,
                               std::size_t max_iterations, double tolerance,
                               const std::vector<double>* warm_start) {
    const std::size_t n = csr.size();
    XHEAL_EXPECTS(n >= 1);
    XHEAL_EXPECTS(kernel.empty() || kernel.size() == n);
    auto apply = [&csr, &scratch, n](const double* x, double* y) {
        csr.apply_normalized_laplacian({x, n}, {y, n}, scratch.scaled);
    };

    LanczosResult result;
    if (n == 1) {
        // Only the kernel direction exists; nothing orthogonal to deflate.
        scratch.ritz.assign(1, 1.0);
        double y = 0.0;
        apply(scratch.ritz.data(), &y);
        result.value = y;
        result.converged = true;
        return result;
    }

    std::size_t m = std::min(max_iterations, n - (kernel.empty() ? 0 : 1));
    if (m == 0) m = 1;
    if (scratch.basis_capacity < m * n) {
        // A quarter of slack keeps a slowly growing population from
        // reallocating (and re-faulting the reached columns) every solve.
        scratch.basis_capacity = m * (n + n / 4);
        scratch.basis = std::make_unique_for_overwrite<double[]>(scratch.basis_capacity);
    }
    double* basis = scratch.basis.get();
    auto column = [basis, n](std::size_t j) { return basis + j * n; };
    std::vector<double>& alphas = scratch.alphas;
    std::vector<double>& betas = scratch.betas;
    std::vector<const double*>& chain = scratch.chain;
    alphas.clear();
    betas.clear();

    // Start vector orthogonal to the kernel: the caller's warm vector when
    // it survives deflation, else a random draw.
    chain.clear();
    if (!kernel.empty()) chain.push_back(kernel.data());
    double* v = column(0);
    bool warm = false;
    double vn = 0.0;
    if (warm_start != nullptr && warm_start->size() == n) {
        std::copy(warm_start->begin(), warm_start->end(), v);
        vn = sweep(v, 0.0, nullptr, chain, n);
        warm = vn > 1e-8;
    }
    if (!warm) {
        for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform01() - 0.5;
        vn = sweep(v, 0.0, nullptr, chain, n);
    }
    if (vn < 1e-14) {
        // Degenerate draw; retry deterministically with a basis vector mix.
        for (std::size_t i = 0; i < n; ++i) v[i] = (i % 2 == 0) ? 1.0 : -1.0;
        vn = sweep(v, 0.0, nullptr, chain, n);
    }
    XHEAL_ASSERT(vn > 1e-14);
    scale(v, 1.0 / vn, n);

    std::vector<double>& w = scratch.w;
    w.resize(n);
    double previous_theta = 0.0;
    bool have_previous = false;

    for (std::size_t j = 0; j < m; ++j) {
        v = column(j);
        apply(v, w.data());
        double alpha = dot(w.data(), v, n);
        alphas.push_back(alpha);
        // Three-term recurrence, then full reorthogonalization against the
        // kernel and every basis vector, twice ("twice is enough").
        chain.clear();
        for (int pass = 0; pass < 2; ++pass) {
            if (!kernel.empty()) chain.push_back(kernel.data());
            for (std::size_t i = 0; i <= j; ++i) chain.push_back(column(i));
        }
        double beta;
        if (j > 0) {
            axpy(w.data(), -alpha, v, n);
            beta = sweep(w.data(), -betas.back(), column(j - 1), chain, n);
        } else {
            beta = sweep(w.data(), -alpha, v, chain, n);
        }
        result.iterations = j + 1;

        // Convergence probe on the smallest Ritz value every few steps.
        // A warm-started run is expected to converge almost immediately, so
        // it probes eagerly; the cold cadence is unchanged.
        bool probe = warm ? (j >= 2 && j % 2 == 0) : (j >= 8 && j % 4 == 0);
        if (beta < 1e-12 || j + 1 == m || probe) {
            auto eig = tridiag_eigen(alphas, betas);
            double theta = eig.values.front();
            // Two exits. (a) Kaniel-Paige residual bound: |lambda - theta| <=
            // beta * |s_k| (last component of the tridiagonal Ritz vector) —
            // a rigorous certificate, decisive on gapped spectra and for warm
            // starts already near the eigenvector. (b) Ritz stagnation
            // between probes — the practical exit on clustered spectra
            // (large random regular graphs), where the residual decays like
            // the inverse cluster width and (a) may never fire within the
            // budget even though theta has long stopped moving at the
            // accuracy anyone can use.
            double residual = beta * std::abs(eig.vectors.front().back());
            if (residual <= tolerance * std::max(1.0, std::abs(theta))) {
                result.converged = true;
            }
            // The stagnation exit needs a minimum amount of real work first:
            // a warm start lands near a (probe-accurate, not exact) vector,
            // so theta barely moves in the first couple of steps even when
            // the run has plenty left to gain. Exiting there compounds the
            // start vector's error sample over sample. Eight iterations is
            // enough Krylov depth that a flat theta means flat for real.
            if (have_previous && j >= 8 &&
                std::abs(theta - previous_theta) <=
                    tolerance * std::max(1.0, std::abs(theta))) {
                result.converged = true;
            }
            previous_theta = theta;
            have_previous = true;
            if (beta < 1e-12) {
                result.converged = true;  // Krylov space exhausted: exact in span
                break;
            }
            if (result.converged && j + 1 < m) break;
        }
        if (j + 1 == m) break;
        betas.push_back(beta);
        double* next = column(j + 1);
        double inv_beta = 1.0 / beta;
        for (std::size_t i = 0; i < n; ++i) next[i] = w[i] * inv_beta;
    }

    auto eig = tridiag_eigen(alphas, betas);
    result.value = eig.values.front();
    std::vector<double>& ritz = scratch.ritz;
    ritz.assign(n, 0.0);
    const auto& s = eig.vectors.front();
    for (std::size_t j = 0; j < result.iterations; ++j)
        axpy(ritz.data(), s[j], column(j), n);
    double rn = std::sqrt(dot(ritz.data(), ritz.data(), n));
    if (rn > 1e-14) scale(ritz.data(), 1.0 / rn, n);
    return result;
}

}  // namespace xheal::spectral
