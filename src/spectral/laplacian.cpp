#include "spectral/laplacian.hpp"

#include <algorithm>

#include "spectral/jacobi.hpp"

namespace xheal::spectral {

using graph::Graph;

namespace {

/// The one dense materializer: csr's Laplacian into `m`, reset to n x n.
/// Isolated vertices contribute zero rows in both conventions. A normalized
/// entry is the product isd_i * isd_j, which commutes, so the matrix is
/// exactly symmetric by construction.
void laplacian_dense(const CsrGraph& csr, LaplacianKind kind, DenseMatrix& m) {
    std::size_t n = csr.size();
    m.reset(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        double isd_i = csr.inv_sqrt_deg(i);
        if (isd_i == 0.0) continue;  // isolated vertex: zero row
        if (kind == LaplacianKind::combinatorial) {
            m.at(i, i) = static_cast<double>(csr.degree(i));
            for (std::uint32_t j : csr.row(i)) m.at(i, j) = -1.0;
        } else {
            m.at(i, i) = 1.0;
            for (std::uint32_t j : csr.row(i)) m.at(i, j) = -isd_i * csr.inv_sqrt_deg(j);
        }
    }
}

}  // namespace

std::vector<double> laplacian_spectrum(const Graph& g, LaplacianKind kind) {
    CsrGraph csr;
    csr.build(g);
    DenseMatrix m;
    laplacian_dense(csr, kind, m);
    return jacobi_eigenvalues(std::move(m));
}

double dense_lambda2(const CsrGraph& csr, SpectralScratch& scratch,
                     std::vector<double>* fiedler_vector) {
    std::size_t n = csr.size();
    if (n < 2) return 0.0;
    laplacian_dense(csr, LaplacianKind::normalized, scratch.dense);
    if (fiedler_vector == nullptr) {
        jacobi_eigenvalues_inplace(scratch.dense, scratch.values);
        return std::max(0.0, scratch.values[1]);
    }
    // The rotations never read the accumulated vectors, so the eigenvalues
    // are bitwise those of the values-only solve above.
    auto eig = jacobi_eigen(scratch.dense);
    fiedler_vector->resize(n);
    for (std::size_t i = 0; i < n; ++i) (*fiedler_vector)[i] = eig.vectors.at(i, 1);
    return std::max(0.0, eig.values[1]);
}

LanczosResult lanczos_lambda2(const CsrGraph& csr, SpectralScratch& scratch,
                              std::uint64_t seed, std::size_t max_iterations,
                              double tolerance, const std::vector<double>* warm_start) {
    if (csr.size() < 2) return {};
    csr.normalized_kernel(scratch.kernel);
    util::Rng rng(seed);
    auto result = lanczos_smallest(csr, scratch.kernel, scratch.lanczos, rng, max_iterations,
                                   tolerance, warm_start);
    result.value = std::max(0.0, result.value);  // clamp tiny negative round-off
    return result;
}

FiedlerResult fiedler(const CsrGraph& csr, std::uint64_t seed) {
    FiedlerResult out;
    out.vector.assign(csr.size(), 0.0);
    SpectralScratch scratch;
    // The one connectivity flood of this solve (the kernels have no gate).
    if (csr.size() < 2 || csr.component_count(scratch.visited, scratch.queue) > 1) return out;
    if (csr.size() <= dense_spectral_limit) {
        out.lambda2 = dense_lambda2(csr, scratch, &out.vector);
        return out;
    }
    auto result = lanczos_lambda2(csr, scratch, seed);
    out.lambda2 = result.value;
    out.vector = std::move(scratch.lanczos.ritz);
    return out;
}

FiedlerResult fiedler(const Graph& g, std::uint64_t seed) {
    CsrGraph csr;
    csr.build(g);
    return fiedler(csr, seed);
}

double lambda2(const Graph& g, std::uint64_t seed) { return fiedler(g, seed).lambda2; }

}  // namespace xheal::spectral
