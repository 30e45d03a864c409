// Cyclic Jacobi eigensolver for dense symmetric matrices.
//
// Robust and simple: repeatedly rotates away the largest off-diagonal
// entries until the off-diagonal norm falls below tolerance. O(n^3) per
// sweep; intended for n up to a few hundred (larger graphs go through the
// Lanczos path).
#pragma once

#include <vector>

#include "spectral/dense_matrix.hpp"

namespace xheal::spectral {

struct EigenDecomposition {
    /// Eigenvalues in ascending order.
    std::vector<double> values;
    /// Column k of `vectors` (i.e. vectors.at(i, k) over i) is the
    /// eigenvector for values[k].
    DenseMatrix vectors;
};

/// All eigenvalues of a symmetric matrix, ascending. Requires symmetry
/// (checked to 1e-9).
std::vector<double> jacobi_eigenvalues(DenseMatrix m, double tolerance = 1e-12,
                                       int max_sweeps = 100);

/// In-place variant for scratch-reusing callers (the dense lambda2 kernel):
/// `m` is destroyed — rotated to its diagonal — and the
/// ascending eigenvalues land in `values` (resized; allocation-free once
/// at capacity). Same requirements and results as jacobi_eigenvalues.
void jacobi_eigenvalues_inplace(DenseMatrix& m, std::vector<double>& values,
                                double tolerance = 1e-12, int max_sweeps = 100);

/// Eigenvalues and eigenvectors. Same requirements as jacobi_eigenvalues.
EigenDecomposition jacobi_eigen(DenseMatrix m, double tolerance = 1e-12,
                                int max_sweeps = 100);

}  // namespace xheal::spectral
