#pragma once

// Shared helpers for the dense linear-algebra kernels: a row-major matrix
// with instrumented access helpers.  touch_read/touch_write record any
// contiguous run, but gemm_base, chol's leaves and the strassen loops call
// them once per element, the way compiler-inserted hooks would; the runtime
// coalescer (DESIGN.md §9.1) merges each stream into one interval.  A
// per-row-segment front end, the granularity a compile-time coalescing pass
// produces, is ROADMAP item 3.

#include <cmath>
#include <cstddef>
#include <vector>

#include "detect/instrument.hpp"
#include "support/rng.hpp"

namespace pint::kernels {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double* row(std::size_t i) { return data_.data() + i * cols_; }
  const double* row(std::size_t i) const { return data_.data() + i * cols_; }
  double& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double at(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  void fill_random(Xoshiro256& rng, double lo = -1.0, double hi = 1.0) {
    for (double& v : data_) v = lo + (hi - lo) * rng.next_double();
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// A view of a square sub-block of a row-major matrix, carrying the leading
/// dimension so recursion can address quadrants without copying.
struct Block {
  double* base = nullptr;  // element (0,0) of the block
  std::size_t ld = 0;      // leading dimension (row stride, in elements)

  double* row(std::size_t i) const { return base + i * ld; }
  Block quad(std::size_t qi, std::size_t qj, std::size_t half) const {
    return {base + qi * half * ld + qj * half, ld};
  }
};

inline void touch_read(const double* p, std::size_t n) {
  record_read(p, n * sizeof(double));
}
inline void touch_write(const double* p, std::size_t n) {
  record_write(p, n * sizeof(double));
}

/// Base-case GEMM: C += A * B on n x n blocks, instrumented per element
/// like compiler-inserted hooks (every load/store records; the runtime
/// coalescer collapses each contiguous stream into one interval).
inline void gemm_base(Block C, Block A, Block B, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* ar = A.row(i);
    double* cr = C.row(i);
    for (std::size_t k = 0; k < n; ++k) {
      touch_read(&ar[k], 1);
      const double a = ar[k];
      const double* br = B.row(k);
      for (std::size_t j = 0; j < n; ++j) {
        touch_read(&br[j], 1);
        touch_read(&cr[j], 1);
        touch_write(&cr[j], 1);
        cr[j] += a * br[j];
      }
    }
  }
}

inline bool nearly_equal(double a, double b, double tol = 1e-6) {
  const double scale = std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace pint::kernels
