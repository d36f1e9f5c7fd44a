// Dense row-major matrix with the handful of operations an MLP needs.
// Double precision keeps finite-difference gradient checks tight.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace drlnoc::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  void fill(double value);
  void resize(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Reshapes without initialising contents — for destinations every
  /// element of which is about to be overwritten.
  void resize_fast(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Row r as a vector copy (convenience for Q-value extraction).
  std::vector<double> row(std::size_t r) const;
  /// Non-allocating view of row r: pointer to its cols() contiguous values.
  const double* row_data(std::size_t r) const { return data() + r * cols_; }
  double* row_data(std::size_t r) { return data() + r * cols_; }
  /// Sets row r from a vector of length cols().
  void set_row(std::size_t r, const std::vector<double>& values);

  /// Frobenius norm.
  double norm() const;

  void save(std::ostream& os) const;
  static Matrix load(std::istream& is);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Index of the largest element of row r (ties: lowest index) — the
/// allocation-free argmax path used by greedy action selection.
std::size_t argmax_row(const Matrix& m, std::size_t r);

// Matmul kernels. Each reshapes `c` and overwrites it, reusing its storage
// (the allocation-free workspace path). All kernels accumulate each output
// element in ascending-k order with a skip of exact-zero left-hand factors,
// exactly like the original naive loops, so results are bit-identical to
// them (the determinism contract's kernel summation-order rule; see README
// "Performance"). `c` must not alias `a` or `b`.

/// C = A (m×k) * B (k×n).
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);
/// C = Aᵀ (k×m) * B (k×n) — used for weight gradients.
void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b);
/// C = A (m×k) * Bᵀ (n×k) — the naive input-gradient form.
void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b);
/// dst = srcᵀ (dst reshaped in place; must not alias src).
void transpose_into(Matrix& dst, const Matrix& src);
/// Adds a 1×n row vector to every row of a (m×n).
void add_row_inplace(Matrix& a, const Matrix& row);
/// s = 1×n column sums of a (m×n) — bias gradient.
void column_sums_into(Matrix& s, const Matrix& a);

}  // namespace drlnoc::nn
