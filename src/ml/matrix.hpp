// Dense row-major matrix of doubles — the feature container for the
// classical (HSC) models and the statistics layer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/errors.hpp"

namespace phishinghook::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<double> row(std::size_t r) {
    return std::span<double>(data_.data() + r * cols_, cols_);
  }
  std::span<const double> row(std::size_t r) const {
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  /// Rows selected by `indices`, in order (fold construction).
  Matrix select_rows(std::span<const std::size_t> indices) const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Throws InvalidArgument when `x` has rows but fewer than `n_features`
/// columns: a tree model splitting on a missing column would read past
/// the row. `who` names the caller in the message.
void require_columns(const Matrix& x, std::size_t n_features,
                     const char* who);

/// Select elements of `values` by `indices` (labels companion of
/// Matrix::select_rows).
template <typename T>
std::vector<T> select(const std::vector<T>& values,
                      std::span<const std::size_t> indices) {
  std::vector<T> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) out.push_back(values[i]);
  return out;
}

}  // namespace phishinghook::ml
