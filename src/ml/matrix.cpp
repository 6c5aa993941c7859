#include "ml/matrix.hpp"

#include <string>

namespace phishinghook::ml {

void require_columns(const Matrix& x, std::size_t n_features,
                     const char* who) {
  if (x.rows() > 0 && x.cols() < n_features) {
    throw InvalidArgument(std::string(who) + " needs " +
                          std::to_string(n_features) +
                          " features, matrix has " + std::to_string(x.cols()));
  }
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix out(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != out.cols_) {
      throw InvalidArgument("ragged rows in Matrix::from_rows");
    }
    for (std::size_t c = 0; c < out.cols_; ++c) out.at(r, c) = rows[r][c];
  }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const auto src = row(indices[r]);
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) = src[c];
  }
  return out;
}

}  // namespace phishinghook::ml
