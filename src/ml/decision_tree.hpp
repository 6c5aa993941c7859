// CART decision tree (gini impurity) — the base learner of the Random
// Forest HSC and the structure TreeSHAP explains.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "ml/classifier.hpp"

namespace phishinghook::ml {

/// One node of a binary tree stored in a flat array. Leaves have
/// feature == -1; `value` is the positive-class fraction at the leaf (for
/// internal nodes it is the subtree's training fraction, used by SHAP).
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;  ///< go left if x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;
  double weight = 0.0;  ///< training samples (or weight) covered

  bool is_leaf() const { return feature < 0; }
};

/// Per-matrix presorted feature order: `order` holds x.cols() blocks of
/// x.rows() row ids, block f sorted by (x[:, f], row id). Building it costs
/// one O(n log n) sort per feature; a tree fit on the same matrix can then
/// derive its root order by an O(n) filter instead of re-sorting. The
/// Random Forest builds one and shares it (read-only) across all trees.
struct FeaturePresort {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> order;

  static FeaturePresort build(const Matrix& x);
};

struct DecisionTreeConfig {
  int max_depth = 12;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Features considered per split; 0 = all, otherwise a random subset of
  /// this size (the Random Forest's decorrelation knob).
  std::size_t max_features = 0;
  std::uint64_t seed = 1;
};

class DecisionTreeClassifier final : public TabularClassifier {
 public:
  explicit DecisionTreeClassifier(DecisionTreeConfig config = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;

  /// Weighted fit (bootstrap counts / boosting weights). `presort`, when
  /// given, must have been built from `x`; it is only read, so one instance
  /// can be shared by concurrent fits. Results are bit-identical with and
  /// without it.
  void fit_weighted(const Matrix& x, const std::vector<int>& y,
                    const std::vector<double>& weights,
                    const FeaturePresort* presort = nullptr);

  std::vector<double> predict_proba(const Matrix& x) const override;
  std::string name() const override { return "DecisionTree"; }

  void save(std::ostream& out) const override;
  static DecisionTreeClassifier load_from(std::istream& in);

  /// Untagged node/importance payload — embedded per-tree by the Random
  /// Forest artifact (which writes its own single tag).
  void save_payload(std::ostream& out) const;
  static DecisionTreeClassifier load_payload(std::istream& in);

  /// P(phishing) for a single row.
  double predict_row(std::span<const double> row) const;

  /// Columns the tree was fitted on; predict needs at least this many.
  std::size_t n_features() const { return n_features_; }

  /// Flat node array (root at 0); consumed by TreeSHAP.
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Gini-gain importances (normalized to sum 1; empty before fit).
  std::vector<double> feature_importances() const;

 private:
  DecisionTreeConfig config_;
  std::vector<TreeNode> nodes_;
  std::size_t n_features_ = 0;
  std::vector<double> importances_;
};

}  // namespace phishinghook::ml
