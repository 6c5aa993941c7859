#include "ml/random_forest.hpp"

#include <cmath>
#include <utility>

#include "common/thread_pool.hpp"

namespace phishinghook::ml {

RandomForestClassifier::RandomForestClassifier(RandomForestConfig config)
    : config_(config) {}

void RandomForestClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) {
    throw InvalidArgument("RandomForest::fit size mismatch");
  }
  trees_.clear();
  n_features_ = x.cols();
  common::Rng rng(config_.seed);

  const std::size_t max_features =
      config_.max_features > 0
          ? config_.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(x.cols()))));

  // Determinism by pre-draw: all bootstrap weights and per-tree seeds come
  // out of the master RNG serially, in the same order a serial fit would
  // consume them. Tree fitting then has no shared mutable state and each
  // tree lands in its pre-assigned slot, so the forest is bit-identical at
  // every thread count.
  const std::size_t n_trees =
      config_.n_trees > 0 ? static_cast<std::size_t>(config_.n_trees) : 0;
  std::vector<std::vector<double>> bootstrap(n_trees);
  std::vector<std::uint64_t> seeds(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    // Bootstrap as integer sample weights (identical distribution to
    // resampling rows, cheaper on memory).
    bootstrap[t].assign(x.rows(), 0.0);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      bootstrap[t][rng.next_below(x.rows())] += 1.0;
    }
    seeds[t] = rng.next_u64();
  }

  // Every tree sorts the same matrix, so sort it once and share the result
  // read-only: each tree derives its root order by an O(n) filter of the
  // presorted blocks instead of its own O(n log n) per-feature sorts.
  const FeaturePresort presort = FeaturePresort::build(x);

  trees_.resize(n_trees);
  common::parallel_for(n_trees, [&](std::size_t t) {
    DecisionTreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.max_features = max_features;
    tree_config.seed = seeds[t];
    DecisionTreeClassifier tree(tree_config);
    tree.fit_weighted(x, y, bootstrap[t], &presort);
    trees_[t] = std::move(tree);
  });
  flat_ = FlatTreeEnsemble::from_forest(trees_);
}

std::vector<double> RandomForestClassifier::predict_proba(
    const Matrix& x) const {
  if (trees_.empty()) throw StateError("RandomForest::predict before fit");
  return flat_.predict_proba(x);
}

std::vector<double> RandomForestClassifier::predict_proba_nodewalk(
    const Matrix& x) const {
  if (trees_.empty()) throw StateError("RandomForest::predict before fit");
  require_columns(x, n_features_, "RandomForest::predict_proba_nodewalk");
  // Row-outer / tree-inner: each row's feature span stays hot in cache
  // across the whole forest, and rows parallelize independently.
  const double n_trees = static_cast<double>(trees_.size());
  std::vector<double> out(x.rows(), 0.0);
  common::parallel_for_chunks(x.rows(), [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const auto row = x.row(r);
      double sum = 0.0;
      for (const DecisionTreeClassifier& tree : trees_) {
        sum += tree.predict_row(row);
      }
      out[r] = sum / n_trees;
    }
  });
  return out;
}

std::vector<double> RandomForestClassifier::feature_importances() const {
  if (trees_.empty()) throw StateError("RandomForest importances before fit");
  // Tree-outer here is already the cache-friendly orientation: the inner
  // loop walks each tree's importance vector and `out` contiguously.
  std::vector<double> out(n_features_, 0.0);
  for (const DecisionTreeClassifier& tree : trees_) {
    const auto imp = tree.feature_importances();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += imp[i];
  }
  double total = 0.0;
  for (double v : out) total += v;
  if (total > 0.0) {
    for (double& v : out) v /= total;
  }
  return out;
}

}  // namespace phishinghook::ml
