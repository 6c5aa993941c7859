#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"

namespace phishinghook::ml {

namespace {

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

/// A pending node on the explicit build stack. Nodes do not own any row
/// storage: they are a `[begin, end)` window into the per-tree arenas (one
/// original-order row-id array plus one presorted row-id array per feature),
/// which are partitioned in place as the tree descends.
struct BuildItem {
  std::size_t begin = 0;
  std::size_t end = 0;
  int depth = 0;
  int parent = -1;  ///< node id to link into; -1 for the root
  bool is_left = false;
};

/// Stable in-place partition of `seg[0..m)` by the per-row `go_left` mask:
/// left rows keep their relative order at the front, right rows at the back.
/// `scratch` must hold at least m entries. Branchless on purpose: the mask
/// is ~50/50 and data-random at every split, so a conditional here costs a
/// misprediction per element. Both stores always execute and the cursors
/// advance by the mask; the in-place left store trails the read cursor
/// (nl <= k), so the single pass is safe.
void partition_segment(std::uint32_t* seg, std::size_t m,
                       const std::vector<std::uint8_t>& go_left,
                       std::vector<std::uint32_t>& scratch) {
  std::size_t nl = 0, nr = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t v = seg[k];
    const std::uint8_t left = go_left[v];
    seg[nl] = v;
    scratch[nr] = v;
    nl += left;
    nr += 1 - left;
  }
  std::copy(scratch.begin(), scratch.begin() + nr, seg + nl);
}

}  // namespace

FeaturePresort FeaturePresort::build(const Matrix& x) {
  FeaturePresort presort;
  presort.rows = x.rows();
  presort.cols = x.cols();
  presort.order.resize(x.rows() * x.cols());
  // Features sort independently into disjoint blocks, so this fans out
  // without affecting the result.
  common::parallel_for_chunks(x.cols(), [&](std::size_t begin,
                                            std::size_t end) {
    std::vector<std::pair<double, std::uint32_t>> pairs(x.rows());
    for (std::size_t f = begin; f < end; ++f) {
      for (std::size_t r = 0; r < x.rows(); ++r) {
        pairs[r] = {x.at(r, f), static_cast<std::uint32_t>(r)};
      }
      std::sort(pairs.begin(), pairs.end());
      std::uint32_t* block = presort.order.data() + f * x.rows();
      for (std::size_t r = 0; r < x.rows(); ++r) block[r] = pairs[r].second;
    }
  });
  return presort;
}

DecisionTreeClassifier::DecisionTreeClassifier(DecisionTreeConfig config)
    : config_(config) {}

void DecisionTreeClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  fit_weighted(x, y, std::vector<double>(y.size(), 1.0));
}

void DecisionTreeClassifier::fit_weighted(const Matrix& x,
                                          const std::vector<int>& y,
                                          const std::vector<double>& weights,
                                          const FeaturePresort* presort) {
  if (x.rows() != y.size() || y.size() != weights.size()) {
    throw InvalidArgument("DecisionTree::fit size mismatch");
  }
  if (x.rows() == 0) throw InvalidArgument("DecisionTree::fit on empty data");
  nodes_.clear();
  n_features_ = x.cols();
  importances_.assign(n_features_, 0.0);

  // Rows this tree trains on, in ascending-row ("original") order — the
  // order the recursive version accumulated node weight sums in.
  std::vector<std::uint32_t> idx;
  idx.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (weights[i] > 0.0) {  // skip unsampled bootstrap rows
      idx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (idx.empty()) throw InvalidArgument("DecisionTree::fit zero weight");
  const std::size_t m0 = idx.size();

  // Sorted-order arena: `order` holds n_features blocks of m0 row ids,
  // block f sorted by (x[:, f], row). Descendant nodes inherit sorted order
  // through stable in-place partitions of their [begin, end) window, so no
  // node below the root ever sorts. Ties break by row id, matching the
  // (value, index) pair order per-node std::sort produced. Row ids are
  // 4 bytes, so the arena is F*n*4 bytes and the partition working set
  // stays cache-resident.
  //
  // With a shared presort (the Random Forest path) the root order is an
  // O(F*n) filter of the full-matrix order down to the rows this tree
  // trains on — filtering a sorted sequence keeps it sorted, so this is
  // bit-identical to sorting the subset. Without one, sort here.
  if (presort != nullptr &&
      (presort->rows != x.rows() || presort->cols != x.cols())) {
    throw InvalidArgument("DecisionTree::fit presort shape mismatch");
  }
  // One slot of slack: the branchless filter below stores before advancing
  // its cursor, so a trailing dropped row writes (harmlessly) one past the
  // block end — for the last block that is one past the arena end.
  std::vector<std::uint32_t> order(n_features_ * m0 + 1);
  {
    if (presort != nullptr) {
      for (std::size_t f = 0; f < n_features_; ++f) {
        const std::uint32_t* full = presort->order.data() + f * x.rows();
        std::uint32_t* block = order.data() + f * m0;
        std::size_t nk = 0;
        for (std::size_t r = 0; r < x.rows(); ++r) {
          const std::uint32_t v = full[r];
          block[nk] = v;
          nk += weights[v] > 0.0 ? 1 : 0;
        }
      }
    } else {
      std::vector<std::pair<double, std::uint32_t>> pairs(m0);
      for (std::size_t f = 0; f < n_features_; ++f) {
        for (std::size_t k = 0; k < m0; ++k) {
          pairs[k] = {x.at(idx[k], f), idx[k]};
        }
        std::sort(pairs.begin(), pairs.end());
        std::uint32_t* block = order.data() + f * m0;
        for (std::size_t k = 0; k < m0; ++k) block[k] = pairs[k].second;
      }
    }
  }

  common::Rng rng(config_.seed);

  // Scratch reused across all nodes: candidate-feature order, the stable
  // partition buffer, and a per-row left/right mask (only the current
  // node's rows are ever read back, so stale bytes are harmless).
  std::vector<std::size_t> features(n_features_);
  std::vector<std::uint32_t> scratch(m0);
  std::vector<std::uint8_t> go_left(x.rows(), 0);

  // Explicit DFS; pushing right before left reproduces the recursion's
  // preorder, so node ids, RNG draws, and importance accumulation order are
  // identical to the old recursive build. In-place segment partitions make
  // this safe: the left subtree only touches [begin, mid), which is fully
  // settled before the right item's [mid, end) is popped.
  std::vector<BuildItem> stack;
  stack.push_back(BuildItem{0, m0, 0, -1, false});
  while (!stack.empty()) {
    const BuildItem item = stack.back();
    stack.pop_back();
    const std::size_t m = item.end - item.begin;

    double total_weight = 0.0;
    double pos_weight = 0.0;
    for (std::size_t k = item.begin; k < item.end; ++k) {
      const std::uint32_t i = idx[k];
      total_weight += weights[i];
      if (y[i] != 0) pos_weight += weights[i];
    }

    const int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back(TreeNode{});
    nodes_[node_id].value =
        total_weight > 0.0 ? pos_weight / total_weight : 0.0;
    nodes_[node_id].weight = total_weight;
    if (item.parent >= 0) {
      (item.is_left ? nodes_[item.parent].left : nodes_[item.parent].right) =
          node_id;
    }

    const bool pure = pos_weight <= 0.0 || pos_weight >= total_weight;
    if (item.depth >= config_.max_depth || pure ||
        m < config_.min_samples_split) {
      continue;
    }

    // Candidate features: all, or a random subset (Random Forest mode).
    std::iota(features.begin(), features.end(), std::size_t{0});
    std::size_t feature_count = n_features_;
    if (config_.max_features > 0 && config_.max_features < n_features_) {
      rng.shuffle(features);
      feature_count = config_.max_features;
    }

    const double parent_impurity = gini(pos_weight, total_weight);
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    for (std::size_t fi = 0; fi < feature_count; ++fi) {
      const std::size_t feature = features[fi];
      const std::uint32_t* block = order.data() + feature * m0 + item.begin;

      double left_weight = 0.0, left_pos = 0.0;
      double v_next = x.at(block[0], feature);
      for (std::size_t k = 0; k + 1 < m; ++k) {
        const std::uint32_t i = block[k];
        const double v_k = v_next;
        v_next = x.at(block[k + 1], feature);
        left_weight += weights[i];
        if (y[i] != 0) left_pos += weights[i];
        if (v_k == v_next) continue;  // tied values
        const std::size_t left_count = k + 1;
        const std::size_t right_count = m - left_count;
        if (left_count < config_.min_samples_leaf ||
            right_count < config_.min_samples_leaf) {
          continue;
        }
        const double right_weight = total_weight - left_weight;
        const double right_pos = pos_weight - left_pos;
        const double child_impurity =
            (left_weight * gini(left_pos, left_weight) +
             right_weight * gini(right_pos, right_weight)) /
            total_weight;
        const double gain = parent_impurity - child_impurity;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(feature);
          best_threshold = 0.5 * (v_k + v_next);
        }
      }
    }

    if (best_feature < 0) continue;

    std::size_t left_count = 0;
    for (std::size_t k = item.begin; k < item.end; ++k) {
      const std::uint32_t i = idx[k];
      const bool left =
          x.at(i, static_cast<std::size_t>(best_feature)) <= best_threshold;
      go_left[i] = left ? 1 : 0;
      if (left) ++left_count;
    }
    if (left_count == 0 || left_count == m) continue;

    importances_[static_cast<std::size_t>(best_feature)] +=
        best_gain * total_weight;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;

    // Stable in-place partition of the original-order ids and of every
    // presorted block: one cache-friendly pass per array, no allocations.
    // This is what replaces the per-node re-sort.
    partition_segment(idx.data() + item.begin, m, go_left, scratch);
    for (std::size_t f = 0; f < n_features_; ++f) {
      partition_segment(order.data() + f * m0 + item.begin, m, go_left,
                        scratch);
    }

    const std::size_t mid = item.begin + left_count;
    stack.push_back(BuildItem{mid, item.end, item.depth + 1, node_id, false});
    stack.push_back(BuildItem{item.begin, mid, item.depth + 1, node_id, true});
  }

  double total = std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
}

double DecisionTreeClassifier::predict_row(std::span<const double> row) const {
  if (nodes_.empty()) throw StateError("DecisionTree::predict before fit");
  if (row.size() < n_features_) {
    throw InvalidArgument("DecisionTree::predict_row needs " +
                          std::to_string(n_features_) + " features, row has " +
                          std::to_string(row.size()));
  }
  int node = 0;
  while (!nodes_[static_cast<std::size_t>(node)].is_leaf()) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    node = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                   : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

std::vector<double> DecisionTreeClassifier::predict_proba(
    const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_row(x.row(r));
  return out;
}

std::vector<double> DecisionTreeClassifier::feature_importances() const {
  return importances_;
}

}  // namespace phishinghook::ml
