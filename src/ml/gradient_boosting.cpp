#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/gbdt_common.hpp"

namespace phishinghook::ml {

GradientBoostingClassifier::GradientBoostingClassifier(
    GradientBoostingConfig config)
    : config_(config) {}

int GradientBoostingClassifier::build_tree(
    const Matrix& x, const std::vector<double>& grad,
    const std::vector<double>& hess, std::vector<std::size_t>& indices,
    const std::vector<std::size_t>& features, int depth,
    std::vector<TreeNode>& tree) const {
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t i : indices) {
    g_sum += grad[i];
    h_sum += hess[i];
  }

  const int node_id = static_cast<int>(tree.size());
  tree.push_back(TreeNode{});
  tree[static_cast<std::size_t>(node_id)].value =
      -g_sum / (h_sum + config_.lambda);
  tree[static_cast<std::size_t>(node_id)].weight = h_sum;

  if (depth >= config_.max_depth || indices.size() < 2) return node_id;

  const double parent_score = g_sum * g_sum / (h_sum + config_.lambda);
  const double gain_floor = config_.gamma + 1e-12;

  // Parallel best-split search: every candidate feature scans its own
  // sorted copy independently, then a serial reduction in candidate order
  // picks the winner. Ties resolve to the earliest (feature, position)
  // candidate via the strict `>` in both passes — exactly the serial scan's
  // outcome — so the fitted tree is thread-count-invariant.
  const std::vector<SplitResult> candidates =
      common::parallel_map<SplitResult>(features.size(), [&](std::size_t fi) {
        const std::size_t feature = features[fi];
        SplitResult local;
        local.gain = gain_floor;
        std::vector<std::pair<double, std::size_t>> sorted;
        sorted.reserve(indices.size());
        for (std::size_t i : indices) sorted.emplace_back(x.at(i, feature), i);
        std::sort(sorted.begin(), sorted.end());

        double gl = 0.0, hl = 0.0;
        for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
          const std::size_t i = sorted[k].second;
          gl += grad[i];
          hl += hess[i];
          if (sorted[k].first == sorted[k + 1].first) continue;
          const double hr = h_sum - hl;
          if (hl < config_.min_child_weight || hr < config_.min_child_weight) {
            continue;
          }
          const double gr = g_sum - gl;
          const double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                     gr * gr / (hr + config_.lambda) -
                                     parent_score) -
                              config_.gamma;
          if (gain > local.gain) {
            local.gain = gain;
            local.feature = static_cast<int>(feature);
            local.threshold = 0.5 * (sorted[k].first + sorted[k + 1].first);
          }
        }
        return local;
      });

  SplitResult best;
  best.gain = gain_floor;
  for (const SplitResult& candidate : candidates) {
    if (candidate.feature >= 0 && candidate.gain > best.gain) best = candidate;
  }

  if (best.feature < 0) return node_id;

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    (x.at(i, static_cast<std::size_t>(best.feature)) <= best.threshold
         ? left_idx
         : right_idx)
        .push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;

  tree[static_cast<std::size_t>(node_id)].feature = best.feature;
  tree[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  indices.clear();
  indices.shrink_to_fit();
  const int left =
      build_tree(x, grad, hess, left_idx, features, depth + 1, tree);
  tree[static_cast<std::size_t>(node_id)].left = left;
  const int right =
      build_tree(x, grad, hess, right_idx, features, depth + 1, tree);
  tree[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

void GradientBoostingClassifier::fit(const Matrix& x,
                                     const std::vector<int>& y) {
  if (x.rows() != y.size()) throw InvalidArgument("XGBoost::fit size mismatch");
  if (x.rows() == 0) throw InvalidArgument("XGBoost::fit on empty data");
  trees_.clear();
  common::Rng rng(config_.seed);

  // Base score = log-odds of the positive rate.
  double pos = 0.0;
  for (int label : y) pos += label != 0 ? 1.0 : 0.0;
  const double rate =
      std::clamp(pos / static_cast<double>(y.size()), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(rate / (1.0 - rate));

  std::vector<double> scores(y.size(), base_score_);
  std::vector<double> grad(y.size()), hess(y.size());

  for (int round = 0; round < config_.n_rounds; ++round) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      const auto gh = gbdt::logistic_grad_hess(scores[i], y[i]);
      grad[i] = gh.grad;
      hess[i] = gh.hess;
    }

    // Row subsample.
    std::vector<std::size_t> indices;
    indices.reserve(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (config_.subsample >= 1.0 || rng.bernoulli(config_.subsample)) {
        indices.push_back(i);
      }
    }
    if (indices.size() < 2) continue;

    // Column subsample.
    std::vector<std::size_t> features(x.cols());
    for (std::size_t f = 0; f < x.cols(); ++f) features[f] = f;
    if (config_.colsample < 1.0) {
      rng.shuffle(features);
      const std::size_t keep = std::max<std::size_t>(
          1, static_cast<std::size_t>(config_.colsample *
                                      static_cast<double>(x.cols())));
      features.resize(keep);
    }

    std::vector<TreeNode> tree;
    build_tree(x, grad, hess, indices, features, 0, tree);

    // Shrink leaf weights by the learning rate, then update scores.
    for (TreeNode& node : tree) node.value *= config_.learning_rate;
    for (std::size_t i = 0; i < y.size(); ++i) {
      int node = 0;
      const auto row = x.row(i);
      while (!tree[static_cast<std::size_t>(node)].is_leaf()) {
        const TreeNode& n = tree[static_cast<std::size_t>(node)];
        node = row[static_cast<std::size_t>(n.feature)] <= n.threshold
                   ? n.left
                   : n.right;
      }
      scores[i] += tree[static_cast<std::size_t>(node)].value;
    }
    trees_.push_back(std::move(tree));
  }
  flat_ = FlatTreeEnsemble::from_boosted(trees_, base_score_);
}

double GradientBoostingClassifier::raw_score(
    std::span<const double> row) const {
  if (trees_.empty()) throw StateError("XGBoost::predict before fit");
  double score = base_score_;
  for (const auto& tree : trees_) {
    int node = 0;
    while (!tree[static_cast<std::size_t>(node)].is_leaf()) {
      const TreeNode& n = tree[static_cast<std::size_t>(node)];
      node = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                     : n.right;
    }
    score += tree[static_cast<std::size_t>(node)].value;
  }
  return score;
}

std::vector<double> GradientBoostingClassifier::predict_proba(
    const Matrix& x) const {
  if (trees_.empty()) throw StateError("XGBoost::predict before fit");
  return flat_.predict_proba(x);
}

std::vector<double> GradientBoostingClassifier::predict_proba_nodewalk(
    const Matrix& x) const {
  // flat_.n_features() is one past the highest split feature.
  require_columns(x, flat_.n_features(), "XGBoost::predict_proba_nodewalk");
  std::vector<double> out(x.rows());
  common::parallel_for_chunks(
      x.rows(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          out[r] = gbdt::sigmoid(raw_score(x.row(r)));
        }
      });
  return out;
}

}  // namespace phishinghook::ml
