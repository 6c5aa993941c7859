#include "ml/lightgbm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.hpp"

namespace phishinghook::ml {

namespace {

/// Best split one feature offers for one leaf (per-feature scan result of
/// the parallel split search).
struct FeatureSplit {
  int feature = -1;
  int bin = -1;
  double gain = 0.0;
  double threshold = 0.0;
};

struct LeafCandidate {
  int node_id = -1;                  // index into the growing tree
  std::vector<std::size_t> indices;  // samples in this leaf
  // Best split found for this leaf (feature/bin/gain).
  int feature = -1;
  int bin = -1;
  double gain = 0.0;
  double threshold = 0.0;
};

}  // namespace

LightGbmClassifier::LightGbmClassifier(LightGbmConfig config)
    : config_(config) {}

void LightGbmClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) throw InvalidArgument("LightGBM::fit size mismatch");
  if (x.rows() == 0) throw InvalidArgument("LightGBM::fit on empty data");
  trees_.clear();

  gbdt::FeatureBinner binner;
  binner.fit(x, config_.max_bins);
  const std::vector<std::uint8_t> binned = binner.transform(x);
  const std::size_t d = x.cols();

  double pos = 0.0;
  for (int label : y) pos += label != 0 ? 1.0 : 0.0;
  const double rate =
      std::clamp(pos / static_cast<double>(y.size()), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(rate / (1.0 - rate));

  std::vector<double> scores(y.size(), base_score_);
  std::vector<double> grad(y.size()), hess(y.size());

  auto find_best_split = [&](LeafCandidate& leaf) {
    leaf.feature = -1;
    leaf.gain = config_.min_gain;
    double g_sum = 0.0, h_sum = 0.0;
    for (std::size_t i : leaf.indices) {
      g_sum += grad[i];
      h_sum += hess[i];
    }
    const double parent_score = g_sum * g_sum / (h_sum + config_.lambda);

    // Parallel over features: each feature builds its own histogram and
    // reports its best (gain, bin); the serial index-ordered reduction below
    // reproduces the serial scan's earliest-feature tie-breaking.
    const std::vector<FeatureSplit> candidates =
        common::parallel_map<FeatureSplit>(d, [&](std::size_t f) {
          FeatureSplit local;
          local.gain = config_.min_gain;
          const int bins = binner.bins(f);
          if (bins < 2) return local;
          std::vector<double> hist_g(static_cast<std::size_t>(bins), 0.0);
          std::vector<double> hist_h(static_cast<std::size_t>(bins), 0.0);
          for (std::size_t i : leaf.indices) {
            const std::uint8_t b = binned[i * d + f];
            hist_g[b] += grad[i];
            hist_h[b] += hess[i];
          }
          double gl = 0.0, hl = 0.0;
          for (int b = 0; b + 1 < bins; ++b) {
            gl += hist_g[static_cast<std::size_t>(b)];
            hl += hist_h[static_cast<std::size_t>(b)];
            const double hr = h_sum - hl;
            if (hl < config_.min_child_weight ||
                hr < config_.min_child_weight) {
              continue;
            }
            const double gr = g_sum - gl;
            const double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                       gr * gr / (hr + config_.lambda) -
                                       parent_score);
            if (gain > local.gain) {
              local.gain = gain;
              local.feature = static_cast<int>(f);
              local.bin = b;
              // bin b holds values strictly below cut(f, b); nudge the
              // stored threshold down so the raw-value predicate (<=)
              // matches the bin boundary exactly.
              local.threshold = std::nextafter(
                  binner.cut(f, b), -std::numeric_limits<double>::infinity());
            }
          }
          return local;
        });

    for (const FeatureSplit& candidate : candidates) {
      if (candidate.feature >= 0 && candidate.gain > leaf.gain) {
        leaf.gain = candidate.gain;
        leaf.feature = candidate.feature;
        leaf.bin = candidate.bin;
        leaf.threshold = candidate.threshold;
      }
    }
  };

  for (int round = 0; round < config_.n_rounds; ++round) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      const auto gh = gbdt::logistic_grad_hess(scores[i], y[i]);
      grad[i] = gh.grad;
      hess[i] = gh.hess;
    }

    std::vector<TreeNode> tree;
    std::vector<LeafCandidate> leaves;

    // Root.
    {
      LeafCandidate root;
      root.node_id = 0;
      root.indices.resize(y.size());
      for (std::size_t i = 0; i < y.size(); ++i) root.indices[i] = i;
      tree.push_back(TreeNode{});
      find_best_split(root);
      leaves.push_back(std::move(root));
    }

    // Leaf-wise growth: always split the leaf with the largest gain.
    int leaf_count = 1;
    while (leaf_count < config_.num_leaves) {
      int best = -1;
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        if (leaves[l].feature >= 0 &&
            (best < 0 || leaves[l].gain > leaves[static_cast<std::size_t>(best)].gain)) {
          best = static_cast<int>(l);
        }
      }
      if (best < 0) break;  // nothing splittable left

      LeafCandidate chosen = std::move(leaves[static_cast<std::size_t>(best)]);
      leaves.erase(leaves.begin() + best);

      LeafCandidate left, right;
      left.node_id = static_cast<int>(tree.size());
      tree.push_back(TreeNode{});
      right.node_id = static_cast<int>(tree.size());
      tree.push_back(TreeNode{});
      for (std::size_t i : chosen.indices) {
        const std::uint8_t b =
            binned[i * d + static_cast<std::size_t>(chosen.feature)];
        (b <= chosen.bin ? left : right).indices.push_back(i);
      }
      TreeNode& parent = tree[static_cast<std::size_t>(chosen.node_id)];
      parent.feature = chosen.feature;
      parent.threshold = chosen.threshold;
      parent.left = left.node_id;
      parent.right = right.node_id;

      find_best_split(left);
      find_best_split(right);
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
      ++leaf_count;
    }

    // Leaf values with shrinkage; update train scores.
    for (LeafCandidate& leaf : leaves) {
      double g_sum = 0.0, h_sum = 0.0;
      for (std::size_t i : leaf.indices) {
        g_sum += grad[i];
        h_sum += hess[i];
      }
      const double value =
          -config_.learning_rate * g_sum / (h_sum + config_.lambda);
      tree[static_cast<std::size_t>(leaf.node_id)].value = value;
      tree[static_cast<std::size_t>(leaf.node_id)].weight = h_sum;
      for (std::size_t i : leaf.indices) scores[i] += value;
    }
    trees_.push_back(std::move(tree));
  }
  flat_ = FlatTreeEnsemble::from_boosted(trees_, base_score_);
}

double LightGbmClassifier::raw_score(std::span<const double> row) const {
  if (trees_.empty()) throw StateError("LightGBM::predict before fit");
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

std::vector<double> LightGbmClassifier::predict_proba(const Matrix& x) const {
  if (trees_.empty()) throw StateError("LightGBM::predict before fit");
  return flat_.predict_proba(x);
}

std::vector<double> LightGbmClassifier::predict_proba_nodewalk(
    const Matrix& x) const {
  // flat_.n_features() is one past the highest split feature.
  require_columns(x, flat_.n_features(), "LightGBM::predict_proba_nodewalk");
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
