#include "ml/catboost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace phishinghook::ml {

namespace {

/// Best (bin, score) one feature offers for one oblivious level.
struct LevelSplit {
  int feature = -1;
  int bin = -1;
  double score = -std::numeric_limits<double>::infinity();
};

}  // namespace

CatBoostClassifier::CatBoostClassifier(CatBoostConfig config)
    : config_(config) {}

void CatBoostClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) throw InvalidArgument("CatBoost::fit size mismatch");
  if (x.rows() == 0) throw InvalidArgument("CatBoost::fit on empty data");
  trees_.clear();
  common::Rng rng(config_.seed);

  gbdt::FeatureBinner binner;
  binner.fit(x, config_.max_bins);
  const std::vector<std::uint8_t> binned = binner.transform(x);
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  double pos = 0.0;
  for (int label : y) pos += label != 0 ? 1.0 : 0.0;
  const double rate =
      std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(rate / (1.0 - rate));

  std::vector<double> scores(n, base_score_);
  std::vector<double> grad(n), hess(n), bag(n, 1.0);
  std::vector<std::uint32_t> leaf_of(n);

  for (int round = 0; round < config_.n_rounds; ++round) {
    // Bayesian bootstrap (CatBoost's bagging temperature): weight ~
    // (-log U)^T.
    for (std::size_t i = 0; i < n; ++i) {
      if (config_.bagging_temperature > 0.0) {
        double u = rng.next_double();
        while (u <= 0.0) u = rng.next_double();
        bag[i] = std::pow(-std::log(u), config_.bagging_temperature);
      }
      const auto gh = gbdt::logistic_grad_hess(scores[i], y[i]);
      grad[i] = gh.grad * bag[i];
      hess[i] = gh.hess * bag[i];
    }

    ObliviousTree tree;
    std::fill(leaf_of.begin(), leaf_of.end(), 0u);
    std::size_t leaf_count = 1;

    for (int level = 0; level < config_.depth; ++level) {
      // Choose the single (feature, bin) test maximizing the summed split
      // score over all current leaves.
      //
      // Per-leaf totals (serial; shared read-only by the feature scans).
      std::vector<double> leaf_g(leaf_count, 0.0), leaf_h(leaf_count, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        leaf_g[leaf_of[i]] += grad[i];
        leaf_h[leaf_of[i]] += hess[i];
      }

      // Parallel over features: each builds a private (leaf, bin) histogram
      // and reports its best bin; the index-ordered reduction below keeps
      // the serial scan's earliest-feature tie-breaking, so the chosen
      // split is thread-count-invariant.
      const std::vector<LevelSplit> candidates =
          common::parallel_map<LevelSplit>(d, [&](std::size_t f) {
            LevelSplit local;
            const int bins = binner.bins(f);
            if (bins < 2) return local;
            std::vector<double> hist_g(
                leaf_count * static_cast<std::size_t>(bins), 0.0);
            std::vector<double> hist_h(
                leaf_count * static_cast<std::size_t>(bins), 0.0);
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t slot =
                  leaf_of[i] * static_cast<std::size_t>(bins) +
                  binned[i * d + f];
              hist_g[slot] += grad[i];
              hist_h[slot] += hess[i];
            }
            // Candidate bins: evaluate cumulative split at each boundary.
            for (int b = 0; b + 1 < bins; ++b) {
              double score = 0.0;
              bool valid = false;
              for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
                double gl = 0.0, hl = 0.0;
                for (int bb = 0; bb <= b; ++bb) {
                  const std::size_t slot =
                      leaf * static_cast<std::size_t>(bins) +
                      static_cast<std::size_t>(bb);
                  gl += hist_g[slot];
                  hl += hist_h[slot];
                }
                const double gr = leaf_g[leaf] - gl;
                const double hr = leaf_h[leaf] - hl;
                score += gl * gl / (hl + config_.lambda) +
                         gr * gr / (hr + config_.lambda);
                if (hl > 0.0 && hr > 0.0) valid = true;
              }
              if (valid && score > local.score) {
                local.score = score;
                local.feature = static_cast<int>(f);
                local.bin = b;
              }
            }
            return local;
          });

      int best_feature = -1;
      int best_bin = -1;
      double best_score = -std::numeric_limits<double>::infinity();
      for (const LevelSplit& candidate : candidates) {
        if (candidate.feature >= 0 && candidate.score > best_score) {
          best_score = candidate.score;
          best_feature = candidate.feature;
          best_bin = candidate.bin;
        }
      }

      if (best_feature < 0) break;
      const double threshold = std::nextafter(
          binner.cut(static_cast<std::size_t>(best_feature), best_bin),
          -std::numeric_limits<double>::infinity());
      tree.features.push_back(best_feature);
      tree.thresholds.push_back(threshold);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t bit =
            binned[i * d + static_cast<std::size_t>(best_feature)] >
                    static_cast<std::uint8_t>(best_bin)
                ? 1u
                : 0u;
        leaf_of[i] = (leaf_of[i] << 1) | bit;
      }
      leaf_count <<= 1;
    }

    // Leaf values.
    tree.leaf_values.assign(leaf_count, 0.0);
    std::vector<double> leaf_g(leaf_count, 0.0), leaf_h(leaf_count, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      leaf_g[leaf_of[i]] += grad[i];
      leaf_h[leaf_of[i]] += hess[i];
    }
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
      tree.leaf_values[leaf] =
          -config_.learning_rate * leaf_g[leaf] / (leaf_h[leaf] + config_.lambda);
    }
    for (std::size_t i = 0; i < n; ++i) {
      scores[i] += tree.leaf_values[leaf_of[i]];
    }
    trees_.push_back(std::move(tree));
  }
  flat_ = FlatTreeEnsemble::from_oblivious(trees_, base_score_);
}

double CatBoostClassifier::raw_score(std::span<const double> row) const {
  if (trees_.empty()) throw StateError("CatBoost::predict before fit");
  double score = base_score_;
  for (const ObliviousTree& tree : trees_) {
    std::uint32_t leaf = 0;
    for (std::size_t level = 0; level < tree.features.size(); ++level) {
      const std::uint32_t bit =
          row[static_cast<std::size_t>(tree.features[level])] >
                  tree.thresholds[level]
              ? 1u
              : 0u;
      leaf = (leaf << 1) | bit;
    }
    score += tree.leaf_values[leaf];
  }
  return score;
}

std::vector<double> CatBoostClassifier::predict_proba(const Matrix& x) const {
  if (trees_.empty()) throw StateError("CatBoost::predict before fit");
  return flat_.predict_proba(x);
}

std::vector<double> CatBoostClassifier::predict_proba_nodewalk(
    const Matrix& x) const {
  // flat_.n_features() is one past the highest split feature.
  require_columns(x, flat_.n_features(), "CatBoost::predict_proba_nodewalk");
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
