// Classifier persistence: the save()/load() hooks declared across the
// tabular-model headers, gathered in one translation unit.
//
// Wire format: every classifier record is a tag string followed by an
// untagged payload. `TabularClassifier::load` reads the tag and dispatches
// to the matching `load_from`. Doubles travel as raw IEEE-754 bits, so a
// loaded model reproduces the in-memory model's predict_proba
// bit-identically — the guarantee the serving artifact relies on.
#include <istream>
#include <ostream>

#include "common/binary_io.hpp"
#include "ml/catboost.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/lightgbm.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"

namespace phishinghook::ml {

namespace {

constexpr const char* kTreeTag = "phook.dtree.v1";
constexpr const char* kForestTag = "phook.rf.v1";
constexpr const char* kLogRegTag = "phook.logreg.v1";
constexpr const char* kXgbTag = "phook.xgb.v1";
constexpr const char* kLgbmTag = "phook.lgbm.v1";
constexpr const char* kCatBoostTag = "phook.catboost.v1";

// Caps for corrupt length prefixes and feature ids: far above any model
// this repo trains, far below an accidental multi-gigabyte allocation.
constexpr std::uint64_t kMaxNodes = 1u << 26;
constexpr std::uint64_t kMaxTrees = 1u << 16;
constexpr int kMaxFeature = 1 << 20;

using common::read_double;
using common::read_doubles;
using common::read_i32;
using common::read_string;
using common::read_u64;
using common::write_double;
using common::write_doubles;
using common::write_i32;
using common::write_string;
using common::write_u64;

// Boosted-tree node vectors share the decision tree's node layout.
void write_tree_nodes(std::ostream& out, const std::vector<TreeNode>& tree) {
  write_u64(out, tree.size());
  for (const TreeNode& node : tree) {
    write_i32(out, node.feature);
    write_double(out, node.threshold);
    write_i32(out, node.left);
    write_i32(out, node.right);
    write_double(out, node.value);
    write_double(out, node.weight);
  }
}

/// Every load ends in a FlatTreeEnsemble compile that indexes nodes with
/// no bound check, so a tree is checked before anything walks it: at least
/// one node, every node reached exactly once from the root (which rules
/// out out-of-range children, shared subtrees and cycles), and every split
/// feature below `n_features` — the model's stored feature count, or the
/// loader's cap for models that store none.
void check_tree(const std::vector<TreeNode>& tree, std::uint64_t n_features) {
  if (tree.empty()) throw ParseError("tree has no nodes");
  std::vector<bool> seen(tree.size(), false);
  std::vector<int> stack = {0};
  std::size_t reached = 0;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    if (node < 0 || static_cast<std::size_t>(node) >= tree.size()) {
      throw ParseError("tree child index out of range");
    }
    if (seen[static_cast<std::size_t>(node)]) {
      throw ParseError("tree node reached twice");
    }
    seen[static_cast<std::size_t>(node)] = true;
    ++reached;
    const TreeNode& n = tree[static_cast<std::size_t>(node)];
    if (n.is_leaf()) continue;  // feature < 0 marks a leaf
    if (static_cast<std::uint64_t>(n.feature) >= n_features) {
      throw ParseError("tree feature index out of range");
    }
    stack.push_back(n.left);
    stack.push_back(n.right);
  }
  if (reached != tree.size()) throw ParseError("tree has unreachable nodes");
}

std::vector<TreeNode> read_tree_nodes(std::istream& in) {
  const std::uint64_t n_nodes = read_u64(in);
  if (n_nodes > kMaxNodes) throw ParseError("tree node count out of range");
  std::vector<TreeNode> tree(n_nodes);
  for (TreeNode& node : tree) {
    node.feature = read_i32(in);
    node.threshold = read_double(in);
    node.left = read_i32(in);
    node.right = read_i32(in);
    node.value = read_double(in);
    node.weight = read_double(in);
  }
  check_tree(tree, static_cast<std::uint64_t>(kMaxFeature) + 1);
  return tree;
}

/// A stored feature count, capped like the feature ids it bounds.
std::uint64_t read_n_features(std::istream& in) {
  const std::uint64_t n_features = read_u64(in);
  if (n_features > static_cast<std::uint64_t>(kMaxFeature) + 1) {
    throw ParseError("feature count out of range");
  }
  return n_features;
}

}  // namespace

void TabularClassifier::save(std::ostream&) const {
  throw StateError(name() + ": persistence not supported");
}

std::unique_ptr<TabularClassifier> TabularClassifier::load(std::istream& in) {
  const std::string tag = read_string(in, 64);
  if (tag == kTreeTag) {
    return std::make_unique<DecisionTreeClassifier>(
        DecisionTreeClassifier::load_payload(in));
  }
  if (tag == kForestTag || tag == kLogRegTag || tag == kXgbTag ||
      tag == kLgbmTag || tag == kCatBoostTag) {
    // load_from re-reads the tag itself, so rewind over it: tag string =
    // u64 length + bytes.
    in.seekg(-static_cast<std::streamoff>(8 + tag.size()), std::ios::cur);
    if (tag == kForestTag) {
      return std::make_unique<RandomForestClassifier>(
          RandomForestClassifier::load_from(in));
    }
    if (tag == kXgbTag) {
      return std::make_unique<GradientBoostingClassifier>(
          GradientBoostingClassifier::load_from(in));
    }
    if (tag == kLgbmTag) {
      return std::make_unique<LightGbmClassifier>(
          LightGbmClassifier::load_from(in));
    }
    if (tag == kCatBoostTag) {
      return std::make_unique<CatBoostClassifier>(
          CatBoostClassifier::load_from(in));
    }
    return std::make_unique<LogisticRegressionClassifier>(
        LogisticRegressionClassifier::load_from(in));
  }
  throw ParseError("unknown classifier tag '" + tag + "'");
}

// --- DecisionTreeClassifier ---------------------------------------------------

void DecisionTreeClassifier::save_payload(std::ostream& out) const {
  write_i32(out, config_.max_depth);
  write_u64(out, config_.min_samples_leaf);
  write_u64(out, config_.min_samples_split);
  write_u64(out, config_.max_features);
  write_u64(out, config_.seed);
  write_u64(out, n_features_);
  write_u64(out, nodes_.size());
  for (const TreeNode& node : nodes_) {
    write_i32(out, node.feature);
    write_double(out, node.threshold);
    write_i32(out, node.left);
    write_i32(out, node.right);
    write_double(out, node.value);
    write_double(out, node.weight);
  }
  write_doubles(out, importances_);
}

DecisionTreeClassifier DecisionTreeClassifier::load_payload(std::istream& in) {
  DecisionTreeConfig config;
  config.max_depth = read_i32(in);
  config.min_samples_leaf = read_u64(in);
  config.min_samples_split = read_u64(in);
  config.max_features = read_u64(in);
  config.seed = read_u64(in);
  DecisionTreeClassifier tree(config);
  tree.n_features_ = read_n_features(in);
  const std::uint64_t n_nodes = read_u64(in);
  if (n_nodes > kMaxNodes) throw ParseError("tree node count out of range");
  tree.nodes_.resize(n_nodes);
  for (TreeNode& node : tree.nodes_) {
    node.feature = read_i32(in);
    node.threshold = read_double(in);
    node.left = read_i32(in);
    node.right = read_i32(in);
    node.value = read_double(in);
    node.weight = read_double(in);
  }
  check_tree(tree.nodes_, tree.n_features_);
  tree.importances_ = read_doubles(in);
  if (tree.importances_.size() != tree.n_features_) {
    throw ParseError("tree importance count does not match feature count");
  }
  return tree;
}

void DecisionTreeClassifier::save(std::ostream& out) const {
  write_string(out, kTreeTag);
  save_payload(out);
}

DecisionTreeClassifier DecisionTreeClassifier::load_from(std::istream& in) {
  if (read_string(in, 64) != kTreeTag) {
    throw ParseError("not a decision-tree record");
  }
  return load_payload(in);
}

// --- RandomForestClassifier ---------------------------------------------------

void RandomForestClassifier::save(std::ostream& out) const {
  if (trees_.empty()) throw StateError("RandomForest::save before fit");
  write_string(out, kForestTag);
  write_i32(out, config_.n_trees);
  write_i32(out, config_.max_depth);
  write_u64(out, config_.min_samples_leaf);
  write_u64(out, config_.max_features);
  write_u64(out, config_.seed);
  write_u64(out, n_features_);
  write_u64(out, trees_.size());
  for (const DecisionTreeClassifier& tree : trees_) {
    tree.save_payload(out);
  }
}

RandomForestClassifier RandomForestClassifier::load_from(std::istream& in) {
  if (read_string(in, 64) != kForestTag) {
    throw ParseError("not a random-forest record");
  }
  RandomForestConfig config;
  config.n_trees = read_i32(in);
  config.max_depth = read_i32(in);
  config.min_samples_leaf = read_u64(in);
  config.max_features = read_u64(in);
  config.seed = read_u64(in);
  RandomForestClassifier forest(config);
  forest.n_features_ = read_n_features(in);
  const std::uint64_t n_trees = read_u64(in);
  if (n_trees > kMaxTrees) throw ParseError("forest tree count out of range");
  forest.trees_.reserve(n_trees);
  for (std::uint64_t t = 0; t < n_trees; ++t) {
    forest.trees_.push_back(DecisionTreeClassifier::load_payload(in));
    if (forest.trees_.back().n_features() != forest.n_features_) {
      throw ParseError("forest tree feature count does not match forest");
    }
  }
  forest.flat_ = FlatTreeEnsemble::from_forest(forest.trees_);
  return forest;
}

// --- GradientBoostingClassifier -----------------------------------------------

void GradientBoostingClassifier::save(std::ostream& out) const {
  if (trees_.empty()) throw StateError("XGBoost::save before fit");
  write_string(out, kXgbTag);
  write_i32(out, config_.n_rounds);
  write_i32(out, config_.max_depth);
  write_double(out, config_.learning_rate);
  write_double(out, config_.lambda);
  write_double(out, config_.gamma);
  write_double(out, config_.min_child_weight);
  write_double(out, config_.subsample);
  write_double(out, config_.colsample);
  write_u64(out, config_.seed);
  write_double(out, base_score_);
  write_u64(out, trees_.size());
  for (const std::vector<TreeNode>& tree : trees_) write_tree_nodes(out, tree);
}

GradientBoostingClassifier GradientBoostingClassifier::load_from(
    std::istream& in) {
  if (read_string(in, 64) != kXgbTag) {
    throw ParseError("not an xgboost record");
  }
  GradientBoostingConfig config;
  config.n_rounds = read_i32(in);
  config.max_depth = read_i32(in);
  config.learning_rate = read_double(in);
  config.lambda = read_double(in);
  config.gamma = read_double(in);
  config.min_child_weight = read_double(in);
  config.subsample = read_double(in);
  config.colsample = read_double(in);
  config.seed = read_u64(in);
  GradientBoostingClassifier model(config);
  model.base_score_ = read_double(in);
  const std::uint64_t n_trees = read_u64(in);
  if (n_trees > kMaxTrees) throw ParseError("xgboost tree count out of range");
  model.trees_.reserve(n_trees);
  for (std::uint64_t t = 0; t < n_trees; ++t) {
    model.trees_.push_back(read_tree_nodes(in));
  }
  model.flat_ = FlatTreeEnsemble::from_boosted(model.trees_, model.base_score_);
  return model;
}

// --- LightGbmClassifier -------------------------------------------------------

void LightGbmClassifier::save(std::ostream& out) const {
  if (trees_.empty()) throw StateError("LightGBM::save before fit");
  write_string(out, kLgbmTag);
  write_i32(out, config_.n_rounds);
  write_i32(out, config_.num_leaves);
  write_i32(out, config_.max_bins);
  write_double(out, config_.learning_rate);
  write_double(out, config_.lambda);
  write_double(out, config_.min_child_weight);
  write_double(out, config_.min_gain);
  write_u64(out, config_.seed);
  write_double(out, base_score_);
  write_u64(out, trees_.size());
  for (const std::vector<TreeNode>& tree : trees_) write_tree_nodes(out, tree);
}

LightGbmClassifier LightGbmClassifier::load_from(std::istream& in) {
  if (read_string(in, 64) != kLgbmTag) {
    throw ParseError("not a lightgbm record");
  }
  LightGbmConfig config;
  config.n_rounds = read_i32(in);
  config.num_leaves = read_i32(in);
  config.max_bins = read_i32(in);
  config.learning_rate = read_double(in);
  config.lambda = read_double(in);
  config.min_child_weight = read_double(in);
  config.min_gain = read_double(in);
  config.seed = read_u64(in);
  LightGbmClassifier model(config);
  model.base_score_ = read_double(in);
  const std::uint64_t n_trees = read_u64(in);
  if (n_trees > kMaxTrees) throw ParseError("lightgbm tree count out of range");
  model.trees_.reserve(n_trees);
  for (std::uint64_t t = 0; t < n_trees; ++t) {
    model.trees_.push_back(read_tree_nodes(in));
  }
  model.flat_ = FlatTreeEnsemble::from_boosted(model.trees_, model.base_score_);
  return model;
}

// --- CatBoostClassifier -------------------------------------------------------

void CatBoostClassifier::save(std::ostream& out) const {
  if (trees_.empty()) throw StateError("CatBoost::save before fit");
  write_string(out, kCatBoostTag);
  write_i32(out, config_.n_rounds);
  write_i32(out, config_.depth);
  write_i32(out, config_.max_bins);
  write_double(out, config_.learning_rate);
  write_double(out, config_.lambda);
  write_double(out, config_.bagging_temperature);
  write_u64(out, config_.seed);
  write_double(out, base_score_);
  write_u64(out, trees_.size());
  for (const ObliviousTree& tree : trees_) {
    write_u64(out, tree.features.size());
    for (int f : tree.features) write_i32(out, f);
    write_doubles(out, tree.thresholds);
    write_doubles(out, tree.leaf_values);
  }
}

CatBoostClassifier CatBoostClassifier::load_from(std::istream& in) {
  if (read_string(in, 64) != kCatBoostTag) {
    throw ParseError("not a catboost record");
  }
  CatBoostConfig config;
  config.n_rounds = read_i32(in);
  config.depth = read_i32(in);
  config.max_bins = read_i32(in);
  config.learning_rate = read_double(in);
  config.lambda = read_double(in);
  config.bagging_temperature = read_double(in);
  config.seed = read_u64(in);
  CatBoostClassifier model(config);
  model.base_score_ = read_double(in);
  const std::uint64_t n_trees = read_u64(in);
  if (n_trees > kMaxTrees) throw ParseError("catboost tree count out of range");
  model.trees_.reserve(n_trees);
  for (std::uint64_t t = 0; t < n_trees; ++t) {
    ObliviousTree tree;
    const std::uint64_t depth = read_u64(in);
    if (depth > 32) throw ParseError("catboost tree depth out of range");
    tree.features.reserve(depth);
    for (std::uint64_t level = 0; level < depth; ++level) {
      const int feature = read_i32(in);
      if (feature < 0 || feature > kMaxFeature) {
        throw ParseError("catboost level feature out of range");
      }
      tree.features.push_back(feature);
    }
    tree.thresholds = read_doubles(in);
    tree.leaf_values = read_doubles(in);
    if (tree.thresholds.size() != depth ||
        tree.leaf_values.size() != (std::size_t{1} << depth)) {
      throw ParseError("catboost tree shape mismatch");
    }
    model.trees_.push_back(std::move(tree));
  }
  model.flat_ =
      FlatTreeEnsemble::from_oblivious(model.trees_, model.base_score_);
  return model;
}

// --- LogisticRegressionClassifier ---------------------------------------------

void LogisticRegressionClassifier::save(std::ostream& out) const {
  if (weights_.empty()) throw StateError("LogisticRegression::save before fit");
  write_string(out, kLogRegTag);
  write_double(out, config_.learning_rate);
  write_double(out, config_.l2);
  write_i32(out, config_.epochs);
  write_u64(out, config_.seed);
  write_doubles(out, weights_);
  write_double(out, bias_);
  write_doubles(out, mean_);
  write_doubles(out, stddev_);
}

LogisticRegressionClassifier LogisticRegressionClassifier::load_from(
    std::istream& in) {
  if (read_string(in, 64) != kLogRegTag) {
    throw ParseError("not a logistic-regression record");
  }
  LogisticRegressionConfig config;
  config.learning_rate = read_double(in);
  config.l2 = read_double(in);
  config.epochs = read_i32(in);
  config.seed = read_u64(in);
  LogisticRegressionClassifier model(config);
  model.weights_ = read_doubles(in);
  model.bias_ = read_double(in);
  model.mean_ = read_doubles(in);
  model.stddev_ = read_doubles(in);
  return model;
}

}  // namespace phishinghook::ml
