#include "ml/shap.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.hpp"

namespace phishinghook::ml {

namespace {

/// One element of the TreeSHAP feature path.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;
  double one_fraction = 0.0;
  double pweight = 0.0;
};

void extend(std::vector<PathElement>& path, double pz, double po, int pi) {
  const int l = static_cast<int>(path.size());
  path.push_back(PathElement{pi, pz, po, l == 0 ? 1.0 : 0.0});
  for (int i = l - 1; i >= 0; --i) {
    path[static_cast<std::size_t>(i + 1)].pweight +=
        po * path[static_cast<std::size_t>(i)].pweight *
        static_cast<double>(i + 1) / static_cast<double>(l + 1);
    path[static_cast<std::size_t>(i)].pweight =
        pz * path[static_cast<std::size_t>(i)].pweight *
        static_cast<double>(l - i) / static_cast<double>(l + 1);
  }
}

/// Removes element `i` from the path, undoing its extend contribution.
std::vector<PathElement> unwound(const std::vector<PathElement>& path, int i) {
  std::vector<PathElement> out = path;
  const int l = static_cast<int>(path.size()) - 1;
  const double one = path[static_cast<std::size_t>(i)].one_fraction;
  const double zero = path[static_cast<std::size_t>(i)].zero_fraction;
  double n = path[static_cast<std::size_t>(l)].pweight;
  for (int j = l - 1; j >= 0; --j) {
    if (one != 0.0) {
      const double t = out[static_cast<std::size_t>(j)].pweight;
      out[static_cast<std::size_t>(j)].pweight =
          n * static_cast<double>(l + 1) /
          (static_cast<double>(j + 1) * one);
      n = t - out[static_cast<std::size_t>(j)].pweight * zero *
                  static_cast<double>(l - j) / static_cast<double>(l + 1);
    } else {
      out[static_cast<std::size_t>(j)].pweight =
          out[static_cast<std::size_t>(j)].pweight *
          static_cast<double>(l + 1) / (zero * static_cast<double>(l - j));
    }
  }
  for (int j = i; j < l; ++j) {
    out[static_cast<std::size_t>(j)].feature_index =
        out[static_cast<std::size_t>(j + 1)].feature_index;
    out[static_cast<std::size_t>(j)].zero_fraction =
        out[static_cast<std::size_t>(j + 1)].zero_fraction;
    out[static_cast<std::size_t>(j)].one_fraction =
        out[static_cast<std::size_t>(j + 1)].one_fraction;
  }
  out.pop_back();
  return out;
}

/// Sum of path weights after unwinding element `i` (the per-feature factor
/// in the leaf contribution).
double unwound_sum(const std::vector<PathElement>& path, int i) {
  const int l = static_cast<int>(path.size()) - 1;
  const double one = path[static_cast<std::size_t>(i)].one_fraction;
  const double zero = path[static_cast<std::size_t>(i)].zero_fraction;
  double total = 0.0;
  double n = path[static_cast<std::size_t>(l)].pweight;
  for (int j = l - 1; j >= 0; --j) {
    if (one != 0.0) {
      const double t =
          n * static_cast<double>(l + 1) / (static_cast<double>(j + 1) * one);
      total += t;
      n = path[static_cast<std::size_t>(j)].pweight -
          t * zero * static_cast<double>(l - j) / static_cast<double>(l + 1);
    } else if (zero != 0.0) {
      total += path[static_cast<std::size_t>(j)].pweight *
               static_cast<double>(l + 1) /
               (zero * static_cast<double>(l - j));
    }
  }
  return total;
}

struct TreeShapContext {
  const std::vector<TreeNode>* nodes = nullptr;
  std::span<const double> x;
  std::vector<double>* phi = nullptr;
};

void recurse(const TreeShapContext& ctx, int node_id,
             std::vector<PathElement> path, double pz, double po, int pi) {
  const TreeNode& node = (*ctx.nodes)[static_cast<std::size_t>(node_id)];
  extend(path, pz, po, pi);

  if (node.is_leaf()) {
    for (int i = 1; i < static_cast<int>(path.size()); ++i) {
      const double w = unwound_sum(path, i);
      const PathElement& el = path[static_cast<std::size_t>(i)];
      (*ctx.phi)[static_cast<std::size_t>(el.feature_index)] +=
          w * (el.one_fraction - el.zero_fraction) * node.value;
    }
    return;
  }

  const TreeNode& left = (*ctx.nodes)[static_cast<std::size_t>(node.left)];
  const TreeNode& right = (*ctx.nodes)[static_cast<std::size_t>(node.right)];
  const bool go_left =
      ctx.x[static_cast<std::size_t>(node.feature)] <= node.threshold;
  const int hot = go_left ? node.left : node.right;
  const int cold = go_left ? node.right : node.left;
  const double hot_cover = go_left ? left.weight : right.weight;
  const double cold_cover = go_left ? right.weight : left.weight;
  const double cover = std::max(node.weight, 1e-12);

  double incoming_zero = 1.0;
  double incoming_one = 1.0;
  // If this feature already appears on the path, undo its element first.
  for (int i = 1; i < static_cast<int>(path.size()); ++i) {
    if (path[static_cast<std::size_t>(i)].feature_index == node.feature) {
      incoming_zero = path[static_cast<std::size_t>(i)].zero_fraction;
      incoming_one = path[static_cast<std::size_t>(i)].one_fraction;
      path = unwound(path, i);
      break;
    }
  }

  recurse(ctx, hot, path, incoming_zero * hot_cover / cover, incoming_one,
          node.feature);
  recurse(ctx, cold, path, incoming_zero * cold_cover / cover, 0.0,
          node.feature);
}

double expected_tree_value(const std::vector<TreeNode>& nodes, int node_id) {
  const TreeNode& node = nodes[static_cast<std::size_t>(node_id)];
  if (node.is_leaf()) return node.value;
  const TreeNode& left = nodes[static_cast<std::size_t>(node.left)];
  const TreeNode& right = nodes[static_cast<std::size_t>(node.right)];
  const double cover = std::max(node.weight, 1e-12);
  return (left.weight * expected_tree_value(nodes, node.left) +
          right.weight * expected_tree_value(nodes, node.right)) /
         cover;
}

}  // namespace

ShapExplanation tree_shap(const std::vector<TreeNode>& nodes,
                          std::span<const double> x, std::size_t n_features) {
  if (nodes.empty()) throw InvalidArgument("tree_shap on empty tree");
  // The walk reads x[feature] and writes values[feature] unchecked.
  const std::size_t width = std::min(x.size(), n_features);
  for (const TreeNode& node : nodes) {
    if (!node.is_leaf() && static_cast<std::size_t>(node.feature) >= width) {
      throw InvalidArgument("tree_shap: tree splits on feature " +
                            std::to_string(node.feature) + ", row has " +
                            std::to_string(width));
    }
  }
  ShapExplanation out;
  out.values.assign(n_features, 0.0);
  out.expected_value = expected_tree_value(nodes, 0);
  TreeShapContext ctx{&nodes, x, &out.values};
  recurse(ctx, 0, {}, 1.0, 1.0, -1);
  return out;
}

ShapExplanation tree_shap(const RandomForestClassifier& forest,
                          std::span<const double> x) {
  const auto& trees = forest.trees();
  if (trees.empty()) throw StateError("tree_shap on unfitted forest");
  const std::size_t n_features = x.size();
  ShapExplanation out;
  out.values.assign(n_features, 0.0);
  for (const DecisionTreeClassifier& tree : trees) {
    const ShapExplanation one = tree_shap(tree.nodes(), x, n_features);
    for (std::size_t i = 0; i < n_features; ++i) out.values[i] += one.values[i];
    out.expected_value += one.expected_value;
  }
  const double inv = 1.0 / static_cast<double>(trees.size());
  for (double& v : out.values) v *= inv;
  out.expected_value *= inv;
  return out;
}

std::vector<ShapExplanation> tree_shap_all(const RandomForestClassifier& forest,
                                           const Matrix& x) {
  std::vector<ShapExplanation> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out.push_back(tree_shap(forest, x.row(r)));
  }
  return out;
}

ShapExplanation sampling_shap(
    const std::function<double(std::span<const double>)>& predict,
    std::span<const double> x, const Matrix& background, int permutations,
    std::uint64_t seed) {
  if (background.rows() == 0) {
    throw InvalidArgument("sampling_shap requires a background dataset");
  }
  const std::size_t d = x.size();
  common::Rng rng(seed);
  ShapExplanation out;
  out.values.assign(d, 0.0);

  // E[f] over the background.
  for (std::size_t r = 0; r < background.rows(); ++r) {
    out.expected_value += predict(background.row(r));
  }
  out.expected_value /= static_cast<double>(background.rows());

  std::vector<double> current(d);
  for (int p = 0; p < permutations; ++p) {
    const auto order = common::random_permutation(d, rng);
    const std::size_t bg = rng.next_below(background.rows());
    const auto bg_row = background.row(bg);
    for (std::size_t i = 0; i < d; ++i) current[i] = bg_row[i];
    double previous = predict(current);
    for (std::size_t feature : order) {
      current[feature] = x[feature];
      const double with_feature = predict(current);
      out.values[feature] += with_feature - previous;
      previous = with_feature;
    }
  }
  for (double& v : out.values) v /= static_cast<double>(permutations);
  return out;
}

}  // namespace phishinghook::ml
