// SHAP: local accuracy (sum phi + E[f] == f(x)) for exact TreeSHAP, and
// sanity of the sampling estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "ml/shap.hpp"

namespace phishinghook::ml {
namespace {

struct Blob {
  Matrix x;
  std::vector<int> y;
};

Blob make_blobs(std::size_t n_per_class, std::size_t d, double separation,
                std::uint64_t seed) {
  common::Rng rng(seed);
  Blob blob;
  blob.x = Matrix(2 * n_per_class, d);
  for (std::size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    blob.y.push_back(label);
    for (std::size_t c = 0; c < d; ++c) {
      blob.x.at(i, c) = rng.normal() + (label == 1 ? separation : 0.0);
    }
  }
  return blob;
}

TEST(TreeShap, LocalAccuracyOnSingleTree) {
  const Blob blob = make_blobs(50, 4, 2.0, 1);
  DecisionTreeConfig config;
  config.max_depth = 5;
  DecisionTreeClassifier tree(config);
  tree.fit(blob.x, blob.y);

  for (std::size_t r = 0; r < 10; ++r) {
    const auto row = blob.x.row(r);
    const ShapExplanation explanation = tree_shap(tree.nodes(), row, 4);
    double total = explanation.expected_value;
    for (double phi : explanation.values) total += phi;
    EXPECT_NEAR(total, tree.predict_row(row), 1e-9) << "row " << r;
  }
}

TEST(TreeShap, LocalAccuracyOnForest) {
  const Blob blob = make_blobs(60, 5, 2.0, 2);
  RandomForestConfig config;
  config.n_trees = 15;
  config.max_depth = 6;
  RandomForestClassifier forest(config);
  forest.fit(blob.x, blob.y);

  const auto probs = forest.predict_proba(blob.x);
  for (std::size_t r = 0; r < 8; ++r) {
    const ShapExplanation explanation = tree_shap(forest, blob.x.row(r));
    double total = explanation.expected_value;
    for (double phi : explanation.values) total += phi;
    EXPECT_NEAR(total, probs[r], 1e-9) << "row " << r;
  }
}

TEST(TreeShap, ExpectedValueIsTrainingMean) {
  // With bootstrap weights the forest's expected value tracks the positive
  // rate of the (balanced) training set.
  const Blob blob = make_blobs(60, 3, 2.0, 3);
  RandomForestConfig config;
  config.n_trees = 20;
  RandomForestClassifier forest(config);
  forest.fit(blob.x, blob.y);
  const ShapExplanation explanation = tree_shap(forest, blob.x.row(0));
  EXPECT_NEAR(explanation.expected_value, 0.5, 0.08);
}

TEST(TreeShap, InformativeFeatureDominates) {
  // Feature 1 carries all the signal; its |phi| must dominate.
  common::Rng rng(4);
  Matrix x(120, 3);
  std::vector<int> y;
  for (std::size_t i = 0; i < 120; ++i) {
    const int label = static_cast<int>(i % 2);
    y.push_back(label);
    x.at(i, 0) = rng.normal();
    x.at(i, 1) = rng.normal() + 5.0 * label;
    x.at(i, 2) = rng.normal();
  }
  RandomForestConfig config;
  config.n_trees = 20;
  RandomForestClassifier forest(config);
  forest.fit(x, y);

  double mass[3] = {0, 0, 0};
  for (std::size_t r = 0; r < 30; ++r) {
    const ShapExplanation explanation = tree_shap(forest, x.row(r));
    for (int c = 0; c < 3; ++c) {
      mass[c] += std::fabs(explanation.values[static_cast<std::size_t>(c)]);
    }
  }
  EXPECT_GT(mass[1], 5.0 * mass[0]);
  EXPECT_GT(mass[1], 5.0 * mass[2]);
}

TEST(TreeShap, AllRowsBatch) {
  const Blob blob = make_blobs(30, 3, 2.0, 5);
  RandomForestConfig config;
  config.n_trees = 10;
  RandomForestClassifier forest(config);
  forest.fit(blob.x, blob.y);
  const auto all = tree_shap_all(forest, blob.x);
  EXPECT_EQ(all.size(), blob.x.rows());
  EXPECT_EQ(all[0].values.size(), 3u);
}

TEST(TreeShap, RejectsRowNarrowerThanTheTree) {
  // Only column 3 varies, so every split reads column 3.
  Blob blob = make_blobs(40, 4, 3.0, 5);
  for (std::size_t r = 0; r < blob.x.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) blob.x.at(r, c) = 0.0;
  }
  DecisionTreeClassifier tree;
  tree.fit(blob.x, blob.y);
  const std::vector<double> narrow = {0.0, 0.0, 0.0};
  EXPECT_THROW(tree_shap(tree.nodes(), narrow, 4), InvalidArgument);
  EXPECT_THROW(tree_shap(tree.nodes(), blob.x.row(0), 3), InvalidArgument);
  EXPECT_EQ(tree_shap(tree.nodes(), blob.x.row(0), 4).values.size(), 4u);
  RandomForestConfig config;
  config.n_trees = 4;
  RandomForestClassifier forest(config);
  forest.fit(blob.x, blob.y);
  EXPECT_THROW(tree_shap(forest, narrow), InvalidArgument);
  EXPECT_EQ(tree_shap(forest, blob.x.row(0)).values.size(), 4u);
}

TEST(TreeShap, UnfittedForestThrows) {
  RandomForestClassifier forest;
  const std::vector<double> row = {1.0, 2.0};
  EXPECT_THROW(tree_shap(forest, row), StateError);
}

TEST(SamplingShap, AgreesWithLinearModelAttribution) {
  // f(x) = 2 x0 - 3 x1: Shapley values against a zero background are
  // exactly (2 x0, -3 x1).
  auto predict = [](std::span<const double> row) {
    return 2.0 * row[0] - 3.0 * row[1];
  };
  Matrix background(1, 2);  // the zero row
  const std::vector<double> x = {1.5, 2.0};
  const ShapExplanation explanation =
      sampling_shap(predict, x, background, 200, 7);
  EXPECT_NEAR(explanation.values[0], 3.0, 1e-9);
  EXPECT_NEAR(explanation.values[1], -6.0, 1e-9);
  EXPECT_NEAR(explanation.expected_value, 0.0, 1e-9);
}

TEST(SamplingShap, LocalAccuracyInExpectation) {
  auto predict = [](std::span<const double> row) {
    return row[0] * row[1] + row[2];  // interaction term
  };
  common::Rng rng(8);
  Matrix background(20, 3);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 3; ++c) background.at(r, c) = rng.normal();
  }
  const std::vector<double> x = {1.0, 2.0, -0.5};
  const ShapExplanation explanation =
      sampling_shap(predict, x, background, 500, 9);
  double total = explanation.expected_value;
  for (double phi : explanation.values) total += phi;
  EXPECT_NEAR(total, predict(x), 0.15);
}

}  // namespace
}  // namespace phishinghook::ml
