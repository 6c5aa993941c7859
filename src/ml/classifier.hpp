// Uniform interface for the tabular (histogram-feature) classifiers — the
// HSC category of the paper, mirroring scikit-learn's fit/predict_proba.
//
// Binary task throughout: labels are {0 = benign, 1 = phishing} and
// predict_proba returns P(phishing).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/metrics.hpp"

namespace phishinghook::ml {

class FlatTreeEnsemble;  // flat_tree.hpp

class TabularClassifier {
 public:
  virtual ~TabularClassifier() = default;

  /// Trains on features `x` (n x d) with binary labels `y` (size n).
  virtual void fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// P(phishing) per row. Requires fit() first (StateError otherwise).
  virtual std::vector<double> predict_proba(const Matrix& x) const = 0;

  /// The compiled branch-free ensemble behind predict_proba, when the
  /// model has one (tree ensembles after fit()/load); nullptr otherwise.
  /// Serving uses this only to export compile stats; predict_proba
  /// already runs the compiled ensemble.
  virtual const FlatTreeEnsemble* flat_ensemble() const { return nullptr; }

  /// Hard labels at the 0.5 threshold.
  std::vector<int> predict(const Matrix& x) const {
    return threshold_predictions(predict_proba(x));
  }

  virtual std::string name() const = 0;

  /// Serializes the fitted model (a self-describing tagged record, see
  /// serialize.cpp). Models without persistence support throw StateError;
  /// the serving artifact path requires it.
  virtual void save(std::ostream& out) const;

  /// Reads back any classifier written by save(), dispatching on the tag.
  /// Throws ParseError on unknown tags or corrupt payloads.
  static std::unique_ptr<TabularClassifier> load(std::istream& in);
};

}  // namespace phishinghook::ml
