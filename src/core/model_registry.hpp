// Model registry: the 16 evaluated detectors behind one interface.
//
// A `PhishingClassifier` consumes raw deployed bytecodes; each adapter owns
// its feature pipeline (histogram vocabulary, image encoder, tokenizer) and
// fits it on the training split only, exactly as the MEM requires.
//
// Categories follow Table II's markers: Histogram (†), Vision (‡),
// Language (*), Vulnerability (§).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/features.hpp"
#include "ml/classifier.hpp"
#include "ml/models/sequence_model.hpp"
#include "ml/models/vision_model.hpp"
#include "ml/scorer.hpp"

namespace phishinghook::core {

enum class ModelCategory { kHistogram, kVision, kLanguage, kVulnerability };

std::string_view category_label(ModelCategory category);

/// A fit-capable detector over raw bytecodes: `fit` plus `category` on top
/// of ml::Scorer. A fitted classifier is run only through score_batch (or
/// score_probabilities), so the experiment harness and the serving path
/// (ScoringEngine, CascadeScorer) share one inference contract. Every
/// adapter's score_batch attributes each row to stage 0 and throws
/// InvalidArgument when out.size() != view.size().
class PhishingClassifier : public ml::Scorer {
 public:
  virtual void fit(const std::vector<const Bytecode*>& codes,
                   const std::vector<int>& labels) = 0;

  virtual ModelCategory category() const = 0;
};

/// Histogram (HSC) adapter: vocabulary + a tabular classifier.
class HistogramAdapter final : public PhishingClassifier {
 public:
  HistogramAdapter(std::unique_ptr<ml::TabularClassifier> model,
                   std::string name);

  /// Restore path (artifact load): an already-fitted model plus its
  /// vocabulary, skipping fit() entirely.
  HistogramAdapter(std::unique_ptr<ml::TabularClassifier> model,
                   std::string name, HistogramVocabulary vocabulary);

  void fit(const std::vector<const Bytecode*>& codes,
           const std::vector<int>& labels) override;
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override;
  std::string name() const override { return name_; }
  ModelCategory category() const override { return ModelCategory::kHistogram; }

  /// The inner model's compiled ensemble (tree models after fit/load).
  const ml::FlatTreeEnsemble* flat_ensemble() const override {
    return model_->flat_ensemble();
  }

  /// The fitted vocabulary and inner model (SHAP analysis needs both).
  const HistogramVocabulary& vocabulary() const { return vocabulary_; }
  const ml::TabularClassifier& model() const { return *model_; }

 private:
  std::unique_ptr<ml::TabularClassifier> model_;
  std::string name_;
  HistogramVocabulary vocabulary_;
};

/// Which image encoding a vision adapter uses.
enum class ImageEncoding { kR2D2, kFrequency };

class VisionAdapter final : public PhishingClassifier {
 public:
  VisionAdapter(std::unique_ptr<ml::models::ImageClassifierModel> model,
                std::string name, ImageEncoding encoding, std::size_t side);

  void fit(const std::vector<const Bytecode*>& codes,
           const std::vector<int>& labels) override;
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override;
  std::string name() const override { return name_; }
  ModelCategory category() const override { return ModelCategory::kVision; }

 private:
  std::vector<ml::nn::Tensor> encode(ml::BytecodeBatchView codes) const;

  std::unique_ptr<ml::models::ImageClassifierModel> model_;
  std::string name_;
  ImageEncoding encoding_;
  std::size_t side_;
  FrequencyEncoder frequency_encoder_;  // used when encoding == kFrequency
};

/// Which tokenization a sequence adapter uses.
enum class Tokenization { kNgram, kBytes };

class SequenceAdapter final : public PhishingClassifier {
 public:
  SequenceAdapter(std::unique_ptr<ml::models::SequenceClassifierModel> model,
                  std::string name, Tokenization tokenization,
                  ModelCategory category, std::size_t ngram_vocab = 4096);

  void fit(const std::vector<const Bytecode*>& codes,
           const std::vector<int>& labels) override;
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override;
  std::string name() const override { return name_; }
  ModelCategory category() const override { return category_; }

 private:
  std::vector<TokenSequence> tokenize(ml::BytecodeBatchView codes) const;

  std::unique_ptr<ml::models::SequenceClassifierModel> model_;
  std::string name_;
  Tokenization tokenization_;
  ModelCategory category_;
  NgramTokenizer ngram_tokenizer_;
};

/// A registry entry: name, category, and a factory producing a fresh
/// (unfitted) classifier, seeded per fold.
struct ModelSpec {
  std::string name;
  ModelCategory category;
  std::function<std::unique_ptr<PhishingClassifier>(std::uint64_t seed)> make;
};

/// All 16 Table II models, scaled by `params` (image side, sequence caps,
/// epochs). Order matches Table II.
std::vector<ModelSpec> all_models(const common::ScaleParams& params);

/// Lookup by Table II name ("Random Forest", "GPT-2 (alpha)", ...).
const ModelSpec& find_model(const std::vector<ModelSpec>& specs,
                            std::string_view name);

}  // namespace phishinghook::core
