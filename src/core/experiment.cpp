#include "core/experiment.hpp"

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phishinghook::core {

ml::Metrics ModelEvaluation::mean() const {
  std::vector<ml::Metrics> all;
  all.reserve(trials.size());
  for (const TrialResult& trial : trials) all.push_back(trial.metrics);
  return ml::mean_metrics(all);
}

double ModelEvaluation::mean_train_seconds() const {
  double total = 0.0;
  for (const TrialResult& trial : trials) total += trial.train_seconds;
  return trials.empty() ? 0.0 : total / static_cast<double>(trials.size());
}

double ModelEvaluation::mean_inference_seconds() const {
  double total = 0.0;
  for (const TrialResult& trial : trials) total += trial.inference_seconds;
  return trials.empty() ? 0.0 : total / static_cast<double>(trials.size());
}

std::vector<double> ModelEvaluation::metric_series(
    std::string_view metric) const {
  std::vector<double> out;
  out.reserve(trials.size());
  for (const TrialResult& trial : trials) {
    if (metric == "accuracy") out.push_back(trial.metrics.accuracy);
    else if (metric == "f1") out.push_back(trial.metrics.f1);
    else if (metric == "precision") out.push_back(trial.metrics.precision);
    else if (metric == "recall") out.push_back(trial.metrics.recall);
    else throw InvalidArgument("unknown metric '" + std::string(metric) + "'");
  }
  return out;
}

std::vector<const Bytecode*> codes_of(
    const std::vector<LabeledContract>& samples) {
  std::vector<const Bytecode*> out;
  out.reserve(samples.size());
  for (const LabeledContract& sample : samples) out.push_back(&sample.code);
  return out;
}

std::vector<int> labels_of(const std::vector<LabeledContract>& samples) {
  std::vector<int> out;
  out.reserve(samples.size());
  for (const LabeledContract& sample : samples) {
    out.push_back(sample.phishing ? 1 : 0);
  }
  return out;
}

ModelEvaluation ExperimentHarness::evaluate(
    const ModelSpec& spec, const std::vector<LabeledContract>& samples) const {
  const std::vector<const Bytecode*> codes = codes_of(samples);
  const std::vector<int> labels = labels_of(samples);

  obs::ScopedSpan evaluate_span("experiment.evaluate", spec.name.c_str());
  // Per-model timing families on the process-wide registry; label
  // registration happens once per model name, outside the trial loop.
  auto& registry = obs::MetricsRegistry::global();
  const std::string model_label = obs::label("model", spec.name);
  obs::LatencyHistogram& fit_ms = registry.histogram("train_fit_ms", model_label);
  obs::LatencyHistogram& infer_ms = registry.histogram("infer_ms", model_label);
  obs::Counter trials_total = registry.counter("experiment_trials_total");

  ModelEvaluation evaluation;
  evaluation.model = spec.name;
  evaluation.category = spec.category;

  // Pre-draw the per-run fold splits and per-trial model seeds serially, in
  // the exact order the sequential loop consumed them; the (run, fold)
  // trials then execute as independent parallel tasks whose results land in
  // pre-assigned slots, so metrics are bit-identical at every thread count.
  // (Per-trial wall times reflect contended execution when several trials
  // share cores — CI runs single-core, where they match serial timing.)
  common::Rng run_rng(config_.seed);
  std::vector<std::vector<ml::Fold>> run_folds;
  std::vector<std::uint64_t> trial_seeds;
  run_folds.reserve(static_cast<std::size_t>(config_.runs));
  for (int run = 0; run < config_.runs; ++run) {
    common::Rng fold_rng = run_rng.fork();
    run_folds.push_back(ml::stratified_kfold(labels, config_.folds, fold_rng));
    for (int f = 0; f < config_.folds; ++f) {
      trial_seeds.push_back(run_rng.next_u64());
    }
  }

  const std::size_t folds_per_run = static_cast<std::size_t>(config_.folds);
  evaluation.trials = common::parallel_map<TrialResult>(
      trial_seeds.size(), [&](std::size_t t) {
        const std::size_t run = t / folds_per_run;
        const std::size_t f = t % folds_per_run;
        const ml::Fold& fold = run_folds[run][f];
        std::vector<const Bytecode*> train_codes, test_codes;
        std::vector<int> train_labels, test_labels;
        for (std::size_t i : fold.train_indices) {
          train_codes.push_back(codes[i]);
          train_labels.push_back(labels[i]);
        }
        for (std::size_t i : fold.test_indices) {
          test_codes.push_back(codes[i]);
          test_labels.push_back(labels[i]);
        }

        obs::ScopedSpan trial_span("experiment.trial", spec.name.c_str());
        auto model = spec.make(trial_seeds[t]);
        common::Timer train_timer;
        model->fit(train_codes, train_labels);
        const double train_seconds = train_timer.seconds();

        common::Timer inference_timer;
        const std::vector<int> predictions =
            ml::threshold_predictions(model->score_probabilities(test_codes));
        const double inference_seconds = inference_timer.seconds();

        fit_ms.record(train_seconds * 1e3);
        infer_ms.record(inference_seconds * 1e3);
        trials_total.inc();

        TrialResult trial;
        trial.run = static_cast<int>(run);
        trial.fold = static_cast<int>(f);
        trial.metrics = ml::compute_metrics(test_labels, predictions);
        trial.train_seconds = train_seconds;
        trial.inference_seconds = inference_seconds;
        return trial;
      });

  for (const TrialResult& trial : evaluation.trials) {
    common::log_debug(spec.name, " run ", trial.run, " fold ", trial.fold,
                      " acc ", trial.metrics.accuracy);
  }
  return evaluation;
}

std::vector<ml::Metrics> ExperimentHarness::evaluate_temporal(
    const ModelSpec& spec, const std::vector<const LabeledContract*>& train,
    const std::vector<std::vector<const LabeledContract*>>& test_sets) const {
  std::vector<const Bytecode*> train_codes;
  std::vector<int> train_labels;
  for (const LabeledContract* sample : train) {
    train_codes.push_back(&sample->code);
    train_labels.push_back(sample->phishing ? 1 : 0);
  }
  auto model = spec.make(config_.seed);
  model->fit(train_codes, train_labels);

  std::vector<ml::Metrics> out;
  for (const auto& test_set : test_sets) {
    std::vector<const Bytecode*> test_codes;
    std::vector<int> test_labels;
    for (const LabeledContract* sample : test_set) {
      test_codes.push_back(&sample->code);
      test_labels.push_back(sample->phishing ? 1 : 0);
    }
    if (test_codes.empty()) {
      out.push_back(ml::Metrics{});
      continue;
    }
    out.push_back(ml::compute_metrics(
        test_labels,
        ml::threshold_predictions(model->score_probabilities(test_codes))));
  }
  return out;
}

}  // namespace phishinghook::core
