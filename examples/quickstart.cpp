// Quickstart: the PhishingHook pipeline in ~80 lines.
//
//   1. disassemble a contract (the paper's §III example),
//   2. build a small labeled corpus on the simulated chain,
//   3. train the best Table II model (Random Forest on opcode histograms),
//   4. classify fresh contracts.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/experiment.hpp"
#include "synth/dataset_builder.hpp"

int main() {
  using namespace phishinghook;

  // --- 1. disassembly (BDM) -------------------------------------------------
  const evm::Bytecode snippet = evm::Bytecode::from_hex("0x6080604052");
  const evm::Disassembly listing = evm::Disassembler().disassemble(snippet);
  std::printf("disassembling %s (the paper's example):\n",
              snippet.to_hex().c_str());
  for (const evm::Instruction& ins : listing.instructions) {
    std::printf("  pc=%02zu  %-8s gas=%u\n", ins.pc,
                ins.to_string().c_str(), ins.gas);
  }

  // --- 2. a labeled corpus ---------------------------------------------------
  synth::DatasetConfig config;
  config.target_size = 300;
  config.seed = 7;
  const synth::BuiltDataset dataset = synth::DatasetBuilder(config).build();
  std::printf("\ncorpus: %zu contracts (%zu phishing / %zu benign), "
              "deduplicated from %zu raw phishing deployments\n",
              dataset.samples.size(), dataset.phishing_count(),
              dataset.benign_count(), dataset.raw_phishing);

  // --- 3. train the Table II champion ---------------------------------------
  const auto specs = core::all_models(common::scale_params(common::Scale::kSmoke));
  auto model = core::find_model(specs, "Random Forest").make(/*seed=*/1);

  const auto codes = core::codes_of(dataset.samples);
  const auto labels = core::labels_of(dataset.samples);
  const std::size_t train_count = dataset.samples.size() * 8 / 10;
  std::vector<const evm::Bytecode*> train_codes(codes.begin(),
                                                codes.begin() + static_cast<std::ptrdiff_t>(train_count));
  std::vector<int> train_labels(labels.begin(),
                                labels.begin() + static_cast<std::ptrdiff_t>(train_count));
  model->fit(train_codes, train_labels);

  // --- 4. classify the held-out tail -----------------------------------------
  std::vector<const evm::Bytecode*> test_codes(codes.begin() + static_cast<std::ptrdiff_t>(train_count),
                                               codes.end());
  std::vector<int> test_labels(labels.begin() + static_cast<std::ptrdiff_t>(train_count),
                               labels.end());
  const auto probs = model->score_probabilities(test_codes);
  const auto metrics = ml::compute_metrics(
      test_labels, ml::threshold_predictions(probs));
  std::printf("\nheld-out performance: accuracy %.1f%%, F1 %.1f%%\n",
              100.0 * metrics.accuracy, 100.0 * metrics.f1);

  std::printf("\nsample verdicts:\n");
  for (std::size_t i = 0; i < 5 && i < test_codes.size(); ++i) {
    std::printf("  %s  P(phishing)=%.2f  [truth: %s]\n",
                dataset.samples[train_count + i].address.to_hex().c_str(),
                probs[i], test_labels[i] != 0 ? "Phish/Hack" : "benign");
  }
  return 0;
}
