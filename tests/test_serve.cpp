// Serving subsystem: artifact round-trips and corrupt-tree rejection, the
// sharded LRU score cache, service metrics, and the batching scoring engine
// (including the multi-producer consistency check the TSan build exercises).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "chain/fault_injection.hpp"
#include "common/binary_io.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/bem.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "serve/artifact.hpp"
#include "serve/metrics.hpp"
#include "serve/score_cache.hpp"
#include "serve/scoring_engine.hpp"
#include "synth/dataset_builder.hpp"
#include "submit_future.hpp"

namespace phishinghook {
namespace {

// One small dataset shared by the whole suite (building it is the slow
// part; the serving tests only need codes + labels + the chain).
const synth::BuiltDataset& dataset() {
  static const synth::BuiltDataset built = [] {
    synth::DatasetConfig config;
    config.target_size = 160;
    config.seed = 97;
    return synth::DatasetBuilder(config).build();
  }();
  return built;
}

std::vector<const evm::Bytecode*> dataset_codes() {
  std::vector<const evm::Bytecode*> codes;
  for (const synth::LabeledContract& sample : dataset().samples) {
    codes.push_back(&sample.code);
  }
  return codes;
}

std::vector<int> dataset_labels() {
  std::vector<int> labels;
  for (const synth::LabeledContract& sample : dataset().samples) {
    labels.push_back(sample.phishing ? 1 : 0);
  }
  return labels;
}

core::HistogramAdapter fitted_adapter(
    std::unique_ptr<ml::TabularClassifier> model) {
  core::HistogramAdapter adapter(std::move(model), "test-detector");
  adapter.fit(dataset_codes(), dataset_labels());
  return adapter;
}

evm::Hash256 hash_of_byte(std::uint8_t b) {
  evm::Hash256 h{};
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = static_cast<std::uint8_t>(b + i);
  return h;
}

// --- artifact round-trips ----------------------------------------------------

TEST(Artifact, RandomForestRoundTripIsBitIdentical) {
  ml::RandomForestConfig config;
  config.n_trees = 12;
  config.max_depth = 8;
  core::HistogramAdapter adapter =
      fitted_adapter(std::make_unique<ml::RandomForestClassifier>(config));

  std::stringstream buffer;
  serve::save_artifact(buffer, adapter);
  const std::unique_ptr<core::HistogramAdapter> loaded =
      serve::load_artifact(buffer);

  EXPECT_EQ(loaded->name(), adapter.name());
  EXPECT_EQ(loaded->vocabulary().mnemonics(), adapter.vocabulary().mnemonics());

  // 100+ codes, exact equality — doubles travel as raw bits.
  std::vector<const evm::Bytecode*> codes = dataset_codes();
  ASSERT_GE(codes.size(), 100u);
  const std::vector<double> expected = adapter.score_probabilities(codes);
  const std::vector<double> actual = loaded->score_probabilities(codes);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "row " << i;
  }
}

TEST(Artifact, LogisticRegressionRoundTripIsBitIdentical) {
  ml::LogisticRegressionConfig config;
  config.epochs = 60;
  core::HistogramAdapter adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>(config));

  std::stringstream buffer;
  serve::save_artifact(buffer, adapter);
  const std::unique_ptr<core::HistogramAdapter> loaded =
      serve::load_artifact(buffer);

  std::vector<const evm::Bytecode*> codes = dataset_codes();
  const std::vector<double> expected = adapter.score_probabilities(codes);
  const std::vector<double> actual = loaded->score_probabilities(codes);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "row " << i;
  }
}

TEST(Artifact, FileRoundTrip) {
  core::HistogramAdapter adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>());
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "phook_test_artifact.phookmdl";
  serve::save_artifact_file(path, adapter);
  const auto loaded = serve::load_artifact_file(path);
  EXPECT_EQ(loaded->name(), adapter.name());
  std::filesystem::remove(path);
}

TEST(Artifact, RejectsBadMagicAndVersionAndTruncation) {
  core::HistogramAdapter adapter = fitted_adapter(
      std::make_unique<ml::LogisticRegressionClassifier>());
  std::stringstream good;
  serve::save_artifact(good, adapter);
  const std::string bytes = good.str();

  {
    std::stringstream bad("XXXXXXXX" + bytes.substr(8));
    EXPECT_THROW(serve::load_artifact(bad), ParseError);
  }
  {
    std::string versioned = bytes;
    versioned[8] = 99;  // version field follows the 8-byte magic
    std::stringstream bad(versioned);
    EXPECT_THROW(serve::load_artifact(bad), ParseError);
  }
  {
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(serve::load_artifact(truncated), ParseError);
  }
}

TEST(Artifact, SaveBeforeFitThrows) {
  ml::RandomForestClassifier unfitted;
  std::stringstream buffer;
  EXPECT_THROW(unfitted.save(buffer), StateError);
}

TEST(Artifact, ClassifierFactoryRejectsUnknownTag) {
  std::stringstream buffer;
  common::write_string(buffer, "phook.mystery.v1");
  EXPECT_THROW(ml::TabularClassifier::load(buffer), ParseError);
}

// --- corrupt tree artifacts ----------------------------------------------------
//
// Hand-built records in the layouts the save() hooks write, so each
// corruption is exactly one field. Every test first loads the uncorrupted
// record, so a ParseError cannot come from a mis-built record.

/// root (feature 0) -> leaves 1 and 2.
std::vector<ml::TreeNode> stump() {
  std::vector<ml::TreeNode> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].value = 0.25;
  nodes[2].value = 0.75;
  return nodes;
}

void write_nodes(std::ostream& out, const std::vector<ml::TreeNode>& nodes) {
  common::write_u64(out, nodes.size());
  for (const ml::TreeNode& node : nodes) {
    common::write_i32(out, node.feature);
    common::write_double(out, node.threshold);
    common::write_i32(out, node.left);
    common::write_i32(out, node.right);
    common::write_double(out, node.value);
    common::write_double(out, node.weight);
  }
}

/// An untagged decision-tree payload (DecisionTreeClassifier::load_payload)
/// declaring `n_features` columns, with two importances.
std::string tree_payload(const std::vector<ml::TreeNode>& nodes,
                         std::uint64_t n_features = 2) {
  std::ostringstream out;
  common::write_i32(out, 4);  // max_depth
  for (int field = 0; field < 4; ++field) {
    common::write_u64(out, 1);  // min_samples_leaf/split, max_features, seed
  }
  common::write_u64(out, n_features);
  write_nodes(out, nodes);
  common::write_doubles(out, {0.5, 0.5});  // importances
  return out.str();
}

/// A "phook.dtree.v1" record.
std::string tree_record(const std::vector<ml::TreeNode>& nodes) {
  std::ostringstream out;
  common::write_string(out, "phook.dtree.v1");
  return out.str() + tree_payload(nodes);
}

/// A one-tree "phook.rf.v1" record; the forest declares `n_features`
/// columns, its tree payload two.
std::string forest_record(std::uint64_t n_features) {
  std::ostringstream out;
  common::write_string(out, "phook.rf.v1");
  common::write_i32(out, 1);  // n_trees
  common::write_i32(out, 4);  // max_depth
  for (int field = 0; field < 3; ++field) {
    common::write_u64(out, 1);  // min_samples_leaf, max_features, seed
  }
  common::write_u64(out, n_features);
  common::write_u64(out, 1);  // tree count
  return out.str() + tree_payload(stump());
}

/// A one-tree "phook.xgb.v1" record (read_tree_nodes).
std::string xgb_record(const std::vector<ml::TreeNode>& nodes) {
  std::ostringstream out;
  common::write_string(out, "phook.xgb.v1");
  common::write_i32(out, 1);  // n_rounds
  common::write_i32(out, 2);  // max_depth
  for (int field = 0; field < 6; ++field) {
    common::write_double(out, 0.5);  // learning rate .. colsample
  }
  common::write_u64(out, 7);       // seed
  common::write_double(out, 0.0);  // base score
  common::write_u64(out, 1);       // tree count
  write_nodes(out, nodes);
  return out.str();
}

/// A one-tree "phook.catboost.v1" record with the given level features.
std::string catboost_record(const std::vector<int>& features) {
  std::ostringstream out;
  common::write_string(out, "phook.catboost.v1");
  common::write_i32(out, 1);  // n_rounds
  common::write_i32(out, static_cast<int>(features.size()));  // depth
  common::write_i32(out, 16);  // max_bins
  for (int field = 0; field < 3; ++field) {
    common::write_double(out, 0.5);  // learning rate, lambda, temperature
  }
  common::write_u64(out, 7);       // seed
  common::write_double(out, 0.0);  // base score
  common::write_u64(out, 1);       // tree count
  common::write_u64(out, features.size());
  for (const int feature : features) common::write_i32(out, feature);
  common::write_doubles(out, std::vector<double>(features.size(), 0.5));
  common::write_doubles(
      out, std::vector<double>(std::size_t{1} << features.size(), 0.1));
  return out.str();
}

std::unique_ptr<ml::TabularClassifier> load_classifier(
    const std::string& record) {
  std::istringstream in(record);
  return ml::TabularClassifier::load(in);
}

/// Asserts the stump loads and predicts in both binary-tree layouts, and
/// that `corrupt` applied to it is refused by both loaders.
template <typename Corrupt>
void expect_tree_records_rejected(Corrupt corrupt) {
  ml::Matrix x(1, 2);
  for (const auto& record : {tree_record, xgb_record}) {
    ASSERT_EQ(load_classifier(record(stump()))->predict_proba(x).size(), 1u);
    std::vector<ml::TreeNode> nodes = stump();
    corrupt(nodes);
    EXPECT_THROW(load_classifier(record(nodes)), ParseError);
  }
}

TEST(Artifact, RejectsTreeChildOutOfRange) {
  expect_tree_records_rejected(
      [](std::vector<ml::TreeNode>& nodes) { nodes[0].right = 3; });
  expect_tree_records_rejected(
      [](std::vector<ml::TreeNode>& nodes) { nodes[0].left = -1; });
}

TEST(Artifact, RejectsTreeWithNoNodes) {
  expect_tree_records_rejected(
      [](std::vector<ml::TreeNode>& nodes) { nodes.clear(); });
}

TEST(Artifact, RejectsTreeCycle) {
  // Leaf 2 becomes a split whose left child is the root.
  expect_tree_records_rejected([](std::vector<ml::TreeNode>& nodes) {
    nodes[2].feature = 1;
    nodes[2].left = 0;
    nodes[2].right = 1;
  });
}

TEST(Artifact, RejectsTreeFeatureOutOfRange) {
  // Past the loader's feature cap: the compile would size its cut tables
  // by it.
  expect_tree_records_rejected(
      [](std::vector<ml::TreeNode>& nodes) { nodes[0].feature = 1 << 21; });
}

TEST(Artifact, RejectsTreeFeatureAtOrPastStoredFeatureCount) {
  // The dtree record stores n_features = 2: feature 1 is the last column a
  // split may read.
  ml::Matrix x(1, 2);
  std::vector<ml::TreeNode> nodes = stump();
  nodes[0].feature = 1;
  ASSERT_EQ(load_classifier(tree_record(nodes))->predict_proba(x).size(), 1u);
  nodes[0].feature = 2;
  EXPECT_THROW(load_classifier(tree_record(nodes)), ParseError);
}

TEST(Artifact, RejectsTreeFeatureCountMismatches) {
  // A declared feature count that is huge, disagrees with the importance
  // vector, or disagrees with the enclosing forest: each would let a
  // predict or an importance sum index past a vector.
  const auto dtree = [](std::uint64_t n_features) {
    std::ostringstream out;
    common::write_string(out, "phook.dtree.v1");
    return out.str() + tree_payload(stump(), n_features);
  };
  ASSERT_NO_THROW(load_classifier(dtree(2)));
  EXPECT_THROW(load_classifier(dtree(std::uint64_t{1} << 40)), ParseError);
  EXPECT_THROW(load_classifier(dtree(3)), ParseError);
  std::istringstream forest(forest_record(2));
  ASSERT_EQ(ml::RandomForestClassifier::load_from(forest)
                .feature_importances()
                .size(),
            2u);
  EXPECT_THROW(load_classifier(forest_record(3)), ParseError);
}

TEST(Artifact, RejectsCatBoostFeatureOutOfRange) {
  ml::Matrix x(1, 2);
  ASSERT_EQ(load_classifier(catboost_record({0, 1}))->predict_proba(x).size(),
            1u);
  EXPECT_THROW(load_classifier(catboost_record({0, -1})), ParseError);
  EXPECT_THROW(load_classifier(catboost_record({0, 1 << 21})), ParseError);
}

TEST(Artifact, RejectsCorruptTreeInsideServingArtifact) {
  const auto artifact = [](const std::vector<ml::TreeNode>& nodes) {
    std::ostringstream out;
    out.write(serve::kArtifactMagic, sizeof(serve::kArtifactMagic));
    common::write_u32(out, serve::kArtifactVersion);
    common::write_string(out, serve::kArtifactFamilyHistogram);
    common::write_string(out, "corrupt-xgb");
    common::write_u64(out, 2);  // vocabulary
    common::write_string(out, "PUSH1");
    common::write_string(out, "STOP");
    out << xgb_record(nodes);
    return out.str();
  };
  std::istringstream good(artifact(stump()));
  EXPECT_EQ(serve::load_artifact(good)->name(), "corrupt-xgb");
  std::vector<ml::TreeNode> nodes = stump();
  nodes[1].feature = 0;  // leaf 1 becomes a split over itself
  nodes[1].left = 1;
  nodes[1].right = 2;
  std::istringstream bad(artifact(nodes));
  EXPECT_THROW(serve::load_artifact(bad), ParseError);
}

// --- sharded score cache -----------------------------------------------------

TEST(ScoreCache, EvictsLeastRecentlyUsedInOrder) {
  serve::ShardedScoreCache cache(/*capacity=*/3, /*shards=*/1);
  const auto a = hash_of_byte(1), b = hash_of_byte(2), c = hash_of_byte(3),
             d = hash_of_byte(4);
  cache.put(a, 0.1);
  cache.put(b, 0.2);
  cache.put(c, 0.3);
  ASSERT_TRUE(cache.get(a).has_value());  // refresh a: LRU order is b, c, a
  cache.put(d, 0.4);                      // evicts b
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_EQ(cache.get(a), (serve::CachedScore{0.1, 0}));
  EXPECT_EQ(cache.get(c), (serve::CachedScore{0.3, 0}));
  EXPECT_EQ(cache.get(d), (serve::CachedScore{0.4, 0}));

  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ScoreCache, PutRefreshesExistingKey) {
  serve::ShardedScoreCache cache(2, 1);
  const auto a = hash_of_byte(1), b = hash_of_byte(2), c = hash_of_byte(3);
  cache.put(a, 0.1);
  cache.put(b, 0.2);
  cache.put(a, 0.9);  // refresh, not insert: b is now the LRU entry
  cache.put(c, 0.3);
  EXPECT_EQ(cache.get(a), (serve::CachedScore{0.9, 0}));
  EXPECT_FALSE(cache.get(b).has_value());
}

TEST(ScoreCache, ShardingSpreadsKeysAndIsolatesCapacity) {
  serve::ShardedScoreCache cache(/*capacity=*/64, /*shards=*/8);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.capacity(), 64u);

  std::set<std::size_t> shards_touched;
  for (int i = 0; i < 64; ++i) {
    evm::Bytecode code({static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(i >> 3), 0x60, 0x00});
    shards_touched.insert(cache.shard_index(code.code_hash()));
  }
  // Keccak output spreads 64 distinct codes over nearly all 8 shards.
  EXPECT_GE(shards_touched.size(), 6u);

  // Rounds shard counts up to a power of two.
  serve::ShardedScoreCache odd(30, 3);
  EXPECT_EQ(odd.shard_count(), 4u);
  EXPECT_EQ(odd.capacity(), 30u);  // 8+8+7+7, not 4*7

  EXPECT_THROW(serve::ShardedScoreCache(0, 1), InvalidArgument);
  EXPECT_THROW(serve::ShardedScoreCache(8, 0), InvalidArgument);
}

TEST(ScoreCache, CapacityMatchesRequestedBudgetExactly) {
  // Regression: bit_ceil(6)=8 shards with floor division used to report 96
  // entries for a 100-entry budget. The remainder now spreads across
  // shards so the requested budget is provisioned exactly.
  serve::ShardedScoreCache cache(100, 6);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.capacity(), 100u);

  // Fewer entries than shards: the shard count shrinks (power of two) so
  // no shard holds a zero budget.
  serve::ShardedScoreCache tiny(5, 8);
  EXPECT_EQ(tiny.shard_count(), 4u);
  EXPECT_EQ(tiny.capacity(), 5u);

  serve::ShardedScoreCache one(1, 16);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(ScoreCache, CountsHitsAndMisses) {
  serve::ShardedScoreCache cache(8, 2);
  const auto a = hash_of_byte(7);
  EXPECT_FALSE(cache.get(a).has_value());
  cache.put(a, 0.5);
  EXPECT_TRUE(cache.get(a).has_value());
  EXPECT_TRUE(cache.get(a).has_value());
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, HistogramQuantilesBracketRecordedValues) {
  serve::LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.record(100.0);  // bucket [64, 128)
  histogram.record(100000.0);  // one 100ms outlier
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_NEAR(histogram.mean_us(), 1099.0, 1.0);
  EXPECT_EQ(histogram.max_us(), 100000.0);
  EXPECT_LE(histogram.quantile_us(0.50), 256.0);
  EXPECT_GE(histogram.quantile_us(0.995), 65536.0);
}

TEST(Metrics, DumpContainsCountersAndOccupancy) {
  serve::ServiceMetrics metrics;
  metrics.requests_submitted.inc(10);
  metrics.requests_completed.inc(10);
  metrics.batches.inc(2);
  metrics.batched_requests.inc(10);
  metrics.request_latency.record(50.0);
  EXPECT_DOUBLE_EQ(metrics.mean_batch_occupancy(), 5.0);

  std::ostringstream out;
  metrics.registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\nserve_requests_completed 10\n"), std::string::npos);
  EXPECT_NE(text.find("\nserve_batches_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("\nserve_batched_requests_total 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nserve_request_latency_us_count 1\n"),
            std::string::npos);
}

TEST(Metrics, ScopedTimerFeedsSink) {
  double recorded = -1.0;
  {
    common::ScopedTimer timer([&](double s) { recorded = s; });
  }
  EXPECT_GE(recorded, 0.0);

  recorded = -1.0;
  {
    common::ScopedTimer timer([&](double s) { recorded = s; });
    timer.cancel();
  }
  EXPECT_EQ(recorded, -1.0);

  int fires = 0;
  {
    common::ScopedTimer timer([&](double) { ++fires; });
    timer.stop();
  }
  EXPECT_EQ(fires, 1);  // stop() disarms the destructor
}

// --- scoring engine ----------------------------------------------------------

class ScoringEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    adapter_ = std::make_unique<core::HistogramAdapter>(fitted_adapter(
        std::make_unique<ml::RandomForestClassifier>(small_forest())));
    for (const synth::LabeledContract& sample : dataset().samples) {
      addresses_.push_back(sample.address);
    }
  }

  static ml::RandomForestConfig small_forest() {
    ml::RandomForestConfig config;
    config.n_trees = 8;
    config.max_depth = 6;
    return config;
  }

  /// Ground truth: the same codes scored directly, bypassing the engine.
  std::vector<double> direct_scores() {
    const core::BytecodeExtractionModule bem(*dataset().explorer);
    std::vector<double> out;
    for (const evm::Address& address : addresses_) {
      const core::ExtractedContract contract = bem.extract(address);
      const evm::Bytecode* code = &contract.code;
      out.push_back(code->empty()
                        ? 0.0
                        : adapter_->score_probabilities({&code, 1}).front());
    }
    return out;
  }

  std::unique_ptr<core::HistogramAdapter> adapter_;
  std::vector<evm::Address> addresses_;
};

TEST_F(ScoringEngineTest, SingleThreadMatchesDirectScoring) {
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 16;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  const std::vector<serve::ScoreResult> results = engine.score_all(addresses_);
  const std::vector<double> expected = direct_scores();
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].probability, expected[i]) << "address " << i;
    EXPECT_EQ(results[i].address, addresses_[i]);
    EXPECT_EQ(results[i].flagged, results[i].probability >= 0.5);
  }
}

TEST_F(ScoringEngineTest, MultiProducerMultiWorkerMatchesSingleThreaded) {
  serve::EngineConfig config;
  config.workers = 4;
  config.max_batch = 8;
  config.max_wait_us = 100;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);

  constexpr int kProducers = 4;
  std::vector<std::vector<serve::ScoreResult>> per_producer(kProducers);
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<std::future<serve::ScoreResult>> futures;
        for (const evm::Address& address : addresses_) {
          futures.push_back(submit_future(engine, address));
        }
        for (auto& future : futures) {
          per_producer[p].push_back(future.get());
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }

  const std::vector<double> expected = direct_scores();
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(per_producer[p].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(per_producer[p][i].probability, expected[i])
          << "producer " << p << " address " << i;
    }
  }

  // 4 producers x N addresses with heavy on-chain duplication: the cache
  // must be carrying most of the load.
  const serve::CacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.hits, stats.misses);
  EXPECT_EQ(engine.metrics().requests_completed.value(),
            static_cast<std::uint64_t>(kProducers) * addresses_.size());
}

TEST_F(ScoringEngineTest, CacheHitsAreMarkedAndDeduplicated) {
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 4;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);

  const evm::Address target = addresses_.front();
  const serve::ScoreResult first = submit_future(engine, target).get();
  const serve::ScoreResult second = submit_future(engine, target).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.probability, second.probability);
}

TEST_F(ScoringEngineTest, EmptyCodeIsScoredZeroNotCrashed) {
  serve::EngineConfig config;
  config.workers = 1;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  const serve::ScoreResult result =
      submit_future(engine, evm::Address::from_hex(
                        "0x00000000000000000000000000000000000000ff"))
          .get();
  EXPECT_EQ(result.status, serve::ScoreStatus::kEmptyCode);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.probability, 0.0);
  EXPECT_FALSE(result.flagged);
  EXPECT_EQ(engine.metrics().empty_code_requests.value(), 1u);
}

TEST_F(ScoringEngineTest, SubmitAfterShutdownIsRefused) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  submit_future(engine, addresses_.front()).get();
  engine.shutdown();
  engine.shutdown();  // idempotent
  bool ran = false;
  EXPECT_FALSE(engine.try_submit(addresses_.front(), obs::RequestContext{},
                                 [&ran](serve::ScoreResult) { ran = true; }));
  EXPECT_FALSE(ran);  // a refused submission never runs its completion
  EXPECT_EQ(engine.metrics().requests_submitted.value(), 1u);
  // score_all answers refused rows itself, outside the engine's counters.
  const std::vector<serve::ScoreResult> late = engine.score_all(addresses_);
  ASSERT_EQ(late.size(), addresses_.size());
  EXPECT_EQ(late.front().status, serve::ScoreStatus::kShed);
  EXPECT_EQ(late.front().address, addresses_.front());
  EXPECT_EQ(engine.metrics().requests_submitted.value(), 1u);
}

TEST_F(ScoringEngineTest, ServingDoesNoPoolWork) {
  // A served batch runs entirely on the engine worker that popped it: with
  // a 4-thread global pool on hand, scoring cache misses (histograms and
  // flat-tree predict) must hand the pool no task. The pool is for training.
  common::ThreadPool::set_global_threads(4);
  const obs::Counter tasks =
      obs::MetricsRegistry::global().counter("threadpool_tasks_total");
  const std::uint64_t before = tasks.value();
  serve::EngineConfig config;
  config.workers = 2;
  config.max_batch = 16;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  engine.score_all(addresses_);
  EXPECT_GT(engine.cache_stats().misses, 16u);
  EXPECT_GT(engine.metrics().batches.value(), 0u);
  EXPECT_EQ(tasks.value(), before);
  common::ThreadPool::set_global_threads(0);
}

/// Counts every read the engine could make of the chain: the decoded
/// fetch (get_code), the hex wire fetch (eth_get_code) and the label probe
/// (flag_of, behind is_flagged_phishing). Forwards all three.
class CountingExplorer final : public chain::Explorer {
 public:
  explicit CountingExplorer(const chain::Explorer& inner)
      : chain::Explorer(inner.chain()), inner_(&inner) {}

  evm::Bytecode get_code(const evm::Address& address) const override {
    get_code_calls.fetch_add(1);
    return inner_->get_code(address);
  }
  std::string eth_get_code(const evm::Address& address) const override {
    eth_get_code_calls.fetch_add(1);
    return inner_->eth_get_code(address);
  }
  chain::ContractFlag flag_of(const evm::Address& address) const override {
    flag_of_calls.fetch_add(1);
    return inner_->flag_of(address);
  }

  mutable std::atomic<std::uint64_t> get_code_calls{0};
  mutable std::atomic<std::uint64_t> eth_get_code_calls{0};
  mutable std::atomic<std::uint64_t> flag_of_calls{0};

 private:
  const chain::Explorer* inner_;
};

TEST_F(ScoringEngineTest, FetchesDecodedCodeOnceAndNeverProbesLabels) {
  // Cache-missing batch: every request is fetched exactly once, decoded,
  // with no hex round-trip and no label probe; verdicts stay bit-exact.
  {
    const CountingExplorer counting(*dataset().explorer);
    serve::EngineConfig config;
    config.workers = 2;
    config.max_batch = 16;
    serve::ScoringEngine engine(counting, *adapter_, config);
    const std::vector<serve::ScoreResult> results =
        engine.score_all(addresses_);
    engine.shutdown();
    EXPECT_GT(engine.cache_stats().misses, 16u);
    EXPECT_EQ(counting.get_code_calls.load(), addresses_.size());
    EXPECT_EQ(counting.eth_get_code_calls.load(), 0u);
    EXPECT_EQ(counting.flag_of_calls.load(), 0u);
    const std::vector<double> expected = direct_scores();
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].probability, expected[i]) << "address " << i;
    }
  }
  // Chaos batch: one get_code per attempt, retries included, and the
  // fault schedule sees exactly those fetches.
  {
    chain::FaultConfig faults;
    faults.throw_rate = 0.25;
    faults.empty_rate = 0.05;
    faults.seed = 5;
    const chain::FaultInjectingExplorer chaos(*dataset().explorer, faults);
    const CountingExplorer counting(chaos);
    serve::EngineConfig config;
    config.workers = 2;
    config.max_batch = 16;
    config.extract_retry.max_attempts = 3;
    config.extract_retry.base_delay_us = 1;
    config.extract_retry.max_delay_us = 10;
    serve::ScoringEngine engine(counting, *adapter_, config);
    engine.score_all(addresses_);
    engine.shutdown();
    EXPECT_GT(engine.metrics().retries.value(), 0u);
    EXPECT_EQ(counting.get_code_calls.load(),
              addresses_.size() + engine.metrics().retries.value());
    EXPECT_EQ(chaos.stats().calls, counting.get_code_calls.load());
    EXPECT_EQ(counting.eth_get_code_calls.load(), 0u);
    EXPECT_EQ(counting.flag_of_calls.load(), 0u);
  }
}

TEST_F(ScoringEngineTest, MetricsDumpAfterTraffic) {
  serve::EngineConfig config;
  config.workers = 2;
  serve::ScoringEngine engine(*dataset().explorer, *adapter_, config);
  engine.score_all(addresses_);
  engine.score_all(addresses_);  // second pass: warm cache

  std::ostringstream out;
  engine.dump_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("serve_request_latency_us{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("\nserve_requests_completed " +
                      std::to_string(2 * addresses_.size()) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nserve_cache_hit_rate "), std::string::npos);
  EXPECT_GT(engine.metrics().batches.value(), 0u);
  EXPECT_GT(engine.metrics().mean_batch_occupancy(), 0.0);
  EXPECT_GT(engine.cache_stats().hit_rate(), 0.4);
}

}  // namespace
}  // namespace phishinghook
