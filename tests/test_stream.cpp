// Streaming ingestion suite: incremental mining, the block follower's
// dedup accounting, the open-loop arrival model, the shared hand-off
// primitives (common::BoundedQueue, common::InFlight), the
// fault-schedule-under-streaming-order guarantee, and the coordinator's
// end-to-end lifecycle — including the conservation law
// submitted == completed + failed + shed after every drain.
//
// The TSan leg of ci.sh runs this whole file: four pipeline threads plus
// engine workers race over the queues, the chain lock, and the metrics
// cells on purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chain/fault_injection.hpp"
#include "common/bounded_queue.hpp"
#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/coordinator.hpp"
#include "synth/dataset_builder.hpp"
#include "request_lanes.hpp"
#include "submit_future.hpp"

namespace phishinghook {
namespace {

// One small dataset shared by the whole suite — only used to fit the
// detector the coordinator tests score with (building it is the slow part).
const synth::BuiltDataset& dataset() {
  static const synth::BuiltDataset built = [] {
    synth::DatasetConfig config;
    config.target_size = 160;
    config.seed = 97;
    return synth::DatasetBuilder(config).build();
  }();
  return built;
}

core::HistogramAdapter& detector() {
  static core::HistogramAdapter adapter = [] {
    ml::RandomForestConfig config;
    config.n_trees = 8;
    config.max_depth = 6;
    core::HistogramAdapter fitted(
        std::make_unique<ml::RandomForestClassifier>(config), "stream-test");
    std::vector<const evm::Bytecode*> codes;
    std::vector<int> labels;
    for (const synth::LabeledContract& sample : dataset().samples) {
      codes.push_back(&sample.code);
      labels.push_back(sample.phishing ? 1 : 0);
    }
    fitted.fit(codes, labels);
    return fitted;
  }();
  return adapter;
}

// ---------------------------------------------------------------- mining

TEST(ChainMining, MineNextBlockAdvancesHeadAndTimestamp) {
  chain::ChainStore chain;
  const std::uint64_t head0 = chain.head_block();
  const std::uint64_t ts0 = chain.head_timestamp();
  EXPECT_EQ(chain.mine_next_block(), head0 + 1);
  EXPECT_EQ(chain.head_timestamp(), ts0 + 12);
  EXPECT_EQ(chain.mine_next_block(5), head0 + 6);
  EXPECT_EQ(chain.head_timestamp(), ts0 + 6 * 12);
  EXPECT_THROW(chain.mine_next_block(0), InvalidArgument);
}

TEST(ChainMining, MonthRollsOverOnSlotBoundaryAndSaturates) {
  chain::ChainStore chain;
  ASSERT_EQ(chain.head_month().index, 0);
  // Mine exactly up to the next month's first timestamp.
  const std::uint64_t next_start = chain::Month{1}.start_timestamp();
  ASSERT_GT(next_start, chain.head_timestamp());
  const std::uint64_t slots =
      (next_start - chain.head_timestamp() + 11) / 12;
  chain.mine_next_block(slots);
  EXPECT_EQ(chain.head_month().index, 1);
  EXPECT_GE(chain.head_timestamp(), next_start);
  // A skip across several boundaries rolls every month it crossed; past
  // the study window the head month saturates at the last index.
  chain.mine_next_block(chain::Month::kCount * 32ull * 86400ull / 12ull);
  EXPECT_EQ(chain.head_month().index, chain::Month::kCount - 1);
}

TEST(ChainMining, ContractsAfterReturnsStrictSuffixInChainOrder) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  synth::MinerConfig config;
  config.seed = 5;
  synth::ChainMiner miner(chain, explorer, config);
  while (chain.contracts().size() < 6) miner.mine_next_block();
  const std::vector<chain::ContractRecord>& all = chain.contracts();
  const std::uint64_t cursor = all[1].block_number;
  const std::vector<chain::ContractRecord> tail = chain.contracts_after(cursor);
  ASSERT_EQ(tail.size(), all.size() - 2);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_GT(tail[i].block_number, cursor);
    EXPECT_EQ(tail[i].address, all[i + 2].address);
  }
  EXPECT_TRUE(chain.contracts_after(chain.head_block()).empty());
  EXPECT_EQ(chain.contracts_after(0).size(), all.size());
}

// The code hash travels with the installed code, and nothing on a Bytecode
// is written after construction, so readers sharing one account (or one
// Bytecode object) never race each other or the miner. ci.sh runs this
// binary under TSan: a lazily computed member coming back would fail there.
TEST(LiveChainReads, ConcurrentCodeHashReadsWhileMining) {
  stream::LiveChain live;
  for (int b = 0; b < 4; ++b) live.mine_next_block();
  const chain::ChainTail tail = live.explorer().crawl_after(0);
  ASSERT_FALSE(tail.records.empty());
  const chain::ContractRecord target = tail.records.front();
  const evm::Bytecode shared = live.explorer().get_code(target.address);
  ASSERT_FALSE(shared.empty());
  ASSERT_EQ(shared.code_hash(), evm::keccak256(shared.bytes()));
  const std::vector<bool> jump_dests = shared.jump_destinations();

  std::atomic<bool> stop{false};
  std::thread miner([&] {
    for (int b = 0; b < 200 && (b < 8 || !stop.load()); ++b) {
      live.mine_next_block();
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const bool same =
            live.explorer().get_code(target.address).code_hash() ==
                target.code_hash &&
            shared.code_hash() == target.code_hash &&
            shared.jump_destinations() == jump_dests;
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  miner.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(live.head_block(), tail.head_block);
}

TEST(ChainMinerTest, SameSeedProducesIdenticalChainsAndLabels) {
  auto build = [] {
    auto chain = std::make_unique<chain::ChainStore>();
    auto explorer = std::make_unique<chain::Explorer>(*chain);
    synth::MinerConfig config;
    config.seed = 21;
    synth::ChainMiner miner(*chain, *explorer, config);
    for (int b = 0; b < 50; ++b) miner.mine_next_block();
    return std::make_tuple(std::move(chain), std::move(explorer),
                           miner.stats());
  };
  auto [chain_a, explorer_a, stats_a] = build();
  auto [chain_b, explorer_b, stats_b] = build();

  ASSERT_EQ(chain_a->contracts().size(), chain_b->contracts().size());
  ASSERT_GT(chain_a->contracts().size(), 0u);
  for (std::size_t i = 0; i < chain_a->contracts().size(); ++i) {
    const chain::ContractRecord& a = chain_a->contracts()[i];
    const chain::ContractRecord& b = chain_b->contracts()[i];
    EXPECT_EQ(a.address, b.address);
    EXPECT_EQ(a.code_hash, b.code_hash);
    EXPECT_EQ(a.block_number, b.block_number);
    EXPECT_EQ(explorer_a->is_flagged_phishing(a.address),
              explorer_b->is_flagged_phishing(b.address));
  }
  EXPECT_EQ(stats_a.blocks_mined, 50u);
  EXPECT_EQ(stats_a.deployments, stats_b.deployments);
  EXPECT_EQ(stats_a.phishing_deployments, stats_b.phishing_deployments);
  EXPECT_EQ(stats_a.clone_deployments, stats_b.clone_deployments);
  EXPECT_EQ(stats_a.deployments,
            stats_a.phishing_deployments + stats_a.benign_deployments);
}

// ------------------------------------------------ hand-off primitives

TEST(BoundedQueueTest, FifoCloseAndCounters) {
  EXPECT_THROW(common::BoundedQueue<int>(0), InvalidArgument);
  common::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  int three = 3;
  EXPECT_EQ(queue.try_push(three), common::PushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.try_push(three), common::PushResult::kOk);
  queue.close();
  EXPECT_FALSE(queue.push(4));      // closed: producer fails fast
  EXPECT_EQ(queue.pop(), 2);        // but queued items still drain...
  EXPECT_EQ(queue.pop(), 3);
  EXPECT_EQ(queue.pop(), std::nullopt);  // ...before end-of-stream shows
  EXPECT_EQ(queue.total_pushed(), 3u);
  EXPECT_EQ(queue.total_popped(), 3u);
}

TEST(BoundedQueueTest, ConcurrentProducersAndConsumersConserveItems) {
  common::BoundedQueue<int> queue(8);
  constexpr int kPerProducer = 400;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&queue] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(queue.push(i));
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&queue, &consumed] {
      while (queue.pop().has_value()) consumed.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(queue.total_pushed(), queue.total_popped());
}

TEST(BoundedQueueTest, PushBlockedOnFullQueueUnblocksAtClose) {
  common::BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(queue.push(2));  // blocks: queue is full
    push_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(push_returned.load());  // still parked on the bound
  queue.close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  // The blocked push must report failure (its item was dropped), while
  // what was already queued stays deliverable.
  EXPECT_FALSE(push_result.load());
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.total_pushed(), 1u);
}

TEST(BoundedQueueTest, TryPushRacingCloseNeverLosesOrInventsItems) {
  common::BoundedQueue<int> queue(16);
  std::atomic<int> admitted{0};
  std::thread producer([&] {
    for (int i = 0; i < 100000; ++i) {
      const common::PushResult pushed = queue.try_push(i);
      if (pushed == common::PushResult::kOk) {
        admitted.fetch_add(1);
      } else if (pushed == common::PushResult::kClosed) {
        break;
      }
      // Full-but-open: drop and keep going (open-loop producer shape).
    }
  });
  std::thread consumer([&] {
    // Drain concurrently so the producer sees both full and open states.
    for (int i = 0; i < 1000; ++i) queue.try_pop();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();
  producer.join();
  consumer.join();
  // Everything admitted before the close is either already popped or
  // still drainable — the close drops nothing that was accepted.
  std::uint64_t drained = queue.total_popped();
  while (queue.pop().has_value()) ++drained;
  EXPECT_EQ(drained, static_cast<std::uint64_t>(admitted.load()));
  EXPECT_EQ(queue.total_pushed(), static_cast<std::uint64_t>(admitted.load()));
  int late = -1;
  EXPECT_EQ(queue.try_push(late), common::PushResult::kClosed);  // stays closed
}

TEST(BoundedQueueTest, PopAfterCloseDrainsInOrderThenSignalsEndOfStream) {
  common::BoundedQueue<int> queue(8);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(queue.pop(), i);  // FIFO survives close
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  // pop() after end-of-stream stays nullopt (no re-arm, no hang).
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueueTest, TryPushHandsTheItemBackAndTellsFullFromClosed) {
  common::BoundedQueue<std::unique_ptr<int>> queue(1);
  auto first = std::make_unique<int>(1);
  EXPECT_EQ(queue.try_push(first), common::PushResult::kOk);
  EXPECT_EQ(first, nullptr);  // moved in
  auto second = std::make_unique<int>(2);
  EXPECT_EQ(queue.try_push(second), common::PushResult::kFull);
  ASSERT_NE(second, nullptr);  // still the caller's to answer
  EXPECT_EQ(*second, 2);
  queue.close();
  EXPECT_EQ(queue.try_push(second), common::PushResult::kClosed);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 2);
  EXPECT_EQ(queue.total_pushed(), 1u);

  common::BoundedQueue<int> unbounded(common::kUnbounded);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(unbounded.try_push(i), common::PushResult::kOk);
  }
  EXPECT_EQ(unbounded.size(), 1000u);
}

TEST(BoundedQueueTest, PopBatchReturnsAtOnceWhenMaxIsQueued) {
  common::BoundedQueue<int> queue(common::kUnbounded);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(queue.push(i));
  const auto start = std::chrono::steady_clock::now();
  // A 10 s hold would show: a full batch must not wait for company.
  EXPECT_EQ(queue.pop_batch(3, std::chrono::seconds(10)),
            (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.pop_batch(2, std::chrono::seconds(10)),
            (std::vector<int>{4, 5}));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(queue.total_popped(), 5u);
}

TEST(BoundedQueueTest, PopBatchReturnsAnUnderFullBatchAfterTheWait) {
  common::BoundedQueue<int> queue(common::kUnbounded);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch(8, std::chrono::milliseconds(20)),
            (std::vector<int>{1, 2}));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, CloseWakesAWaitingPopBatchWhichDrainsBeforeEmpty) {
  common::BoundedQueue<int> queue(common::kUnbounded);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  std::atomic<bool> returned{false};
  std::vector<int> held;
  // Under-full with a 10 s hold: only the close can end the wait early.
  std::thread consumer([&] {
    held = queue.pop_batch(8, std::chrono::seconds(10));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load());
  const auto closed_at = std::chrono::steady_clock::now();
  queue.close();
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - closed_at,
            std::chrono::seconds(5));
  EXPECT_EQ(held, (std::vector<int>{1, 2}));  // queued items come first...
  EXPECT_TRUE(queue.pop_batch(8, std::chrono::seconds(10)).empty());  // ...then end

  // A consumer parked on an empty queue wakes at close with nothing.
  common::BoundedQueue<int> empty(4);
  std::thread parked([&] {
    EXPECT_TRUE(empty.pop_batch(4, std::chrono::seconds(10)).empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  empty.close();
  parked.join();
}

TEST(BoundedQueueTest, ConcurrentPopBatchConsumersConserveItems) {
  common::BoundedQueue<int> queue(16);
  constexpr int kPerProducer = 2000;
  constexpr std::size_t kMax = 5;
  std::atomic<int> consumed{0};
  std::atomic<bool> bad_batch{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&queue] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(queue.push(i));
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        const std::vector<int> batch =
            queue.pop_batch(kMax, std::chrono::microseconds(100));
        if (batch.empty()) return;  // closed and drained
        if (batch.size() > kMax) bad_batch.store(true);
        consumed.fetch_add(static_cast<int>(batch.size()));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_FALSE(bad_batch.load());
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(queue.total_popped(), queue.total_pushed());
}

TEST(InFlightTest, EnterBlocksAtTheCapAndResumesOnLeave) {
  EXPECT_THROW(common::InFlight(0), InvalidArgument);
  common::InFlight gate(2);
  ASSERT_TRUE(gate.enter());
  ASSERT_TRUE(gate.enter());
  std::atomic<bool> entered{false};
  std::thread third([&] { entered.store(gate.enter()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(entered.load());  // parked on the cap
  EXPECT_EQ(gate.size(), 2u);
  gate.leave();
  third.join();
  EXPECT_TRUE(entered.load());
  EXPECT_EQ(gate.size(), 2u);
}

TEST(InFlightTest, ClosedGateRefusesEnter) {
  common::InFlight gate(1);
  ASSERT_TRUE(gate.enter());
  std::atomic<bool> returned{false};
  std::atomic<bool> entered{true};
  std::thread blocked([&] {
    entered.store(gate.enter());  // at the cap until the close
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load());
  gate.close();
  blocked.join();
  EXPECT_FALSE(entered.load());
  EXPECT_FALSE(gate.enter());
  EXPECT_EQ(gate.size(), 1u);  // the admitted unit still finishes
  gate.leave();
  gate.wait_idle();
  EXPECT_EQ(gate.size(), 0u);
}

TEST(InFlightTest, WaitIdleReturnsAtZero) {
  common::InFlight gate;
  gate.wait_idle();  // idle already: returns at once
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(gate.enter());
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    gate.wait_idle();
    idle.store(true);
  });
  gate.leave();
  gate.leave();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(idle.load());  // one unit still out
  gate.leave();
  waiter.join();
  EXPECT_TRUE(idle.load());
  EXPECT_EQ(gate.size(), 0u);
}

TEST(InFlightTest, LeaveRacingAWaiterThatDestroysTheGateIsClean) {
  // The waiter frees the gate the moment wait_idle() returns, while the
  // leaving thread may still be inside leave(); TSan and ASan flag any
  // touch of the gate after its unlock.
  for (int round = 0; round < 200; ++round) {
    auto gate = std::make_unique<common::InFlight>();
    ASSERT_TRUE(gate->enter());
    common::InFlight* raw = gate.get();
    std::thread leaver([raw] { raw->leave(); });
    gate->wait_idle();
    gate.reset();
    leaver.join();
  }
}

// ------------------------------------------------------------- arrivals

TEST(LoadGeneratorTest, SeededScheduleIsBitReproducible) {
  stream::ArrivalConfig config = stream::LoadGenerator::steady_scenario();
  config.seed = 1234;
  stream::LoadGenerator a(config);
  stream::LoadGenerator b(config);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.next_arrival(), b.next_arrival()) << "arrival " << i;
  }
  EXPECT_EQ(a.virtual_time_s(), b.virtual_time_s());
}

TEST(LoadGeneratorTest, MeanGapMatchesRate) {
  stream::ArrivalConfig config;
  config.rate_per_s = 1000.0;
  config.seed = 7;
  stream::LoadGenerator gen(config);
  constexpr int kArrivals = 20000;
  for (int i = 0; i < kArrivals; ++i) gen.next_arrival();
  const double mean_gap = gen.virtual_time_s() / kArrivals;
  EXPECT_NEAR(mean_gap, 1.0 / config.rate_per_s, 0.1 / config.rate_per_s);
  EXPECT_FALSE(gen.in_burst(0.0));  // no burst configured
}

TEST(LoadGeneratorTest, BurstWindowsDominateTheArrivalCount) {
  stream::ArrivalConfig config = stream::LoadGenerator::mempool_burst_scenario();
  config.rate_per_s = 100.0;
  config.burst_rate_per_s = 10000.0;
  config.seed = 3;
  stream::LoadGenerator gen(config);
  int in_burst = 0;
  constexpr int kArrivals = 20000;
  for (int i = 0; i < kArrivals; ++i) {
    gen.next_arrival();
    if (gen.last_in_burst()) in_burst += 1;
  }
  // Burst windows are 10% of the time but carry 100x the rate, so they
  // must hold the large majority of arrivals (expected ~92%).
  EXPECT_GT(in_burst, kArrivals / 2);
}

TEST(LoadGeneratorTest, RejectsInvalidConfig) {
  stream::ArrivalConfig config;
  config.rate_per_s = 0.0;
  EXPECT_THROW(stream::LoadGenerator{config}, InvalidArgument);
  config = {};
  config.requery_fraction = 1.5;
  EXPECT_THROW(stream::LoadGenerator{config}, InvalidArgument);
  config = {};
  config.burst_rate_per_s = 100.0;
  config.burst_duration_s = 1.0;
  config.burst_every_s = 0.5;  // window wider than its period
  EXPECT_THROW(stream::LoadGenerator{config}, InvalidArgument);
}

// ------------------------------------------------- chaos under streaming

// Satellite: the chaos decorator's seeded fault schedule is a pure
// function of (seed, address, attempt), so reading the chain in streaming
// order (chunked, reordered polls) must observe exactly the faults a
// batch crawl observes.
TEST(FaultScheduleStreaming, ScheduleHoldsUnderStreamingOrder) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  synth::MinerConfig miner_config;
  miner_config.seed = 13;
  synth::ChainMiner miner(chain, explorer, miner_config);
  while (chain.contracts().size() < 30) miner.mine_next_block();

  chain::FaultConfig fault_config;
  fault_config.throw_rate = 0.4;
  fault_config.empty_rate = 0.2;
  fault_config.seed = 11;

  enum Outcome { kOk, kThrew, kEmpty };
  auto probe = [](const chain::Explorer& view,
                  const evm::Address& address) -> Outcome {
    try {
      return view.get_code(address).empty() ? kEmpty : kOk;
    } catch (const TransientError&) {
      return kThrew;
    }
  };
  using Key = std::pair<std::string, int>;  // (address hex, attempt)
  auto outcomes = [&](const chain::Explorer& view,
                      const std::vector<chain::ContractRecord>& order) {
    std::map<Key, Outcome> out;
    for (const chain::ContractRecord& record : order) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        out[{record.address.to_hex(), attempt}] = probe(view, record.address);
      }
    }
    return out;
  };

  // Batch order: the whole journal front to back, two attempts each.
  chain::FaultInjectingExplorer batch_view(explorer, fault_config);
  const auto batch = outcomes(batch_view, chain.contracts());

  // Streaming order: the same records ingested as reversed chunks of 7 —
  // a deliberately scrambled interleaving of the same per-address fetch
  // sequence.
  std::vector<chain::ContractRecord> scrambled;
  const std::vector<chain::ContractRecord>& records = chain.contracts();
  for (std::size_t chunk_end = records.size(); chunk_end > 0;) {
    const std::size_t chunk_begin = chunk_end >= 7 ? chunk_end - 7 : 0;
    for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
      scrambled.push_back(records[i]);
    }
    chunk_end = chunk_begin;
  }
  chain::FaultInjectingExplorer stream_view(explorer, fault_config);
  const auto streamed = outcomes(stream_view, scrambled);

  EXPECT_EQ(batch, streamed);
  EXPECT_EQ(batch_view.stats().throws, stream_view.stats().throws);
  EXPECT_EQ(batch_view.stats().empties, stream_view.stats().empties);
}

TEST(FaultScheduleStreaming, FollowerCountsFaultsAndStillForwards) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  synth::MinerConfig miner_config;
  miner_config.seed = 13;
  synth::ChainMiner miner(chain, explorer, miner_config);
  while (chain.contracts().size() < 30) miner.mine_next_block();

  chain::FaultConfig fault_config;
  fault_config.throw_rate = 0.4;
  fault_config.seed = 11;
  chain::FaultInjectingExplorer chaos(explorer, fault_config);

  stream::FollowerConfig follower_config;
  follower_config.start_block = 0;  // ingest the whole journal
  stream::BlockFollower follower(chaos, follower_config);
  const std::vector<chain::ContractRecord> forwarded = follower.poll();

  const stream::FollowerStats& stats = follower.stats();
  EXPECT_EQ(stats.deployments_seen, chain.contracts().size());
  // Faulted fetches are forwarded anyway — classification is the engine's
  // job — so nothing is lost to chaos.
  EXPECT_EQ(forwarded.size(), chain.contracts().size());
  EXPECT_EQ(stats.forwarded, stats.deployments_seen);
  EXPECT_EQ(stats.code_faults, chaos.stats().throws);
  EXPECT_GT(stats.code_faults, 0u);
  EXPECT_EQ(stats.dedup_unique + stats.dedup_hits + stats.code_faults +
                stats.empty_code,
            stats.deployments_seen);
}

// ----------------------------------------------------------------- dedup

// Satellite: identical runtime bytecode at two different addresses must
// cost one extraction row, serve both requests, and bump the cache-hit
// counter. Run at 1 and 4 workers (the TSan leg covers the racy variant).
TEST(StreamDedup, IdenticalBytecodeTwoAddressesOneModelRow) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  common::Rng rng(42);
  const synth::SynthContract impl =
      synth::ContractSynthesizer().benign(chain::Month{0}, rng);
  const chain::ContractRecord first =
      chain.register_contract(synth::random_address(rng), impl.runtime);
  const chain::ContractRecord second =
      chain.register_contract(synth::random_address(rng), impl.runtime);
  ASSERT_NE(first.address, second.address);
  ASSERT_EQ(first.code_hash, second.code_hash);

  stream::FollowerConfig follower_config;
  follower_config.start_block = 0;
  stream::BlockFollower follower(explorer, follower_config);
  const std::vector<chain::ContractRecord> forwarded = follower.poll();
  EXPECT_EQ(forwarded.size(), 2u);  // duplicates forwarded by default
  EXPECT_EQ(follower.stats().dedup_unique, 1u);
  EXPECT_EQ(follower.stats().dedup_hits, 1u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    serve::EngineConfig engine_config;
    engine_config.workers = workers;
    serve::ScoringEngine engine(explorer, detector(), engine_config);
    const serve::ScoreResult a = submit_future(engine, first.address).get();
    const serve::ScoreResult b = submit_future(engine, second.address).get();
    EXPECT_EQ(a.status, serve::ScoreStatus::kOk);
    EXPECT_EQ(b.status, serve::ScoreStatus::kOk);
    EXPECT_EQ(a.probability, b.probability);
    // One unique hash => exactly one row through the model, and the
    // second request was served from the score cache.
    EXPECT_EQ(engine.metrics().model_rows.value(), 1u);
    EXPECT_GE(engine.cache_stats().hits, 1u);
    EXPECT_TRUE(b.cache_hit);
  }
}

TEST(StreamDedup, DropDuplicatesSuppressesRepeatCode) {
  chain::ChainStore chain;
  chain::Explorer explorer(chain);
  common::Rng rng(42);
  const synth::SynthContract impl =
      synth::ContractSynthesizer().benign(chain::Month{0}, rng);
  chain.register_contract(synth::random_address(rng), impl.runtime);
  chain.register_contract(synth::random_address(rng), impl.runtime);

  stream::FollowerConfig config;
  config.start_block = 0;
  config.drop_duplicates = true;
  stream::BlockFollower follower(explorer, config);
  EXPECT_EQ(follower.poll().size(), 1u);
  EXPECT_EQ(follower.stats().dropped, 1u);
  EXPECT_EQ(follower.stats().forwarded, 1u);
}

TEST(StreamDedup, FollowerCountsReproducibleAcrossSameSeedChains) {
  auto run = [] {
    stream::LiveChain live;  // default miner seed
    for (int b = 0; b < 40; ++b) live.mine_next_block();
    stream::FollowerConfig config;
    config.start_block = 0;
    stream::BlockFollower follower(live.explorer(), config);
    follower.poll();
    return follower.stats();
  };
  const stream::FollowerStats a = run();
  const stream::FollowerStats b = run();
  EXPECT_GT(a.deployments_seen, 0u);
  EXPECT_EQ(a.deployments_seen, b.deployments_seen);
  EXPECT_EQ(a.dedup_unique, b.dedup_unique);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.forwarded, b.forwarded);
  // The miner's campaign structure guarantees real duplication.
  EXPECT_GT(a.dedup_hits, 0u);
}

// ------------------------------------------------------------ coordinator

TEST(StreamFollowerTest, AttachAtHeadSkipsHistory) {
  stream::LiveChain live;
  for (int b = 0; b < 10; ++b) live.mine_next_block();
  stream::BlockFollower follower(live.explorer());  // attach at head
  EXPECT_TRUE(follower.poll().empty());
  live.mine_next_block();
  const std::size_t new_deployments = follower.poll().size();
  EXPECT_EQ(follower.stats().deployments_seen, new_deployments);
  EXPECT_EQ(follower.cursor(), live.head_block());
}

stream::StreamReport run_coordinator(std::uint64_t max_requests,
                                     std::uint64_t max_blocks) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.poll_interval_us = 500;
  config.max_blocks = max_blocks;
  config.max_requests = max_requests;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  if (max_requests != 0) {
    // The generator can hit max_requests before the miner reaches
    // max_blocks (and drain() stops the miner), so wait for both: every
    // run then mines the same chain, however fast scoring is.
    while (!coordinator.finished() ||
           live.miner_stats().blocks_mined < max_blocks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  coordinator.drain();
  return coordinator.report();
}

TEST(StreamCoordinatorTest, ExactSubmissionCountAndAccounting) {
  const stream::StreamReport a = run_coordinator(/*max_requests=*/300,
                                                 /*max_blocks=*/40);
  const stream::StreamReport b = run_coordinator(300, 40);
  for (const stream::StreamReport& report : {a, b}) {
    EXPECT_EQ(report.submitted, 300u);
    EXPECT_TRUE(report.accounting_ok())
        << "submitted=" << report.submitted
        << " completed=" << report.completed << " failed=" << report.failed
        << " shed=" << report.shed;
    EXPECT_EQ(report.fresh_submits + report.requery_submits,
              report.submitted);
    EXPECT_EQ(report.miner.blocks_mined, 40u);
  }
  // Chain content is a pure function of the miner seed: both runs mined
  // the same deployments even though scheduling differed.
  EXPECT_EQ(a.miner.deployments, b.miner.deployments);
  EXPECT_EQ(a.miner.phishing_deployments, b.miner.phishing_deployments);
  EXPECT_EQ(a.miner.clone_deployments, b.miner.clone_deployments);
}

TEST(StreamCoordinatorTest, DrainFlushesEveryForwardedAddress) {
  const stream::StreamReport report = run_coordinator(/*max_requests=*/0,
                                                      /*max_blocks=*/30);
  EXPECT_TRUE(report.accounting_ok());
  // Full drain with no request cap: the generator flushed the entire
  // follower feed, so every deployment was submitted exactly once as a
  // fresh request.
  EXPECT_EQ(report.fresh_submits, report.follower.forwarded);
  EXPECT_EQ(report.follower.forwarded, report.follower.deployments_seen);
  EXPECT_EQ(report.follower.deployments_seen, report.miner.deployments);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_GT(report.completed, 0u);
}

TEST(StreamCoordinatorTest, OverloadedEngineShedsButConservesAccounting) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 1;
  engine_config.max_queue = 1;  // drastic admission control
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 20;
  config.max_requests = 400;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  const stream::StreamReport report = coordinator.report();
  EXPECT_EQ(report.submitted, 400u);
  EXPECT_TRUE(report.accounting_ok());
  // A 1-deep queue against an unpaced flood must reject work.
  EXPECT_GT(report.shed, 0u);
}

TEST(StreamCoordinatorTest, MetricsExpositionCarriesStreamSeries) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 5;
  config.max_requests = 20;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  std::ostringstream out;
  coordinator.registry().write_prometheus(out);
  const std::string exposition = out.str();
  EXPECT_NE(exposition.find("stream_requests_submitted"), std::string::npos);
  EXPECT_NE(exposition.find("stream_ingest_lag_blocks"), std::string::npos);
  EXPECT_NE(exposition.find("stream_fresh_submits"), std::string::npos);
  EXPECT_NE(exposition.find("stream_requests_shed"), std::string::npos);
}

TEST(StreamTelemetryTest, OneTraceIdConnectsAtLeastFourPipelineStages) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(1 << 15);

  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.poll_interval_us = 500;
  config.max_blocks = 10;
  config.max_requests = 40;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  engine.shutdown();  // quiesce every recording thread before the export
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  tracer.clear();

  // Group the async stage slices by trace id: each exported object is flat,
  // so scanning "{...}" substrings is enough.
  std::map<std::string, std::set<std::string>> stages_by_id;
  std::size_t at = 0;
  while ((at = json.find("{\"name\":\"", at)) != std::string::npos) {
    const std::size_t end = json.find('}', at);
    const std::string object = json.substr(at, end - at + 1);
    at = end;
    if (object.find("\"cat\":\"phook.req\"") == std::string::npos) continue;
    if (object.find("\"ph\":\"b\"") == std::string::npos) continue;
    const std::size_t name_begin = 9;  // after {"name":"
    const std::string name =
        object.substr(name_begin, object.find('"', name_begin) - name_begin);
    const std::size_t id_begin = object.find("\"id\":\"") + 6;
    const std::string id =
        object.substr(id_begin, object.find('"', id_begin) - id_begin);
    if (name != "request") stages_by_id[id].insert(name);
  }

  // The acceptance bar: a single request's journey is visible as one
  // connected lane across >= 4 pipeline stages. A fresh submission passes
  // ingest -> addr_queue -> engine queue -> extract (and usually predict).
  bool connected = false;
  for (const auto& [id, stages] : stages_by_id) {
    if (stages.count("req.ingest") != 0 && stages.count("req.addr_queue") != 0 &&
        stages.count("req.queue") != 0 && stages.count("req.extract") != 0) {
      connected = true;
      break;
    }
  }
  EXPECT_TRUE(connected)
      << "no trace id spans ingest/addr_queue/queue/extract; lanes seen: "
      << stages_by_id.size();

  // The flow arrows stitching the lane to the per-thread spans made it out
  // too, including the consumer-side finish.
  EXPECT_NE(json.find("\"cat\":\"phook.flow\",\"ph\":\"s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

// Fresh addresses carry a lane minted at ingest, which the coordinator
// closes once the outcome is tallied; re-queries get a lane the engine
// mints and closes itself. Either way every lane closes exactly once.
TEST(StreamTelemetryTest, EveryRequestLaneClosesExactlyOnce) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(1 << 16);

  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 10;
  config.max_requests = 200;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();
  engine.shutdown();
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();

  const stream::StreamReport report = coordinator.report();
  ASSERT_TRUE(report.accounting_ok());
  ASSERT_GT(report.fresh_submits, 0u);
  ASSERT_GT(report.requery_submits, 0u);
  const std::map<std::string, LaneCount> lanes = request_lanes(out.str());
  // One lane per submission, plus one per forwarded address the run ended
  // without submitting.
  EXPECT_GE(lanes.size(), report.submitted);
  for (const auto& [id, lane] : lanes) {
    EXPECT_EQ(lane.begins, 1) << "lane " << id;
    EXPECT_EQ(lane.ends, 1) << "lane " << id;
  }
}

TEST(StreamTelemetryTest, WindowSloAndHealthSurfaceAfterDrain) {
  stream::LiveChain live;
  serve::EngineConfig engine_config;
  engine_config.workers = 2;
  serve::ScoringEngine engine(live.explorer(), detector(), engine_config);
  stream::StreamConfig config;
  config.paced = false;
  config.follower.start_block = 0;
  config.max_blocks = 10;
  config.max_requests = 60;
  // A window far wider than the test runtime, so nothing decays between
  // the last result and the assertions below.
  config.window.window_seconds = 300.0;
  config.window.bucket_count = 10;
  config.slo.target_error_ratio = 0.5;
  stream::StreamCoordinator coordinator(live, engine, config);

  EXPECT_NE(coordinator.health_json().find("\"status\":\"idle\""),
            std::string::npos);
  coordinator.start();
  while (!coordinator.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coordinator.drain();

  // Every collected result landed in the sliding window.
  const stream::StreamReport report = coordinator.report();
  ASSERT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.window.total, report.completed + report.failed + report.shed);
  EXPECT_GT(report.window.total, 0u);
  EXPECT_GT(report.window.rate_per_sec, 0.0);
  EXPECT_GT(report.window.p99_us, 0.0);
  EXPECT_GE(report.shed_pressure, 0.0);
  EXPECT_LE(report.shed_pressure, 1.0);

  // evaluate_slo publishes the windowed series into the stream registry.
  const obs::SloEvaluator::Evaluation eval = coordinator.evaluate_slo();
  EXPECT_EQ(eval.window.total, report.window.total);
  std::ostringstream out;
  coordinator.registry().write_prometheus(out);
  const std::string exposition = out.str();
  EXPECT_NE(exposition.find("stream_window_rate_per_sec"), std::string::npos);
  EXPECT_NE(exposition.find("stream_window_p99_us"), std::string::npos);
  EXPECT_NE(exposition.find("stream_error_burn_rate"), std::string::npos);
  EXPECT_NE(exposition.find("stream_shed_pressure"), std::string::npos);
  // The addr-queue hop recorded its hand-off waits.
  EXPECT_NE(exposition.find("stream_stage_wait_us{stage=\"addr_queue\""),
            std::string::npos);

  // /healthz-shaped state: drained, every queue closed, counts present.
  const std::string health = coordinator.health_json();
  EXPECT_NE(health.find("\"status\":\"drained\""), std::string::npos);
  EXPECT_NE(health.find("\"finished\":true"), std::string::npos);
  EXPECT_NE(health.find("\"queues\":{\"addresses\":{"), std::string::npos);
  EXPECT_NE(health.find("\"closed\":true"), std::string::npos);
  EXPECT_NE(health.find("\"in_flight\":{\"size\":0,\"capacity\":8192}"),
            std::string::npos)
      << health;
}

TEST(StreamCoordinatorTest, StartTwiceThrows) {
  stream::LiveChain live;
  serve::ScoringEngine engine(live.explorer(), detector(), {});
  stream::StreamConfig config;
  config.paced = false;
  config.max_blocks = 1;
  config.max_requests = 1;
  stream::StreamCoordinator coordinator(live, engine, config);
  coordinator.start();
  EXPECT_THROW(coordinator.start(), StateError);
  coordinator.drain();
}

}  // namespace
}  // namespace phishinghook
