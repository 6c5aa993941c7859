// Decorators the benchmark swaps in around the two things the engine
// borrows, so per-layer work can be counted and timed from outside the
// program: the chain read path (chain::Explorer) and the detector
// (ml::Scorer). Both forward every virtual, so the engine takes exactly
// the path it takes on the bare objects.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chain/explorer.hpp"
#include "ml/scorer.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace servebench {

/// Counts and times the engine's code fetches (eth_getCode / get_code);
/// every other read forwards untouched.
class TimedExplorer final : public phishinghook::chain::Explorer {
 public:
  explicit TimedExplorer(const phishinghook::chain::Explorer& inner)
      : phishinghook::chain::Explorer(inner.chain()), inner_(&inner) {}

  std::string eth_get_code(
      const phishinghook::evm::Address& address) const override {
    const double start_us = now_s() * 1e6;
    std::string code = inner_->eth_get_code(address);
    note(start_us);
    return code;
  }
  phishinghook::evm::Bytecode get_code(
      const phishinghook::evm::Address& address) const override {
    const double start_us = now_s() * 1e6;
    phishinghook::evm::Bytecode code = inner_->get_code(address);
    note(start_us);
    return code;
  }
  phishinghook::chain::ContractFlag flag_of(
      const phishinghook::evm::Address& address) const override {
    return inner_->flag_of(address);
  }
  std::vector<phishinghook::evm::Address> crawl(
      phishinghook::chain::Month from,
      phishinghook::chain::Month to) const override {
    return inner_->crawl(from, to);
  }
  phishinghook::chain::ChainTail crawl_after(
      std::uint64_t after_block) const override {
    return inner_->crawl_after(after_block);
  }
  std::uint64_t head_block() const override { return inner_->head_block(); }
  std::size_t flagged_count() const override {
    return inner_->flagged_count();
  }

  std::uint64_t calls() const { return calls_.load(); }
  double busy_us() const { return static_cast<double>(busy_ns_.load()) / 1e3; }
  /// Zeroes the counts (call while no request is in flight).
  void reset() {
    calls_.store(0);
    busy_ns_.store(0);
  }

 private:
  void note(double start_us) const {
    const double end_us = now_s() * 1e6;
    calls_.fetch_add(1, std::memory_order_relaxed);
    busy_ns_.fetch_add(static_cast<std::uint64_t>((end_us - start_us) * 1e3),
                       std::memory_order_relaxed);
    record_span("chain.get_code", start_us, end_us);
  }

  const phishinghook::chain::Explorer* inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

/// Forwards every ml::Scorer virtual to `inner`. Base of the timing and
/// perturbing decorators; on its own it is a pass-through.
class ForwardingScorer : public phishinghook::ml::Scorer {
 public:
  explicit ForwardingScorer(phishinghook::ml::Scorer& inner)
      : inner_(&inner) {}

  void score_batch(const phishinghook::ml::BytecodeBatchView& view,
                   std::span<phishinghook::ml::ScoredRow> out) override {
    inner_->score_batch(view, out);
  }
  std::string name() const override { return inner_->name(); }
  std::string version() const override { return inner_->version(); }
  std::size_t stage_count() const override { return inner_->stage_count(); }
  std::string stage_model(std::size_t index) const override {
    return inner_->stage_model(index);
  }
  const phishinghook::ml::FlatTreeEnsemble* flat_ensemble() const override {
    return inner_->flat_ensemble();
  }
  void bind_metrics(phishinghook::obs::MetricsRegistry& registry) override {
    inner_->bind_metrics(registry);
  }
  void export_metrics(
      phishinghook::obs::MetricsRegistry& registry) const override {
    inner_->export_metrics(registry);
  }

 protected:
  phishinghook::ml::Scorer* inner_;
};

/// Counts score_batch calls and rows, and the time spent inside them.
class TimedScorer final : public ForwardingScorer {
 public:
  using ForwardingScorer::ForwardingScorer;

  void score_batch(const phishinghook::ml::BytecodeBatchView& view,
                   std::span<phishinghook::ml::ScoredRow> out) override {
    const double start_us = now_s() * 1e6;
    inner_->score_batch(view, out);
    const double end_us = now_s() * 1e6;
    calls_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(view.size(), std::memory_order_relaxed);
    busy_ns_.fetch_add(static_cast<std::uint64_t>((end_us - start_us) * 1e3),
                       std::memory_order_relaxed);
    record_span("scorer.score_batch", start_us, end_us);
  }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t rows() const { return rows_.load(); }
  double busy_us() const { return static_cast<double>(busy_ns_.load()) / 1e3; }
  /// Zeroes the counts (call while no request is in flight).
  void reset() {
    calls_.store(0);
    rows_.store(0);
    busy_ns_.store(0);
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// Moves the first row the detector ever scores by one ulp — a wrong
/// verdict the benchmark's check must catch. Used only by the self-tests.
class PerturbingScorer final : public ForwardingScorer {
 public:
  using ForwardingScorer::ForwardingScorer;

  void score_batch(const phishinghook::ml::BytecodeBatchView& view,
                   std::span<phishinghook::ml::ScoredRow> out) override {
    inner_->score_batch(view, out);
    if (!out.empty() && !done_.exchange(true)) {
      double& p = out[0].probability;
      p = std::nextafter(p, p < 0.5 ? 1.0 : 0.0);
    }
  }

 private:
  std::atomic<bool> done_{false};
};

}  // namespace servebench
