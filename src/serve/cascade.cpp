#include "serve/cascade.hpp"

#include <chrono>
#include <cmath>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace phishinghook::serve {

namespace {

/// Monotonic nanoseconds for the per-stage timing accumulators.
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

CascadeScorer::CascadeScorer(std::vector<std::unique_ptr<ml::Scorer>> stages,
                             CascadeConfig config)
    : stages_(std::move(stages)), config_(config) {
  if (stages_.empty()) {
    throw InvalidArgument("cascade needs at least one stage");
  }
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (!stages_[s]) {
      throw InvalidArgument("cascade stage " + std::to_string(s) + " is null");
    }
  }
  if (!std::isfinite(config_.lo) || !std::isfinite(config_.hi)) {
    throw InvalidArgument("cascade band must be finite");
  }
  if (config_.enabled() &&
      (config_.lo < 0.0 || config_.hi > 1.0)) {
    throw InvalidArgument("cascade band [" + std::to_string(config_.lo) +
                          ", " + std::to_string(config_.hi) +
                          "] outside [0, 1]");
  }
  state_ = std::make_unique<StageState[]>(stages_.size());
}

std::string CascadeScorer::name() const {
  std::string out = "cascade(";
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (s != 0) out += " -> ";
    out += stages_[s]->name();
  }
  out += ")";
  return out;
}

std::string CascadeScorer::stage_model(std::size_t index) const {
  return stages_.at(index)->name();
}

void CascadeScorer::score_batch(const ml::BytecodeBatchView& view,
                                std::span<ml::ScoredRow> out) {
  if (out.size() != view.size()) {
    throw InvalidArgument("cascade score_batch: out span size " +
                          std::to_string(out.size()) + " != view size " +
                          std::to_string(view.size()));
  }
  if (view.empty()) return;

  // Stage 0 scores everything. A failure here propagates: there is no
  // earlier probability to degrade to.
  {
    obs::ScopedSpan span("cascade.stage", stages_[0]->name().c_str());
    const std::uint64_t start = now_ns();
    stages_[0]->score_batch(view, out);
    const std::uint64_t elapsed = now_ns() - start;
    StageState& st = state_[0];
    st.rows.fetch_add(view.size(), std::memory_order_relaxed);
    st.time_ns.fetch_add(elapsed, std::memory_order_relaxed);
    st.rows_counter.inc(view.size());
    if (st.stage_us) st.stage_us->record(static_cast<double>(elapsed) * 1e-3);
  }
  for (std::size_t i = 0; i < view.size(); ++i) {
    // Whatever a nested scorer reported, rows leaving stage 0 of *this*
    // cascade carry this cascade's stage numbering.
    out[i].stage = 0;
    out[i].degraded = false;
  }
  if (!config_.enabled() || stages_.size() == 1) return;

  // Escalate while the current probability stays inside the band. The
  // decision reads only the row's own probability, so results cannot
  // depend on batch composition, worker count, or timing.
  std::vector<std::size_t> uncertain;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (config_.in_band(out[i].probability)) uncertain.push_back(i);
  }

  std::vector<const evm::Bytecode*> sub_codes;
  std::vector<ml::ScoredRow> sub_rows;
  for (std::size_t s = 1; s < stages_.size() && !uncertain.empty(); ++s) {
    sub_codes.clear();
    sub_codes.reserve(uncertain.size());
    for (std::size_t idx : uncertain) sub_codes.push_back(view[idx]);
    sub_rows.assign(uncertain.size(), ml::ScoredRow{});

    StageState& st = state_[s];
    st.escalations.fetch_add(uncertain.size(), std::memory_order_relaxed);
    st.escalations_counter.inc(uncertain.size());

    const std::uint64_t start = now_ns();
    bool scored = false;
    try {
      obs::ScopedSpan span("cascade.stage", stages_[s]->name().c_str());
      stages_[s]->score_batch(sub_codes, sub_rows);
      scored = true;
    } catch (...) {
      // Heavy-stage fault: the escalated rows keep the probability the
      // last healthy stage gave them, flagged degraded so the caller can
      // tell a refined score from a fallback (and skip caching it).
      st.faults.fetch_add(1, std::memory_order_relaxed);
      st.faults_counter.inc();
      degraded_.fetch_add(uncertain.size(), std::memory_order_relaxed);
      degraded_counter_.inc(uncertain.size());
      for (std::size_t idx : uncertain) out[idx].degraded = true;
    }
    const std::uint64_t elapsed = now_ns() - start;
    st.time_ns.fetch_add(elapsed, std::memory_order_relaxed);
    if (st.stage_us) st.stage_us->record(static_cast<double>(elapsed) * 1e-3);
    if (!scored) return;  // deeper stages have nothing healthy to refine

    st.rows.fetch_add(uncertain.size(), std::memory_order_relaxed);
    st.rows_counter.inc(uncertain.size());
    std::vector<std::size_t> still_uncertain;
    for (std::size_t u = 0; u < uncertain.size(); ++u) {
      const std::size_t idx = uncertain[u];
      out[idx].probability = sub_rows[u].probability;
      out[idx].stage = static_cast<std::uint32_t>(s);
      out[idx].degraded = false;
      if (config_.in_band(out[idx].probability)) {
        still_uncertain.push_back(idx);
      }
    }
    uncertain = std::move(still_uncertain);
  }
}

void CascadeScorer::bind_metrics(obs::MetricsRegistry& registry) {
  registry.set_help("serve_cascade_stage_rows",
                    "Rows scored by each cascade stage");
  registry.set_help("serve_cascade_escalations",
                    "Rows escalated into each cascade stage");
  registry.set_help("serve_cascade_stage_faults",
                    "Throwing score_batch invocations per cascade stage");
  registry.set_help("serve_cascade_degraded_rows",
                    "Rows delivered on a fallback score after a heavy-stage "
                    "fault");
  registry.set_help("serve_cascade_stage_us",
                    "Wall time per cascade-stage invocation");
  registry.set_help("serve_cascade_escalation_rate",
                    "Fraction of rows escalated past stage 0");
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const std::string labels =
        obs::label("stage", std::to_string(s)) + "," +
        obs::label("model", stages_[s]->name());
    StageState& st = state_[s];
    st.rows_counter = registry.counter("serve_cascade_stage_rows", labels);
    st.escalations_counter =
        registry.counter("serve_cascade_escalations", labels);
    st.faults_counter =
        registry.counter("serve_cascade_stage_faults", labels);
    st.stage_us = &registry.histogram("serve_cascade_stage_us", labels);
  }
  degraded_counter_ = registry.counter("serve_cascade_degraded_rows");
  // Nested composite stages get their instruments on the same registry.
  for (const std::unique_ptr<ml::Scorer>& stage : stages_) {
    stage->bind_metrics(registry);
  }
}

void CascadeScorer::export_metrics(obs::MetricsRegistry& registry) const {
  registry.gauge("serve_cascade_escalation_rate")
      .set(stats().escalation_rate());
  for (const std::unique_ptr<ml::Scorer>& stage : stages_) {
    stage->export_metrics(registry);
  }
}

CascadeStats CascadeScorer::stats() const {
  CascadeStats out;
  out.stages.reserve(stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const StageState& st = state_[s];
    CascadeStageStats row;
    row.model = stages_[s]->name();
    row.rows = st.rows.load(std::memory_order_relaxed);
    row.escalations = st.escalations.load(std::memory_order_relaxed);
    row.faults = st.faults.load(std::memory_order_relaxed);
    row.total_us =
        static_cast<double>(st.time_ns.load(std::memory_order_relaxed)) * 1e-3;
    out.stages.push_back(std::move(row));
  }
  out.rows_total = out.stages.front().rows;
  // "Escalated" means left stage 0 — rows entering stage 1. Deeper hops
  // are visible per stage but would double-count rows here.
  if (out.stages.size() > 1) out.escalations_total = out.stages[1].escalations;
  out.degraded_total = degraded_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace phishinghook::serve
