#include "tune/autotuner.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "sparse/layout.hpp"

namespace scc::tune {

namespace {

/// Context half of the TuningKey: the timing-relevant engine configuration
/// (reusing sim::run_key's canonical config hash via a fixed probe spec on a
/// fixed 1x1 matrix, so the two layers cannot drift apart) plus the fast-path
/// switch. The grid is a constant: changing it bumps
/// TuningCache::kSnapshotVersion.
std::uint64_t compute_context_hash(const sim::EngineConfig& engine_config,
                                   const AutotuneConfig& config) {
  const sparse::CsrMatrix probe(1, 1, {0, 1}, {0}, {1.0});
  const sim::RunKey probe_key = sim::run_key(probe, engine_config, {0}, sim::RunSpec{});
  common::Fnv1a hash;
  hash.u64(probe_key.spec);
  hash.boolean(config.feature_fastpath);
  return hash.value();
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9e", seconds);
  return buffer;
}

std::string format_hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

Autotuner::Autotuner(const sim::EngineConfig& engine_config, AutotuneConfig config,
                     std::shared_ptr<TuningCache> cache,
                     std::shared_ptr<sim::RunCache> run_cache)
    : config_(std::move(config)), engine_(engine_config), cache_(std::move(cache)) {
  SCC_REQUIRE(cache_ != nullptr, "autotuner needs a TuningCache");
  if (run_cache != nullptr) engine_.attach_run_cache(std::move(run_cache));
  context_hash_ = compute_context_hash(engine_config, config_);
}

double Autotuner::evaluate(const sparse::CsrMatrix& matrix, const Candidate& candidate) {
  sim::RunSpec spec;
  spec.ue_count = candidate.ue_count;
  spec.policy = candidate.policy;
  spec.format = candidate.format;
  spec.reorder = candidate.reorder;
  const double seconds = engine_.run(matrix, spec).seconds;
  ++counters_.explore_runs;
  counters_.explore_seconds += seconds;
  return seconds;
}

TuningDecision Autotuner::decide(const sparse::CsrMatrix& matrix, int matrix_id) {
  const TuningKey key{matrix.fingerprint(), context_hash_};
  if (const std::optional<TuningDecision> hit = cache_->lookup(key)) {
    ++counters_.cache_hits;
    return *hit;
  }

  const FeatureVector features = extract_features(matrix);
  const std::uint64_t klass = class_key(features);
  const bool square = matrix.rows() == matrix.cols();

  TuningDecision decision;
  decision.class_key = klass;

  std::optional<Candidate> predicted;
  if (config_.feature_fastpath) {
    predicted = cache_->class_winner(klass);
    if (predicted && predicted->reorder != sim::Reordering::kNone && !square) {
      predicted.reset();  // a reordered winner cannot carry to a non-square shape
    }
  }

  if (predicted) {
    // Fast path: familiar structure -- evaluate only the class winner and
    // the canonical CSR plan at the same footprint (truncated exploration).
    decision.choice = *predicted;
    decision.modeled_seconds = evaluate(matrix, decision.choice);
    const Candidate baseline{sim::StorageFormat::kCsr, sim::Reordering::kNone,
                             decision.choice.ue_count, decision.choice.policy};
    decision.baseline_seconds = baseline == decision.choice
                                    ? decision.modeled_seconds
                                    : evaluate(matrix, baseline);
    decision.predicted = true;
    decision.explored_runs = baseline == decision.choice ? 1 : 2;
    ++counters_.predicted;
  } else {
    // Full exploration, in a fixed canonical order (format, reorder, core
    // count) with strict-less scoring, so ties resolve to the earliest --
    // CSR-first, fewest-assumptions -- candidate.
    double best_score = 0.0;
    double best_csr_seconds = 0.0;
    bool have_best = false;
    bool have_csr = false;
    int runs = 0;
    for (const sim::StorageFormat format : kGrid.formats) {
      for (const sim::Reordering reorder :
           {sim::Reordering::kNone, sim::Reordering::kRcmRows}) {
        if (reorder == sim::Reordering::kRcmRows && !square) continue;
        for (const int cores : kGrid.core_counts) {
          const Candidate candidate{format, reorder, cores, kGrid.mapping};
          const double seconds = evaluate(matrix, candidate);
          ++runs;
          const double score =
              seconds * (1.0 + kGrid.core_time_weight * static_cast<double>(cores - 1) / 47.0);
          if (!have_best || score < best_score) {
            have_best = true;
            best_score = score;
            decision.choice = candidate;
            decision.modeled_seconds = seconds;
          }
          if (format == sim::StorageFormat::kCsr && reorder == sim::Reordering::kNone &&
              (!have_csr || seconds < best_csr_seconds)) {
            have_csr = true;
            best_csr_seconds = seconds;
          }
        }
      }
    }
    decision.baseline_seconds = have_csr ? best_csr_seconds : decision.modeled_seconds;
    decision.predicted = false;
    decision.explored_runs = runs;
    ++counters_.explored;
    cache_->note_class_winner(klass, decision.choice);
  }

  cache_->insert(key, decision);
  log_.push_back(DecisionRecord{key.matrix, matrix_id, decision});
  return decision;
}

std::string Autotuner::decision_log_text() const {
  std::string text;
  for (const DecisionRecord& record : log_) {
    const TuningDecision& d = record.decision;
    text += "matrix=" + format_hex(record.fingerprint);
    text += " id=" + std::to_string(record.matrix_id);
    text += " class=" + format_hex(d.class_key);
    text += d.predicted ? " source=predicted" : " source=explored";
    text += " format=" + sim::to_string(d.choice.format);
    text += " reorder=" + sim::to_string(d.choice.reorder);
    text += " cores=" + std::to_string(d.choice.ue_count);
    text += " mapping=" + chip::to_string(d.choice.policy);
    text += " modeled=" + format_seconds(d.modeled_seconds);
    text += " baseline=" + format_seconds(d.baseline_seconds);
    text += " runs=" + std::to_string(d.explored_runs);
    text += "\n";
  }
  return text;
}

std::vector<real_t> plan_product(const sparse::CsrMatrix& matrix, const Candidate& candidate,
                                 std::span<const real_t> x) {
  SCC_REQUIRE(static_cast<index_t>(x.size()) == matrix.cols(),
              "x size " << x.size() << " != cols " << matrix.cols());

  // Row schedule: with kRcmRows rows are *visited* in RCM order but each
  // result lands in its original slot -- the per-row sum is untouched.
  std::vector<index_t> schedule(static_cast<std::size_t>(matrix.rows()));
  if (candidate.reorder == sim::Reordering::kRcmRows) {
    const auto perm = matrix.rcm_order();
    schedule.assign(perm.begin(), perm.end());
  } else {
    for (index_t r = 0; r < matrix.rows(); ++r) schedule[static_cast<std::size_t>(r)] = r;
  }

  // Per-row padded width of the storage plan. Padding slots hold value 0.0
  // at column 0 (the ELL convention), contributing +0.0 terms that keep the
  // running sum bit-identical for finite x. HYB pads rows shorter than its
  // split width; its tail spills to COO.
  index_t ell_width = 0;
  if (candidate.format == sim::StorageFormat::kEll) {
    ell_width = sparse::ell_width(matrix, 0, matrix.rows());
  } else if (candidate.format == sim::StorageFormat::kHyb) {
    ell_width = sparse::hyb_split(matrix, 0, matrix.rows()).width;
  }
  const index_t block = sim::format_params(candidate.format).block_size;

  std::vector<real_t> y(static_cast<std::size_t>(matrix.rows()), 0.0);
  for (const index_t row : schedule) {
    const auto cols = matrix.row_cols(row);
    const auto vals = matrix.row_vals(row);
    real_t acc = 0.0;
    if (block > 0) {
      // BCSR canonical order: stored blocks ascending by column, row-major
      // within -- for one row that is its entries ascending with explicit
      // 0.0 fill terms on the block's empty slots.
      std::size_t k = 0;
      while (k < cols.size()) {
        const index_t col_base = (cols[k] / block) * block;
        for (index_t j = 0; j < block; ++j) {
          const index_t c = col_base + j;
          if (k < cols.size() && cols[k] == c) {
            acc += vals[k] * x[static_cast<std::size_t>(c)];
            ++k;
          } else if (c < matrix.cols()) {
            acc += 0.0 * x[static_cast<std::size_t>(c)];
          }
        }
      }
    } else {
      for (std::size_t k = 0; k < cols.size(); ++k) {
        acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
      }
      // ELL slab padding (HYB pads rows shorter than the split width; its
      // COO tail keeps the ascending order already accumulated above).
      for (index_t j = static_cast<index_t>(cols.size()); j < ell_width; ++j) {
        acc += 0.0 * x[0];
      }
    }
    y[static_cast<std::size_t>(row)] = acc;
  }
  return y;
}

}  // namespace scc::tune
