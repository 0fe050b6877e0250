#include "tune/autotuner.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace scc::tune {

namespace {

/// Context half of the TuningKey: the timing-relevant engine configuration
/// (reusing sim::run_key's canonical config hash via a fixed probe spec on a
/// fixed 1x1 matrix, so the two layers cannot drift apart) plus the
/// exploration grid and scoring knobs.
std::uint64_t compute_context_hash(const sim::EngineConfig& engine_config,
                                   const AutotuneConfig& config) {
  const sparse::CsrMatrix probe(1, 1, {0, 1}, {0}, {1.0});
  const sim::RunKey probe_key = sim::run_key(probe, engine_config, {0}, sim::RunSpec{});
  common::Fnv1a hash;
  hash.u64(probe_key.spec);
  hash.u64(config.formats.size());
  for (const sim::StorageFormat format : config.formats) {
    hash.u64(static_cast<std::uint64_t>(format));
  }
  hash.boolean(config.try_reorder);
  hash.array(std::span<const int>(config.core_counts));
  hash.u64(config.mappings.size());
  for (const chip::MappingPolicy policy : config.mappings) {
    hash.u64(static_cast<std::uint64_t>(policy));
  }
  hash.boolean(config.feature_fastpath);
  hash.f64(config.core_time_weight);
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
  SCC_REQUIRE(!config_.formats.empty(), "autotuner needs at least one format");
  SCC_REQUIRE(!config_.core_counts.empty(), "autotuner needs at least one core count");
  SCC_REQUIRE(!config_.mappings.empty(), "autotuner needs at least one mapping");
  for (const int cores : config_.core_counts) {
    SCC_REQUIRE(cores >= 1 && cores <= 48, "core count " << cores << " out of range [1,48]");
  }
  SCC_REQUIRE(config_.core_time_weight >= 0.0, "core_time_weight must be non-negative");
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
    // Full exploration, in a fixed canonical order (format, reorder,
    // mapping, core count) with strict-less scoring, so ties resolve to the
    // earliest -- CSR-first, fewest-assumptions -- candidate.
    double best_score = 0.0;
    double best_csr_seconds = 0.0;
    bool have_best = false;
    bool have_csr = false;
    int runs = 0;
    for (const sim::StorageFormat format : config_.formats) {
      for (const sim::Reordering reorder :
           {sim::Reordering::kNone, sim::Reordering::kRcmRows}) {
        if (reorder == sim::Reordering::kRcmRows && (!config_.try_reorder || !square)) {
          continue;
        }
        for (const chip::MappingPolicy policy : config_.mappings) {
          for (const int cores : config_.core_counts) {
            const Candidate candidate{format, reorder, cores, policy};
            const double seconds = evaluate(matrix, candidate);
            ++runs;
            const double score =
                seconds *
                (1.0 + config_.core_time_weight * static_cast<double>(cores - 1) / 47.0);
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
  // running sum bit-identical for finite x.
  index_t ell_width = 0;
  if (candidate.format == sim::StorageFormat::kEll ||
      candidate.format == sim::StorageFormat::kHyb) {
    for (index_t r = 0; r < matrix.rows(); ++r) {
      ell_width = std::max(ell_width, matrix.row_length(r));
    }
    if (candidate.format == sim::StorageFormat::kHyb) {
      // Bell-Garland split: smallest width whose COO tail is <= 33% of nnz.
      std::vector<nnz_t> longer(static_cast<std::size_t>(ell_width) + 1, 0);
      for (index_t r = 0; r < matrix.rows(); ++r) {
        ++longer[static_cast<std::size_t>(matrix.row_length(r))];
      }
      // longer[w] after suffix-summing row lengths: nnz spilled at width w.
      std::vector<nnz_t> spill(static_cast<std::size_t>(ell_width) + 1, 0);
      for (index_t w = 0; w < ell_width; ++w) {
        nnz_t tail = 0;
        for (index_t len = w + 1; len <= ell_width; ++len) {
          tail += longer[static_cast<std::size_t>(len)] * static_cast<nnz_t>(len - w);
        }
        spill[static_cast<std::size_t>(w)] = tail;
      }
      const auto budget =
          static_cast<nnz_t>(0.33 * static_cast<double>(matrix.nnz()));
      index_t w = 0;
      while (w < ell_width && spill[static_cast<std::size_t>(w)] > budget) ++w;
      ell_width = w;  // rows shorter than w are padded; the tail spills to COO
    }
  }
  const index_t block =
      candidate.format == sim::StorageFormat::kBcsr2
          ? 2
          : candidate.format == sim::StorageFormat::kBcsr4 ? 4 : 0;

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
