#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "sim/format_traces.hpp"
#include "sim/run_cache.hpp"
#include "sparse/properties.hpp"
#include "sparse/reorder.hpp"

namespace scc::sim {

namespace {

std::vector<int> resolve_cores(const RunSpec& spec) {
  if (!spec.cores.empty()) return spec.cores;
  return chip::map_ues_to_cores(spec.policy, spec.ue_count);
}

/// One pass of `format`'s kernel over `block`, with the counts its cycle
/// cost is priced from.
RankReplay trace_pass(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                      StorageFormat format, SpmvVariant variant, cache::Hierarchy& hierarchy,
                      cache::Tlb* tlb) {
  if (format == StorageFormat::kCsr) {
    const TraceResult trace = run_spmv_trace(matrix, block, variant, hierarchy, tlb);
    return {trace, static_cast<double>(trace.nnz), static_cast<double>(trace.rows)};
  }
  const FormatTraceResult r =
      format == StorageFormat::kEll   ? run_ell_trace(matrix, block, hierarchy, tlb)
      : format == StorageFormat::kHyb ? run_hyb_trace(matrix, block, 0.33, hierarchy, tlb)
                                      : run_bcsr_trace(matrix, block,
                                                       format == StorageFormat::kBcsr2 ? 2 : 4,
                                                       hierarchy, tlb);
  return {r.trace, r.executed_elements, r.rows_iterated};
}

/// Kernel cycles per executed element of `format` (RankReplay::elements).
double cycles_per_element(const KernelCostModel& k, StorageFormat format) {
  if (format == StorageFormat::kCsr) return k.cycles_per_nnz;
  if (format == StorageFormat::kBcsr2 || format == StorageFormat::kBcsr4) {
    return k.cycles_per_bcsr_element;
  }
  return k.cycles_per_ell_slot;  // ELL, and HYB's ELL slab plus COO tail
}

}  // namespace

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  SCC_REQUIRE(config_.kernel.cycles_per_nnz >= 0.0 && config_.kernel.cycles_per_row >= 0.0 &&
                  config_.kernel.l2_hit_cycles >= 0.0,
              "kernel cycle costs must be non-negative");
  SCC_REQUIRE(config_.memory.miss_stall_fraction >= 0.0 &&
                  config_.memory.miss_stall_fraction <= 1.0,
              "miss_stall_fraction must be in [0,1]");
  SCC_REQUIRE(config_.memory.mc_peak_fraction > 0.0 && config_.memory.mc_peak_fraction <= 1.0,
              "mc_peak_fraction must be in (0,1]");
}

double Engine::mc_bandwidth_bytes_per_second() const {
  // One DDR3 channel per controller: 8 bytes per memory clock at peak,
  // derated for scattered 32-byte line transactions.
  return config_.freq.memory_ghz() * 1e9 * 8.0 * config_.memory.mc_peak_fraction;
}

RunResult Engine::run(const sparse::CsrMatrix& matrix, const RunSpec& spec) const {
  SCC_REQUIRE(spec.forced_hops <= 3, "forced_hops above the mesh's maximum of 3");
  const auto cores = resolve_cores(spec);
  if (run_cache_ == nullptr) {
    return run_uncached(matrix, spec, cores);
  }
  // Content-keyed memoization: the key covers everything the simulated
  // numbers depend on (matrix structure, resolved cores, spec, config), so a
  // hit is bit-exact versus a cold run. Hits skip spans and the engine.runs
  // metric block -- only memo_hits records that a cached answer was served.
  const RunKey key = run_key(matrix, config_, cores, spec);
  if (std::optional<RunResult> hit = run_cache_->lookup(key)) {
    if (spec.recorder != nullptr) {
      spec.recorder->metrics().counter("engine.memo_hits").add(1);
    }
    return *std::move(hit);
  }
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result = run_uncached(matrix, spec, cores);
  run_cache_->insert(key, result);
  if (spec.recorder != nullptr) {
    obs::Registry& metrics = spec.recorder->metrics();
    metrics.counter("engine.memo_misses").add(1);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
    metrics.histogram("engine.sim_wall_seconds", obs::Histogram::seconds_buckets())
        .observe(wall.count());
  }
  return result;
}

RunResult Engine::run_uncached(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                               const std::vector<int>& cores) const {
  RunResult result = run_unverified(matrix, spec, cores);
  if (spec.verify == integrity::VerifyMode::kOff && spec.sdc.empty()) return result;

  // ABFT layer: classify this product under the (seeded, site-addressed)
  // SDC model and price the verification work into the simulated time. The
  // numeric check runs on the original matrix -- a row reorder permutes y
  // but P*A against graded weights for the *permuted* rows is exactly what
  // the reordered kernel would verify, and the original orientation keeps
  // the classification independent of the schedule.
  const integrity::SdcOracle oracle(spec.sdc);
  const integrity::VerifyReport report = integrity::run_verification(
      matrix, spec.verify, spec.sdc.empty() ? nullptr : &oracle, spec.sdc_site);
  result.verify = spec.verify;
  result.outcome = report.outcome;
  result.sdc_injected = report.injected;
  result.sdc_significant = report.significant;
  result.verify_attempts = report.attempts;
  result.verify_residual = report.residual;
  result.verify_tolerance = report.tolerance;
  if (spec.verify != integrity::VerifyMode::kOff) {
    // Each attempt's check streams s, x and y once through the controllers;
    // a recompute re-runs the whole product (recovery overheads excluded --
    // the re-run recomputes the product, not the failover protocol).
    result.verify_seconds =
        static_cast<double>(report.attempts) *
        integrity::verify_stream_bytes(matrix.rows(), matrix.cols()) /
        mc_bandwidth_bytes_per_second();
    result.recompute_seconds = static_cast<double>(report.attempts - 1) *
                               (result.seconds - result.recovery_seconds);
    result.seconds += result.verify_seconds + result.recompute_seconds;
    result.gflops = 2.0 * static_cast<double>(matrix.nnz()) / result.seconds / 1e9;
  }
  if (spec.recorder != nullptr) {
    obs::Registry& metrics = spec.recorder->metrics();
    if (spec.verify != integrity::VerifyMode::kOff) {
      metrics.counter("integrity.verifications").add(static_cast<std::uint64_t>(report.attempts));
    }
    switch (report.outcome) {
      case integrity::Outcome::kClean:
        break;
      case integrity::Outcome::kSilent:
        metrics.counter("integrity.silent").add(1);
        break;
      case integrity::Outcome::kDetected:
        metrics.counter("integrity.detected").add(1);
        break;
      case integrity::Outcome::kCorrected:
        metrics.counter("integrity.corrected").add(1);
        break;
      case integrity::Outcome::kUnrecoverable:
        metrics.counter("integrity.unrecoverable").add(1);
        break;
    }
  }
  return result;
}

RunResult Engine::run_unverified(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                                 const std::vector<int>& cores) const {
  if (!spec.dead_ranks.empty()) return run_degraded_impl(matrix, spec, cores);
  SCC_REQUIRE(spec.format == StorageFormat::kCsr || spec.variant == SpmvVariant::kCsr,
              "alternative storage formats have no no-x-miss variant");
  return run_generic(matrix, spec, cores);
}

RunResult Engine::run_degraded_impl(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                                    const std::vector<int>& cores) const {
  // The degraded protocol re-ships CSR blocks of the original row
  // numbering, so it composes with CSR only.
  SCC_REQUIRE(spec.reorder == Reordering::kNone, "reordering cannot combine with dead_ranks");
  SCC_REQUIRE(spec.format == StorageFormat::kCsr, "dead_ranks supports the CSR format only");
  SCC_REQUIRE(spec.forced_hops < 0, "dead_ranks cannot combine with forced_hops");
  SCC_REQUIRE(spec.detection_seconds >= 0.0, "detection_seconds must be non-negative");
  // Rank k runs on cores[k], so the rank space is the core table's size
  // (identical to spec.ue_count on the policy-mapped path).
  const int ue_count = static_cast<int>(cores.size());
  std::set<int> dead;
  for (int rank : spec.dead_ranks) {
    SCC_REQUIRE(rank >= 0 && rank < ue_count, "dead rank " << rank << " out of range");
    SCC_REQUIRE(rank != 0, "rank 0 owns the matrix and cannot be recovered from");
    dead.insert(rank);
  }
  SCC_REQUIRE(static_cast<int>(dead.size()) < ue_count, "at least one UE must survive");

  std::vector<int> survivor_cores;
  survivor_cores.reserve(cores.size() - dead.size());
  for (int rank = 0; rank < ue_count; ++rank) {
    if (!dead.contains(rank)) survivor_cores.push_back(cores[static_cast<std::size_t>(rank)]);
  }

  // The survivors redo the whole product over the re-balanced partition (the
  // paper's partitioner splits by nnz, so this equals a fresh run on the
  // surviving cores).
  RunResult result = run_generic(matrix, spec, survivor_cores);
  result.dead_count = static_cast<int>(dead.size());

  // Recovery cost: each dead block's CSR slice (rebased ptr + col + val) is
  // re-shipped from the matrix owner through the memory controllers, after
  // one watchdog detection window per failure.
  obs::ScopedSpan recovery_span(spec.recorder, "engine.recovery");
  const auto blocks = sparse::partition_rows_balanced_nnz(matrix, ue_count);
  for (int rank : dead) {
    const sparse::RowBlock& b = blocks[static_cast<std::size_t>(rank)];
    result.reshipped_bytes +=
        static_cast<bytes_t>(b.row_count() + 1) * sizeof(nnz_t) +
        static_cast<bytes_t>(b.nnz) * (sizeof(index_t) + sizeof(real_t));
  }
  result.recovery_seconds =
      spec.detection_seconds * static_cast<double>(result.dead_count) +
      static_cast<double>(result.reshipped_bytes) / mc_bandwidth_bytes_per_second();
  result.seconds += result.recovery_seconds;
  result.gflops = 2.0 * static_cast<double>(matrix.nnz()) / result.seconds / 1e9;
  if (spec.recorder != nullptr) {
    spec.recorder->metrics().counter("engine.dead_ranks").add(
        static_cast<std::uint64_t>(result.dead_count));
    spec.recorder->metrics().counter("engine.reshipped_bytes").add(result.reshipped_bytes);
  }
  return result;
}

std::string to_string(StorageFormat format) {
  switch (format) {
    case StorageFormat::kCsr:
      return "CSR";
    case StorageFormat::kEll:
      return "ELL";
    case StorageFormat::kBcsr2:
      return "BCSR b=2";
    case StorageFormat::kBcsr4:
      return "BCSR b=4";
    case StorageFormat::kHyb:
      return "HYB";
  }
  return "unknown";
}

std::string to_string(Reordering reorder) {
  switch (reorder) {
    case Reordering::kNone:
      return "none";
    case Reordering::kRcmRows:
      return "rcm-rows";
  }
  return "unknown";
}

std::string to_string(SpmvVariant variant) {
  switch (variant) {
    case SpmvVariant::kCsr:
      return "csr";
    case SpmvVariant::kCsrNoXMiss:
      return "csr-no-x-miss";
  }
  return "unknown";
}

RunResult Engine::run_generic(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                              const std::vector<int>& cores) const {
  SCC_REQUIRE(!cores.empty() && cores.size() <= static_cast<std::size_t>(chip::kCoreCount),
              "core set size " << cores.size() << " out of range [1,48]");
  std::set<int> unique(cores.begin(), cores.end());
  SCC_REQUIRE(unique.size() == cores.size(), "core set contains duplicates");
  for (int core : cores) {
    SCC_REQUIRE(core >= 0 && core < chip::kCoreCount, "core id " << core << " out of range");
  }
  obs::Recorder* recorder = spec.recorder;

  // Row-schedule reordering: replay the row-permuted matrix (columns
  // untouched). Replay keys name the source matrix plus the reorder, so no
  // fingerprint of the permuted copy is ever needed.
  std::optional<sparse::CsrMatrix> reordered;
  if (spec.reorder != Reordering::kNone) {
    reordered = matrix.permute_rows(sparse::reverse_cuthill_mckee(matrix));
  }
  const sparse::CsrMatrix& replayed = reordered ? *reordered : matrix;

  std::vector<sparse::RowBlock> blocks;
  {
    obs::ScopedSpan span(recorder, "engine.partition");
    blocks = sparse::partition_rows_balanced_nnz(replayed, static_cast<int>(cores.size()));
  }

  // Hoisted out of the per-rank loop: the warm-pass decision depends only on
  // the matrix and the core count (working_set_bytes walks the whole matrix).
  bool warm_pass = false;
  if (config_.measure_steady_state) {
    // Per-core share of the paper's working-set formula: using ws/P keeps
    // the same threshold semantics as the paper's "working set per core"
    // discussion.
    const double ws_per_core = static_cast<double>(sparse::working_set_bytes(replayed)) /
                               static_cast<double>(cores.size());
    const double cache_bytes =
        static_cast<double>(config_.hierarchy.l2_enabled ? config_.hierarchy.l2.size_bytes
                                                         : config_.hierarchy.l1.size_bytes);
    warm_pass = ws_per_core <= config_.warm_skip_factor * cache_bytes;
  }

  // One rank's replay: the core-independent half of its timing. Each rank
  // owns a private hierarchy/TLB and writes only its own slot, so ranks are
  // independent: safe to run on any thread, and the collected output is
  // identical for any thread count.
  std::vector<RankReplay> replays(cores.size());
  const auto replay_rank = [&](std::size_t rank) {
    cache::Hierarchy hierarchy(config_.hierarchy);
    cache::Tlb tlb;
    cache::Tlb* tlb_ptr = config_.memory.model_tlb ? &tlb : nullptr;
    if (warm_pass) {
      // Warm pass: caches and TLB keep their state; traces count per-call,
      // so the measured pass below reports steady-state numbers.
      trace_pass(replayed, blocks[rank], spec.format, spec.variant, hierarchy, tlb_ptr);
      hierarchy.reset_stats();
    }
    replays[rank] = trace_pass(replayed, blocks[rank], spec.format, spec.variant, hierarchy,
                               tlb_ptr);
  };

  std::optional<obs::ScopedSpan> replay_span;
  replay_span.emplace(recorder, "engine.trace_replay");
  // With a RunCache attached, ranks whose replay any earlier run stored are
  // served from its table, and only the rest are replayed (and stored).
  std::vector<ReplayKey> keys;
  std::vector<std::size_t> misses;
  for (std::size_t rank = 0; rank < cores.size(); ++rank) {
    if (run_cache_ != nullptr) {
      keys.push_back(replay_key(matrix, config_, spec, blocks[rank], warm_pass));
      if (std::optional<RankReplay> hit = run_cache_->lookup_replay(keys.back())) {
        replays[rank] = *std::move(hit);
        continue;
      }
    }
    misses.push_back(rank);
  }
  if (recorder == nullptr) {
    // Host-parallel fan-out (SCC_SIM_THREADS).
    common::parallel_for(misses.size(), [&](std::size_t i) { replay_rank(misses[i]); });
  } else {
    // Traced runs fan out too: each rank times its replay into a
    // rank-indexed span buffer, and the buffers are flushed serially in
    // rank order after the join -- the recorder sees exactly one
    // core_trace span per rank, in rank order, at any thread count
    // (timestamps stay wall-clock and overlap; a rank served from the
    // replay table gets an empty span marked memo=hit).
    std::vector<obs::SpanBuffer> rank_spans(cores.size());
    const double served_at = recorder->now_seconds();
    common::parallel_for(misses.size(), [&](std::size_t i) {
      const std::size_t rank = misses[i];
      const double start = recorder->now_seconds();
      replay_rank(rank);
      rank_spans[rank].span("engine.core_trace", start, recorder->now_seconds() - start,
                            {{"core", std::to_string(cores[rank])},
                             {"rank", std::to_string(rank)}});
    });
    for (std::size_t rank = 0; rank < cores.size(); ++rank) {
      if (rank_spans[rank].size() == 0) {  // served from the replay table
        rank_spans[rank].span("engine.core_trace", served_at, 0.0,
                              {{"core", std::to_string(cores[rank])},
                               {"rank", std::to_string(rank)},
                               {"memo", "hit"}});
      }
      rank_spans[rank].flush_to(*recorder);
    }
  }
  if (run_cache_ != nullptr) {
    for (const std::size_t rank : misses) run_cache_->insert_replay(keys[rank], replays[rank]);
  }
  replay_span.reset();

  // The core-dependent half: clocks, hops and the kernel cost model.
  RunResult result;
  result.cores.resize(cores.size());
  const double element_cycles = cycles_per_element(config_.kernel, spec.format);
  const int forced_hops = spec.forced_hops;
  for (std::size_t rank = 0; rank < cores.size(); ++rank) {
    const int core = cores[rank];
    const RankReplay& replay = replays[rank];
    CoreResult& cr = result.cores[rank];
    cr.core = core;
    cr.hops = forced_hops >= 0 ? forced_hops : chip::hops_to_memory(core);
    cr.trace = replay.trace;

    const double compute_cycles =
        element_cycles * replay.elements + config_.kernel.cycles_per_row * replay.rows;
    const double core_hz = config_.freq.core_ghz(core) * 1e9;
    cr.compute_seconds = compute_cycles / core_hz;
    cr.l2_hit_seconds = config_.kernel.l2_hit_cycles *
                        static_cast<double>(cr.trace.l2_hit_accesses) / core_hz;
    const double latency_s = chip::memory_latency_ns(config_.freq, core, cr.hops) * 1e-9;
    cr.stall_seconds = config_.memory.miss_stall_fraction * latency_s *
                       static_cast<double>(cr.trace.memory_accesses);
    cr.tlb_seconds = config_.memory.tlb_walk_memory_accesses * latency_s *
                     static_cast<double>(cr.trace.tlb_misses);
    cr.isolated_seconds =
        cr.compute_seconds + cr.l2_hit_seconds + cr.stall_seconds + cr.tlb_seconds;
  }

  // Serial accumulation in rank order: integer adds, so the totals are
  // deterministic and unchanged from the pre-parallel engine.
  for (const CoreResult& cr : result.cores) {
    const int mc = chip::memory_controller_of_core(cr.core);
    // Page walks also fetch page-table lines through the controller.
    const bytes_t walk_bytes =
        static_cast<bytes_t>(config_.memory.tlb_walk_memory_accesses *
                             static_cast<double>(cr.trace.tlb_misses)) *
        config_.hierarchy.l1.line_bytes;
    result.mc_bytes[static_cast<std::size_t>(mc)] +=
        cr.trace.memory_read_bytes + cr.trace.memory_write_bytes + walk_bytes;
  }

  obs::ScopedSpan contention_span(recorder, "engine.contention");
  // Mesh-link accounting: read fills travel MC -> core, writebacks the other
  // way, both along the XY route (forced-hop single-core experiments have no
  // physical route, so they are skipped).
  if (forced_hops < 0) {
    noc::Mesh mesh(chip::kMeshWidth, chip::kMeshHeight);
    for (const CoreResult& cr : result.cores) {
      const int mc = chip::memory_controller_of_core(cr.core);
      const noc::Coord mc_coord = chip::kMcCoords[static_cast<std::size_t>(mc)];
      const noc::Coord core_coord = chip::coord_of_core(cr.core);
      mesh.record_transfer(mc_coord, core_coord, cr.trace.memory_read_bytes);
      mesh.record_transfer(core_coord, mc_coord, cr.trace.memory_write_bytes);
    }
    result.mesh.total_link_bytes = mesh.total_traffic();
    result.mesh.max_link_bytes = mesh.max_link_traffic();
    result.mesh.hot_links = mesh.busiest_links(4);
  }

  double slowest_core = 0.0;
  for (const CoreResult& cr : result.cores) {
    slowest_core = std::max(slowest_core, cr.isolated_seconds);
  }

  double slowest_mc = 0.0;
  if (config_.memory.model_contention) {
    const double bw = mc_bandwidth_bytes_per_second();
    for (std::size_t mc = 0; mc < result.mc_bytes.size(); ++mc) {
      result.mc_seconds[mc] = static_cast<double>(result.mc_bytes[mc]) / bw;
      slowest_mc = std::max(slowest_mc, result.mc_seconds[mc]);
    }
  }

  result.seconds = std::max(slowest_core, slowest_mc);
  result.bandwidth_bound = slowest_mc > slowest_core;
  if (cores.size() > 1) {
    // The barrier's flag-polling loop runs in the core clock domain (MPB
    // reads cost ~45 core cycles each); barrier_ns_per_ue is calibrated at
    // the default 533 MHz, so rescale with the slowest participating core.
    int slowest_core_mhz = config_.freq.core_mhz(cores.front());
    for (int core : cores) {
      slowest_core_mhz = std::min(slowest_core_mhz, config_.freq.core_mhz(core));
    }
    const double core_scale = 533.0 / static_cast<double>(slowest_core_mhz);
    result.seconds += config_.kernel.barrier_ns_per_ue * core_scale * 1e-9 *
                      static_cast<double>(cores.size());
  }
  SCC_ASSERT(result.seconds > 0.0, "simulated runtime must be positive");
  result.gflops = 2.0 * static_cast<double>(matrix.nnz()) / result.seconds / 1e9;

  if (recorder != nullptr) {
    obs::Registry& metrics = recorder->metrics();
    metrics.counter("engine.runs").add(1);
    metrics.counter("engine.cores_simulated").add(result.cores.size());
    std::uint64_t memory_accesses = 0;
    std::uint64_t tlb_misses = 0;
    for (const CoreResult& cr : result.cores) {
      memory_accesses += cr.trace.memory_accesses;
      tlb_misses += cr.trace.tlb_misses;
    }
    metrics.counter("engine.memory_accesses").add(memory_accesses);
    metrics.counter("engine.tlb_misses").add(tlb_misses);
    metrics.histogram("engine.run_seconds", obs::Histogram::seconds_buckets())
        .observe(result.seconds);
  }
  return result;
}

}  // namespace scc::sim
