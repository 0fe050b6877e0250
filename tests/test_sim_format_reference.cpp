// Differential test of the format traces and of rank_counts against a naive
// reference.
//
// run_ell_trace, run_hyb_trace and run_bcsr_trace take two shortcuts. A
// reference to the line of the reference just before it goes through
// Tracker::repeat, which charges an L1 and TLB hit without walking either;
// and BCSR gathers each block row's block columns through a stamp array
// (sparse::for_each_block_row). The generators below take neither: they
// make one Tracker::access call per reference, in the kernel's order,
// through a fresh Hierarchy/Tlb, find the ELL width by a loop, the HYB split
// by a linear scan over widths and gather block columns in a std::set, and
// count the slots and row-loop trips they iterate. Seeded matrices of
// several families, whole and partitioned, cold and after a warm pass, on
// geometries whose line is smaller than, equal to and larger than the TLB
// page: every TraceResult field, the TLB counters and the dirty lines a
// flush writes back must agree, and so must rank_counts and the counts the
// generators iterated. The testbed suite checks rank_counts and the shared
// layout rules once more on every block the engine's partitions make.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "sim/format_traces.hpp"
#include "sim/trace_internal.hpp"
#include "sparse/layout.hpp"
#include "sparse/partition.hpp"
#include "testbed/suite.hpp"

namespace scc::sim {
namespace {

using sparse::CsrMatrix;
using sparse::RowBlock;

index_t widest_row(const CsrMatrix& m, const RowBlock& block) {
  index_t width = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    width = std::max(width, m.row_length(r));
  }
  return width;
}

/// The Bell-Garland split: the first width, scanning up from 0, whose tail
/// fits the spill budget.
index_t reference_hyb_width(const CsrMatrix& m, const RowBlock& block, double spill_fraction) {
  const auto budget = static_cast<nnz_t>(spill_fraction * static_cast<double>(block.nnz));
  index_t width = 0;
  for (;; ++width) {
    nnz_t spill = 0;
    for (index_t r = block.row_begin; r < block.row_end; ++r) {
      spill += std::max<nnz_t>(0, m.row_length(r) - width);
    }
    if (spill <= budget || width >= widest_row(m, block)) break;
  }
  return width;
}

/// The block columns rows [r_begin, r_end) touch.
std::set<index_t> reference_block_cols(const CsrMatrix& m, index_t r_begin, index_t r_end,
                                       index_t b) {
  std::set<index_t> block_cols;
  for (index_t r = r_begin; r < r_end; ++r) {
    for (const index_t c : m.row_cols(r)) block_cols.insert(c / b);
  }
  return block_cols;
}

/// A reference generator's trace and the slots and row-loop trips it
/// iterated.
struct Reference {
  TraceResult trace;
  double executed_elements = 0.0;
  double rows_iterated = 0.0;
};

void reference_ell_slab(const CsrMatrix& m, const RowBlock& block, index_t width,
                        detail::Tracker& t) {
  const auto rows = static_cast<std::uint64_t>(block.row_count());
  for (index_t j = 0; j < width; ++j) {
    for (index_t r = block.row_begin; r < block.row_end; ++r) {
      const auto local = static_cast<std::uint64_t>(r - block.row_begin);
      const auto slot = static_cast<std::uint64_t>(j) * rows + local;
      const auto cols = m.row_cols(r);
      const std::uint64_t x =
          j < static_cast<index_t>(cols.size())
              ? static_cast<std::uint64_t>(cols[static_cast<std::size_t>(j)])
              : 0;
      t.access(detail::kIndexBase + kIndexBytes * slot, false);
      t.access(detail::kValueBase + kValueBytes * slot, false);
      t.access(detail::kXBase + kValueBytes * x, false);
      t.access(detail::kYBase + kValueBytes * local, false);
      t.access(detail::kYBase + kValueBytes * local, true);
    }
  }
}

Reference reference_ell(const CsrMatrix& m, const RowBlock& block, cache::Hierarchy& h,
                        cache::Tlb* tlb) {
  detail::Tracker t(h, tlb);
  const index_t width = widest_row(m, block);
  reference_ell_slab(m, block, width, t);
  Reference out;
  out.trace = t.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(width) * static_cast<double>(block.row_count());
  out.rows_iterated = static_cast<double>(block.row_count());
  return out;
}

Reference reference_hyb(const CsrMatrix& m, const RowBlock& block, double spill_fraction,
                        cache::Hierarchy& h, cache::Tlb* tlb, std::uint64_t& tail_entries) {
  const index_t width = reference_hyb_width(m, block, spill_fraction);
  detail::Tracker t(h, tlb);
  reference_ell_slab(m, block, width, t);
  std::uint64_t tail = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    const auto cols = m.row_cols(r);
    const auto local = static_cast<std::uint64_t>(r - block.row_begin);
    for (std::size_t k = static_cast<std::size_t>(width); k < cols.size(); ++k) {
      t.access(detail::kAuxBase + kIndexBytes * tail, false);
      t.access(detail::kIndexBase + kIndexBytes * tail, false);
      t.access(detail::kValueBase + kValueBytes * tail, false);
      t.access(detail::kXBase + kValueBytes * static_cast<std::uint64_t>(cols[k]), false);
      t.access(detail::kYBase + kValueBytes * local, false);
      t.access(detail::kYBase + kValueBytes * local, true);
      ++tail;
    }
  }
  tail_entries += tail;
  Reference out;
  out.trace = t.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(width) * static_cast<double>(block.row_count()) +
                          static_cast<double>(tail);
  out.rows_iterated = static_cast<double>(block.row_count());
  return out;
}

Reference reference_bcsr(const CsrMatrix& m, const RowBlock& block, index_t b,
                         cache::Hierarchy& h, cache::Tlb* tlb) {
  detail::Tracker t(h, tlb);
  const index_t block_rows = (block.row_count() + b - 1) / b;
  const auto bb = static_cast<std::uint64_t>(b);
  std::uint64_t stored = 0;
  std::uint64_t value = 0;
  for (index_t br = 0; br < block_rows; ++br) {
    t.access(detail::kPtrBase + kPtrBytes * static_cast<std::uint64_t>(br + 1), false);
    const index_t r_begin = block.row_begin + br * b;
    const index_t r_end = std::min<index_t>(r_begin + b, block.row_end);
    for (const index_t bc : reference_block_cols(m, r_begin, r_end, b)) {
      t.access(detail::kIndexBase + kIndexBytes * stored++, false);
      for (std::uint64_t e = 0; e < bb * bb; ++e) {
        t.access(detail::kValueBase + kValueBytes * value++, false);
      }
      for (std::uint64_t jj = 0; jj < bb; ++jj) {
        const auto x = static_cast<std::uint64_t>(bc) * bb + jj;
        if (x < static_cast<std::uint64_t>(m.cols())) {
          t.access(detail::kXBase + kValueBytes * x, false);
        }
      }
      for (index_t r = r_begin; r < r_end; ++r) {
        const auto local = static_cast<std::uint64_t>(r - block.row_begin);
        t.access(detail::kYBase + kValueBytes * local, false);
        t.access(detail::kYBase + kValueBytes * local, true);
      }
    }
  }
  Reference out;
  out.trace = t.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(stored) * static_cast<double>(bb * bb);
  out.rows_iterated = static_cast<double>(block_rows);
  return out;
}

void expect_stats_eq(const cache::CacheStats& a, const cache::CacheStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.read_hits, b.read_hits) << what;
  EXPECT_EQ(a.read_misses, b.read_misses) << what;
  EXPECT_EQ(a.write_hits, b.write_hits) << what;
  EXPECT_EQ(a.write_misses, b.write_misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks) << what;
}

/// The trace fields always; the counts when `counted` (the kernel is one of
/// the engine's formats, so rank_counts knows it).
void expect_results_eq(const Reference& got, const Reference& want, bool counted,
                       const std::string& what) {
  expect_stats_eq(got.trace.l1, want.trace.l1, what + " l1");
  expect_stats_eq(got.trace.l2, want.trace.l2, what + " l2");
  EXPECT_EQ(got.trace.memory_accesses, want.trace.memory_accesses) << what;
  EXPECT_EQ(got.trace.l2_hit_accesses, want.trace.l2_hit_accesses) << what;
  EXPECT_EQ(got.trace.memory_read_bytes, want.trace.memory_read_bytes) << what;
  EXPECT_EQ(got.trace.memory_write_bytes, want.trace.memory_write_bytes) << what;
  EXPECT_EQ(got.trace.tlb_misses, want.trace.tlb_misses) << what;
  EXPECT_EQ(got.trace.rows, want.trace.rows) << what;
  EXPECT_EQ(got.trace.nnz, want.trace.nnz) << what;
  if (counted) {
    EXPECT_EQ(got.executed_elements, want.executed_elements) << what;
    EXPECT_EQ(got.rows_iterated, want.rows_iterated) << what;
  }
}

/// The code under test in the reference's shape: a format trace's result
/// and, for one of the engine's formats, rank_counts.
Reference under_test(const FormatTraceResult& result, const CsrMatrix& m, const RowBlock& block,
                     std::optional<StorageFormat> format) {
  Reference out{result.trace};
  if (format) {
    const KernelCounts counts = rank_counts(m, block, *format);
    out.executed_elements = counts.executed_elements;
    out.rows_iterated = counts.rows_iterated;
  }
  return out;
}

/// The shared layout rules against the naive ones on `block`: the ELL
/// width, the HYB split (with the tail the reference's rows spill) and,
/// for b = 2, 3 and 4, every block row's rows and block-column set.
void expect_layout_matches_reference(const CsrMatrix& m, const RowBlock& block,
                                     const std::string& what) {
  EXPECT_EQ(sparse::ell_width(m, block.row_begin, block.row_end), widest_row(m, block)) << what;
  const sparse::HybSplit split = sparse::hyb_split(m, block.row_begin, block.row_end);
  const index_t width = reference_hyb_width(m, block, 0.33);
  nnz_t tail = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    tail += std::max<nnz_t>(0, m.row_length(r) - width);
  }
  EXPECT_EQ(split.width, width) << what;
  EXPECT_EQ(split.tail, tail) << what;
  for (const index_t b : {2, 3, 4}) {
    index_t next_row = block.row_begin;
    index_t visits = 0;
    sparse::for_each_block_row(m, block.row_begin, block.row_end, b,
                               [&](const sparse::BlockRow& row) {
                                 EXPECT_EQ(row.index, visits++) << what;
                                 EXPECT_EQ(row.row_begin, next_row) << what;
                                 next_row = std::min<index_t>(next_row + b, block.row_end);
                                 EXPECT_EQ(row.row_end, next_row) << what;
                                 const std::set<index_t> want =
                                     reference_block_cols(m, row.row_begin, row.row_end, b);
                                 EXPECT_TRUE(std::equal(row.block_cols.begin(),
                                                        row.block_cols.end(), want.begin(),
                                                        want.end()))
                                     << what << " b=" << b << " block row " << row.index;
                               });
    EXPECT_EQ(visits, (block.row_count() + b - 1) / b) << what << " b=" << b;
  }
}

struct Geometry {
  std::string name;
  cache::HierarchyConfig hierarchy;
  std::optional<cache::TlbConfig> tlb;  // nullopt: no TLB
};

std::vector<Geometry> geometries() {
  cache::HierarchyConfig l2_off;
  l2_off.l2_enabled = false;
  // 8 KB lines span two 4 KB pages: a repeat's page may differ.
  const cache::HierarchyConfig wide_lines{
      .l1 = {.size_bytes = 16 * 1024, .line_bytes = 8192, .ways = 2},
      .l2 = {.size_bytes = 256 * 1024, .line_bytes = 8192, .ways = 4}};
  return {
      {"scc", cache::HierarchyConfig{}, cache::TlbConfig{}},
      {"scc-no-tlb", cache::HierarchyConfig{}, std::nullopt},
      {"scc-l2-off", l2_off, cache::TlbConfig{}},
      {"16-byte-pages", cache::HierarchyConfig{},
       cache::TlbConfig{.entries = 64, .ways = 4, .page_bytes = 16}},
      {"8k-lines", wide_lines, cache::TlbConfig{}},
  };
}

using Trace = std::function<Reference(const RowBlock&, cache::Hierarchy&, cache::Tlb*)>;

/// One pass (or a warm pass plus a measured one, the engine's steady-state
/// protocol) of `trace` on a fresh hierarchy; then a flush, whose written
/// back bytes expose every dirty bit the passes left.
struct Replayed {
  Reference result;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  bytes_t flushed = 0;
};

Replayed replay(const Trace& trace, const RowBlock& block, const Geometry& g, bool warm) {
  cache::Hierarchy h(g.hierarchy);
  std::optional<cache::Tlb> tlb;
  if (g.tlb) tlb.emplace(*g.tlb);
  cache::Tlb* tlb_ptr = tlb ? &*tlb : nullptr;
  if (warm) {
    trace(block, h, tlb_ptr);
    h.reset_stats();
  }
  Replayed out;
  out.result = trace(block, h, tlb_ptr);
  if (tlb) {
    out.tlb_hits = tlb->hits();
    out.tlb_misses = tlb->misses();
  }
  out.flushed = h.flush();
  return out;
}

struct Family {
  std::string name;
  std::function<CsrMatrix(std::uint64_t)> make;
};

class FormatTraceReference : public ::testing::TestWithParam<Family> {};

TEST_P(FormatTraceReference, EveryFieldMatchesOneAccessPerReference) {
  std::uint64_t tail_entries = 0;
  for (const std::uint64_t seed : {3U, 17U}) {
    const CsrMatrix m = GetParam().make(seed);
    std::vector<RowBlock> blocks = {RowBlock{0, m.rows(), m.nnz()}};
    for (const RowBlock& part : sparse::partition_rows_balanced_nnz(m, 3)) {
      blocks.push_back(part);
    }
    struct Format {
      std::string name;
      std::optional<StorageFormat> format;  // the engine's format, when it is one
      Trace fast;
      Trace reference;
    };
    std::vector<Format> formats = {
        {"ELL", StorageFormat::kEll,
         [&](const RowBlock& b, cache::Hierarchy& h, cache::Tlb* t) {
           return under_test(run_ell_trace(m, b, h, t), m, b, StorageFormat::kEll);
         },
         [&](const RowBlock& b, cache::Hierarchy& h, cache::Tlb* t) {
           return reference_ell(m, b, h, t);
         }},
        {"HYB", StorageFormat::kHyb,
         [&](const RowBlock& b, cache::Hierarchy& h, cache::Tlb* t) {
           return under_test(run_hyb_trace(m, b, 0.33, h, t), m, b, StorageFormat::kHyb);
         },
         [&](const RowBlock& b, cache::Hierarchy& h, cache::Tlb* t) {
           return reference_hyb(m, b, 0.33, h, t, tail_entries);
         }}};
    for (const index_t b : {2, 3, 4}) {
      const std::optional<StorageFormat> format =
          b == 2   ? std::optional(StorageFormat::kBcsr2)
          : b == 4 ? std::optional(StorageFormat::kBcsr4)
                   : std::nullopt;
      formats.push_back(
          {"BCSR b=" + std::to_string(b), format,
           [&m, b, format](const RowBlock& blk, cache::Hierarchy& h, cache::Tlb* t) {
             return under_test(run_bcsr_trace(m, blk, b, h, t), m, blk, format);
           },
           [&m, b](const RowBlock& blk, cache::Hierarchy& h, cache::Tlb* t) {
             return reference_bcsr(m, blk, b, h, t);
           }});
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      expect_layout_matches_reference(m, blocks[i],
                                      GetParam().name + " seed " + std::to_string(seed) +
                                          " block " + std::to_string(i));
    }
    for (const Geometry& g : geometries()) {
      for (const Format& format : formats) {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          for (const bool warm : {false, true}) {
            const std::string what = GetParam().name + " seed " + std::to_string(seed) + " " +
                                     g.name + " " + format.name + " block " +
                                     std::to_string(i) + (warm ? " warm" : " cold");
            const Replayed got = replay(format.fast, blocks[i], g, warm);
            const Replayed want = replay(format.reference, blocks[i], g, warm);
            expect_results_eq(got.result, want.result, format.format.has_value(), what);
            EXPECT_EQ(got.tlb_hits, want.tlb_hits) << what;
            EXPECT_EQ(got.tlb_misses, want.tlb_misses) << what;
            EXPECT_EQ(got.flushed, want.flushed) << what;
          }
        }
      }
    }
  }
  // Rows longer than the HYB split width reach the COO tail (whose y pairs
  // take the repeat path) in the skewed families.
  if (GetParam().name == "power_law" || GetParam().name == "circuit") {
    EXPECT_GT(tail_entries, 0U);
  }
}

/// What the reference generator of `format` iterates over `block` (CSR:
/// the nonzeros and rows the kernel's loops visit), replayed on the SCC
/// geometry without a TLB.
Reference reference_counts(const CsrMatrix& m, const RowBlock& block, StorageFormat format) {
  cache::Hierarchy h(cache::HierarchyConfig{});
  std::uint64_t tail_entries = 0;
  switch (format) {
    case StorageFormat::kCsr:
      break;
    case StorageFormat::kEll:
      return reference_ell(m, block, h, nullptr);
    case StorageFormat::kHyb:
      return reference_hyb(m, block, 0.33, h, nullptr, tail_entries);
    case StorageFormat::kBcsr2:
      return reference_bcsr(m, block, 2, h, nullptr);
    case StorageFormat::kBcsr4:
      return reference_bcsr(m, block, 4, h, nullptr);
  }
  Reference out;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    out.executed_elements += static_cast<double>(m.row_length(r));
    out.rows_iterated += 1.0;
  }
  return out;
}

// Every block the engine replays at the core counts the figures and the
// tuner use, on the whole testbed: the shared layout rules and rank_counts
// against the naive references.
TEST(RankCountsReference, TestbedPartitionsMatchTheReferenceGenerators) {
  for (int id = 1; id <= 32; ++id) {
    const CsrMatrix m = testbed::build_entry(id, 0.05).matrix;
    for (const int parts : {1, 4, 12, 24, 48}) {
      const std::vector<RowBlock> blocks = sparse::partition_rows_balanced_nnz(m, parts);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const std::string what = "matrix " + std::to_string(id) + " " + std::to_string(parts) +
                                 " ranks block " + std::to_string(i);
        expect_layout_matches_reference(m, blocks[i], what);
        for (const StorageFormat format :
             {StorageFormat::kCsr, StorageFormat::kEll, StorageFormat::kBcsr2,
              StorageFormat::kBcsr4, StorageFormat::kHyb}) {
          const KernelCounts got = rank_counts(m, blocks[i], format);
          const Reference want = reference_counts(m, blocks[i], format);
          EXPECT_EQ(got.executed_elements, want.executed_elements)
              << what << " " << format_params(format).name;
          EXPECT_EQ(got.rows_iterated, want.rows_iterated)
              << what << " " << format_params(format).name;
        }
      }
    }
  }
}

// Row counts are not multiples of 2, 3 or 4, so every BCSR block row set
// ends ragged, and column counts leave a partial last block column.
INSTANTIATE_TEST_SUITE_P(
    Families, FormatTraceReference,
    ::testing::Values(
        Family{"random_uniform", [](std::uint64_t s) { return gen::random_uniform(301, 9, s); }},
        Family{"power_law", [](std::uint64_t s) { return gen::power_law(517, 12, 1.2, s); }},
        Family{"circuit", [](std::uint64_t s) { return gen::circuit(703, 1.5, 0.3, s); }},
        Family{"banded", [](std::uint64_t s) { return gen::banded(449, 6, 0.5, s); }},
        Family{"fem_blocks", [](std::uint64_t s) { return gen::fem_blocks(67, 5, 3, s); }}),
    [](const ::testing::TestParamInfo<Family>& family) { return family.param.name; });

// The repeat contract on its own: after any access, a reference elsewhere on
// the same line through repeat() leaves the TLB, both caches and the trace
// counters exactly as access() would.
TEST(TrackerRepeat, MatchesAccessForAnyReferenceOnThePrecedingLine) {
  for (const Geometry& g : geometries()) {
    cache::Hierarchy fast_h(g.hierarchy);
    cache::Hierarchy ref_h(g.hierarchy);
    std::optional<cache::Tlb> fast_tlb;
    std::optional<cache::Tlb> ref_tlb;
    if (g.tlb) {
      fast_tlb.emplace(*g.tlb);
      ref_tlb.emplace(*g.tlb);
    }
    detail::Tracker fast(fast_h, fast_tlb ? &*fast_tlb : nullptr);
    detail::Tracker ref(ref_h, ref_tlb ? &*ref_tlb : nullptr);
    const bytes_t line = g.hierarchy.l1.line_bytes;
    Rng rng(0x5eed);
    for (int i = 0; i < 20000; ++i) {
      // A small footprint mixes hits, misses and dirty evictions.
      const std::uint64_t address = rng.next() % (64 * 1024 * 4);
      const bool write = rng.next() % 3 == 0;
      fast.access(address, write);
      ref.access(address, write);
      const std::uint64_t repeats = rng.next() % 4;
      for (std::uint64_t k = 0; k < repeats; ++k) {
        const std::uint64_t same_line = address - address % line + rng.next() % line;
        const bool repeat_write = rng.next() % 2 == 0;
        fast.repeat(same_line, repeat_write);
        ref.access(same_line, repeat_write);
      }
    }
    const TraceResult got = fast.finish(0, 0);
    const TraceResult want = ref.finish(0, 0);
    expect_stats_eq(got.l1, want.l1, g.name + " l1");
    expect_stats_eq(got.l2, want.l2, g.name + " l2");
    EXPECT_EQ(got.tlb_misses, want.tlb_misses) << g.name;
    if (fast_tlb) {
      EXPECT_EQ(fast_tlb->hits(), ref_tlb->hits()) << g.name;
    }
    EXPECT_EQ(fast_h.flush(), ref_h.flush()) << g.name;
  }
}

}  // namespace
}  // namespace scc::sim
