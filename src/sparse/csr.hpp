// Compressed-Sparse-Row matrix — the format the paper's SpMV kernel (its
// Figure 2) operates on: `ptr` (n+1 row offsets), `col` (column index per
// nonzero) and `val` (value per nonzero), with nonzeros stored row-major.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/coo.hpp"

namespace scc::sparse {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from raw arrays; validates the CSR invariants (see `validate`).
  CsrMatrix(index_t rows, index_t cols, std::vector<nnz_t> ptr, std::vector<index_t> col,
            std::vector<real_t> val);

  /// Compress a COO matrix (normalized internally; duplicates are summed).
  static CsrMatrix from_coo(CooMatrix coo);

  /// Expand back to (normalized) COO.
  CooMatrix to_coo() const;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  nnz_t nnz() const { return static_cast<nnz_t>(col_.size()); }

  std::span<const nnz_t> ptr() const { return ptr_; }
  std::span<const index_t> col() const { return col_; }
  std::span<const real_t> val() const { return val_; }
  /// Writable values. Invalidates the value-dependent caches
  /// (`value_digest`, `checksum_row`), so write through the span before the
  /// next read of either.
  std::span<real_t> val_mutable() {
    checksum_valid_ = false;  // values may change under the caller's pen
    value_digest_.reset();
    return val_;
  }

  /// Number of stored entries in row `r`.
  index_t row_length(index_t r) const;

  /// Column indices / values of row `r` as spans.
  std::span<const index_t> row_cols(index_t r) const;
  std::span<const real_t> row_vals(index_t r) const;

  /// A^T (also useful as a column-major view for tests).
  CsrMatrix transpose() const;

  /// Apply a symmetric permutation B = P A P^T, where `perm[new] = old`.
  /// Requires a square matrix and a bijective permutation.
  CsrMatrix permute_symmetric(std::span<const index_t> perm) const;

  /// Apply a row permutation B = P A, where `perm[new] = old`. Columns are
  /// untouched, so every row keeps its exact CSR entry order: the product
  /// P*y is bit-identical to computing y row by row — this is the
  /// numerically-safe "row schedule" reordering the autotuner explores.
  CsrMatrix permute_rows(std::span<const index_t> perm) const;

  /// Check invariants: ptr monotone with ptr[0]=0 and ptr[n]=nnz, column
  /// indices in range and strictly increasing within a row. Throws on
  /// violation; returns normally otherwise.
  void validate() const;

  /// Structural FNV-1a fingerprint over (rows, cols, ptr, col). Values are
  /// deliberately excluded: the trace-driven timing model reads only the
  /// structure (addresses derive from ptr/col), so two matrices with equal
  /// structure simulate identically whatever their values -- this is the
  /// matrix half of the engine's run-memoization key (sim::RunCache).
  /// Computed on first use and cached; the structure never changes after
  /// construction.
  std::uint64_t fingerprint() const;

  /// FNV-1a over the values (`Fnv1a::array(val())`), cached like the
  /// fingerprint until `val_mutable()`. sim::run_key folds it in when a run
  /// verifies its product, since the verdict depends on the values.
  std::uint64_t value_digest() const;

  /// ABFT checksum row s = c^T A with the pseudorandom check vector
  /// c_i = 1 + hash(i)/2^53 in [1, 2): s_j = sum_i c_i * a_ij. Computed
  /// lazily and cached alongside the matrix (the integrity subsystem
  /// verifies every product against it); `val_mutable()` invalidates the
  /// cache. The weights must not lie in the null space of A^T for any A we
  /// care about: flat weights miss an entry migrating between adjacent rows,
  /// and *affine* weights (1 + i*h) are annihilated exactly by discrete
  /// Laplacians -- a 5-point stencil gives s_j = 0 on every interior column,
  /// making input-vector corruption there invisible. Hashed weights leave no
  /// such structured null space.
  const std::vector<real_t>& checksum_row() const;

  /// The check-vector weight for row i (see `checksum_row`): splitmix64 of
  /// the row index mapped into [1, 2). Deterministic across platforms.
  static real_t checksum_weight(index_t i) {
    std::uint64_t z = static_cast<std::uint64_t>(i) + std::uint64_t{0x9e3779b97f4a7c15};
    z = (z ^ (z >> 30)) * std::uint64_t{0xbf58476d1ce4e5b9};
    z = (z ^ (z >> 27)) * std::uint64_t{0x94d049bb133111eb};
    z ^= z >> 31;
    return 1.0 + static_cast<real_t>(z >> 11) * 0x1p-53;
  }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.ptr_ == b.ptr_ &&
           a.col_ == b.col_ && a.val_ == b.val_;
  }

 private:
  /// A lazily computed digest that concurrent const callers may share: the
  /// word 0 means "not computed yet" (a digest that really is 0 is simply
  /// recomputed each time), and racing first calls store the same value. A
  /// copy carries the word along with the arrays it describes; a move hands
  /// it over and clears the source, whose arrays the move emptied.
  class DigestMemo {
   public:
    DigestMemo() = default;
    DigestMemo(const DigestMemo& other) noexcept : word_(other.load()) {}
    DigestMemo(DigestMemo&& other) noexcept : word_(other.take()) {}
    DigestMemo& operator=(const DigestMemo& other) noexcept {
      word_.store(other.load(), std::memory_order_relaxed);
      return *this;
    }
    DigestMemo& operator=(DigestMemo&& other) noexcept {
      word_.store(other.take(), std::memory_order_relaxed);
      return *this;
    }

    template <typename Compute>
    std::uint64_t get(Compute compute) const {
      std::uint64_t value = load();
      if (value == 0) {
        value = compute();
        word_.store(value, std::memory_order_relaxed);
      }
      return value;
    }
    void reset() noexcept { word_.store(0, std::memory_order_relaxed); }

   private:
    std::uint64_t load() const noexcept { return word_.load(std::memory_order_relaxed); }
    std::uint64_t take() noexcept { return word_.exchange(0, std::memory_order_relaxed); }

    mutable std::atomic<std::uint64_t> word_{0};
  };

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<nnz_t> ptr_;
  std::vector<index_t> col_;
  std::vector<real_t> val_;
  // Caches derived from the arrays above; excluded from equality.
  DigestMemo fingerprint_;
  DigestMemo value_digest_;
  // ABFT checksum-row cache (value-dependent, unlike the structural
  // fingerprint).
  mutable std::vector<real_t> checksum_;
  mutable bool checksum_valid_ = false;
};

/// Dense reference product y = A*x used to verify every SpMV kernel.
std::vector<real_t> dense_reference_spmv(const CsrMatrix& a, std::span<const real_t> x);

}  // namespace scc::sparse
