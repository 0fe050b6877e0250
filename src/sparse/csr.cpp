#include "sparse/csr.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "sparse/reorder.hpp"

namespace scc::sparse {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<nnz_t> ptr,
                     std::vector<index_t> col, std::vector<real_t> val)
    : rows_(rows), cols_(cols), ptr_(std::move(ptr)), col_(std::move(col)), val_(std::move(val)) {
  validate();
}

CsrMatrix CsrMatrix::from_coo(CooMatrix coo) {
  SCC_REQUIRE(coo.rows() > 0 && coo.cols() > 0, "from_coo requires a non-empty shape");
  coo.normalize();
  CsrMatrix out;
  out.rows_ = coo.rows();
  out.cols_ = coo.cols();
  out.ptr_.assign(static_cast<std::size_t>(out.rows_) + 1, 0);
  out.col_.resize(static_cast<std::size_t>(coo.nnz()));
  out.val_.resize(static_cast<std::size_t>(coo.nnz()));
  for (const Triplet& t : coo.entries()) {
    ++out.ptr_[static_cast<std::size_t>(t.row) + 1];
  }
  std::partial_sum(out.ptr_.begin(), out.ptr_.end(), out.ptr_.begin());
  // Entries are already row-major sorted, so a single linear pass fills CSR.
  std::size_t k = 0;
  for (const Triplet& t : coo.entries()) {
    out.col_[k] = t.col;
    out.val_[k] = t.value;
    ++k;
  }
  out.validate();
  return out;
}

CooMatrix CsrMatrix::to_coo() const {
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz());
  for (index_t r = 0; r < rows_; ++r) {
    for (nnz_t k = ptr_[static_cast<std::size_t>(r)]; k < ptr_[static_cast<std::size_t>(r) + 1];
         ++k) {
      coo.add(r, col_[static_cast<std::size_t>(k)], val_[static_cast<std::size_t>(k)]);
    }
  }
  return coo;
}

index_t CsrMatrix::row_length(index_t r) const {
  SCC_REQUIRE(r >= 0 && r < rows_, "row " << r << " out of range");
  return static_cast<index_t>(ptr_[static_cast<std::size_t>(r) + 1] -
                              ptr_[static_cast<std::size_t>(r)]);
}

std::span<const index_t> CsrMatrix::row_cols(index_t r) const {
  SCC_REQUIRE(r >= 0 && r < rows_, "row " << r << " out of range");
  const auto begin = static_cast<std::size_t>(ptr_[static_cast<std::size_t>(r)]);
  const auto end = static_cast<std::size_t>(ptr_[static_cast<std::size_t>(r) + 1]);
  return {col_.data() + begin, end - begin};
}

std::span<const real_t> CsrMatrix::row_vals(index_t r) const {
  SCC_REQUIRE(r >= 0 && r < rows_, "row " << r << " out of range");
  const auto begin = static_cast<std::size_t>(ptr_[static_cast<std::size_t>(r)]);
  const auto end = static_cast<std::size_t>(ptr_[static_cast<std::size_t>(r) + 1]);
  return {val_.data() + begin, end - begin};
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  out.col_.resize(col_.size());
  out.val_.resize(val_.size());
  for (index_t c : col_) {
    ++out.ptr_[static_cast<std::size_t>(c) + 1];
  }
  std::partial_sum(out.ptr_.begin(), out.ptr_.end(), out.ptr_.begin());
  std::vector<nnz_t> cursor(out.ptr_.begin(), out.ptr_.end() - 1);
  for (index_t r = 0; r < rows_; ++r) {
    for (nnz_t k = ptr_[static_cast<std::size_t>(r)]; k < ptr_[static_cast<std::size_t>(r) + 1];
         ++k) {
      const auto c = static_cast<std::size_t>(col_[static_cast<std::size_t>(k)]);
      const auto slot = static_cast<std::size_t>(cursor[c]++);
      out.col_[slot] = r;
      out.val_[slot] = val_[static_cast<std::size_t>(k)];
    }
  }
  out.validate();
  return out;
}

CsrMatrix CsrMatrix::permute_symmetric(std::span<const index_t> perm) const {
  SCC_REQUIRE(rows_ == cols_, "permute_symmetric requires a square matrix");
  SCC_REQUIRE(static_cast<index_t>(perm.size()) == rows_,
              "permutation size " << perm.size() << " != n " << rows_);
  std::vector<index_t> inverse(perm.size(), -1);
  for (std::size_t new_idx = 0; new_idx < perm.size(); ++new_idx) {
    const index_t old_idx = perm[new_idx];
    SCC_REQUIRE(old_idx >= 0 && old_idx < rows_, "permutation entry out of range");
    SCC_REQUIRE(inverse[static_cast<std::size_t>(old_idx)] == -1, "permutation is not bijective");
    inverse[static_cast<std::size_t>(old_idx)] = static_cast<index_t>(new_idx);
  }
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz());
  for (index_t new_row = 0; new_row < rows_; ++new_row) {
    const index_t old_row = perm[static_cast<std::size_t>(new_row)];
    const auto cols = row_cols(old_row);
    const auto vals = row_vals(old_row);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(new_row, inverse[static_cast<std::size_t>(cols[k])], vals[k]);
    }
  }
  return from_coo(std::move(coo));
}

CsrMatrix CsrMatrix::permute_rows(std::span<const index_t> perm) const {
  SCC_REQUIRE(static_cast<index_t>(perm.size()) == rows_,
              "permutation size " << perm.size() << " != rows " << rows_);
  std::vector<bool> seen(perm.size(), false);
  CsrMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  out.col_.reserve(col_.size());
  out.val_.reserve(val_.size());
  for (std::size_t new_row = 0; new_row < perm.size(); ++new_row) {
    const index_t old_row = perm[new_row];
    SCC_REQUIRE(old_row >= 0 && old_row < rows_, "permutation entry out of range");
    SCC_REQUIRE(!seen[static_cast<std::size_t>(old_row)], "permutation is not bijective");
    seen[static_cast<std::size_t>(old_row)] = true;
    const auto cols = row_cols(old_row);
    const auto vals = row_vals(old_row);
    out.col_.insert(out.col_.end(), cols.begin(), cols.end());
    out.val_.insert(out.val_.end(), vals.begin(), vals.end());
    out.ptr_[new_row + 1] = static_cast<nnz_t>(out.col_.size());
  }
  out.validate();
  return out;
}

void CsrMatrix::validate() const {
  SCC_REQUIRE(rows_ >= 0 && cols_ >= 0, "negative dimensions");
  SCC_REQUIRE(ptr_.size() == static_cast<std::size_t>(rows_) + 1,
              "ptr size " << ptr_.size() << " != rows+1 " << rows_ + 1);
  SCC_REQUIRE(ptr_.front() == 0, "ptr[0] must be 0");
  SCC_REQUIRE(ptr_.back() == static_cast<nnz_t>(col_.size()),
              "ptr[n] " << ptr_.back() << " != nnz " << col_.size());
  SCC_REQUIRE(col_.size() == val_.size(), "col/val size mismatch");
  for (index_t r = 0; r < rows_; ++r) {
    const nnz_t begin = ptr_[static_cast<std::size_t>(r)];
    const nnz_t end = ptr_[static_cast<std::size_t>(r) + 1];
    SCC_REQUIRE(begin <= end, "ptr not monotone at row " << r);
    for (nnz_t k = begin; k < end; ++k) {
      const index_t c = col_[static_cast<std::size_t>(k)];
      SCC_REQUIRE(c >= 0 && c < cols_, "column " << c << " out of range in row " << r);
      SCC_REQUIRE(k == begin || col_[static_cast<std::size_t>(k) - 1] < c,
                  "columns not strictly increasing in row " << r);
    }
  }
}

std::uint64_t CsrMatrix::fingerprint() const {
  return fingerprint_.get([this] {
    common::Fnv1a hash;
    hash.i64(rows_);
    hash.i64(cols_);
    hash.array(std::span<const nnz_t>(ptr_));
    hash.array(std::span<const index_t>(col_));
    return hash.value();
  });
}

std::span<const index_t> CsrMatrix::rcm_order() const {
  return rcm_order_.get([this] {
    // Keep a copy made after RCM's temporaries (a transpose and the
    // symmetrized adjacency, each several times the order's size) are
    // freed. The vector RCM returns was allocated while they were live, and
    // keeping that block left it amid their freed space: on a 4-vCPU VM,
    // bench/perf tune_explore's peak RSS rose by up to 2 MB on some orders.
    const std::vector<index_t> order = reverse_cuthill_mckee(*this);
    return std::vector<index_t>(order.begin(), order.end());
  });
}

std::uint64_t CsrMatrix::value_digest() const {
  return value_digest_.get([this] {
    common::Fnv1a hash;
    hash.array(std::span<const real_t>(val_));
    return hash.value();
  });
}

const std::vector<real_t>& CsrMatrix::checksum_row() const {
  if (!checksum_valid_) {
    checksum_.assign(static_cast<std::size_t>(cols_), 0.0);
    for (index_t r = 0; r < rows_; ++r) {
      const real_t w = checksum_weight(r);
      for (nnz_t k = ptr_[static_cast<std::size_t>(r)];
           k < ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
        checksum_[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])] +=
            w * val_[static_cast<std::size_t>(k)];
      }
    }
    checksum_valid_ = true;
  }
  return checksum_;
}

std::vector<real_t> dense_reference_spmv(const CsrMatrix& a, std::span<const real_t> x) {
  SCC_REQUIRE(static_cast<index_t>(x.size()) == a.cols(),
              "x size " << x.size() << " != cols " << a.cols());
  std::vector<real_t> y(static_cast<std::size_t>(a.rows()), 0.0);
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    real_t acc = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

}  // namespace scc::sparse
