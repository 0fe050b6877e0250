#include "integrity/integrity.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace scc::integrity {

namespace {

/// Kahan-compensated accumulator: keeps the checksum's rounding error at
/// O(eps * sum|terms|) instead of O(n * eps * sum|terms|), which is what
/// lets the tolerance stay tight enough to catch upper-mantissa flips.
struct Kahan {
  double sum = 0.0;
  double carry = 0.0;

  void add(double term) {
    const double y = term - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
};

double flip_bit(double value, int bit) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= std::uint64_t{1} << bit;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

/// Bits needed to represent indices in [0, n); at least 1.
int index_width(index_t n) {
  int width = 1;
  while ((index_t{1} << width) < n) ++width;
  return width;
}

/// Serial product with the row bounds clamped and order-checked, so a
/// corrupted ptr array cannot read out of range (a hardened kernel would
/// bound its loads the same way; rows with inverted bounds compute empty).
std::vector<real_t> guarded_product(index_t rows, std::span<const nnz_t> ptr,
                                    std::span<const index_t> col, std::span<const real_t> val,
                                    std::span<const real_t> x) {
  const auto nnz = static_cast<nnz_t>(col.size());
  std::vector<real_t> y(static_cast<std::size_t>(rows), 0.0);
  for (index_t r = 0; r < rows; ++r) {
    const nnz_t begin = std::clamp<nnz_t>(ptr[static_cast<std::size_t>(r)], 0, nnz);
    const nnz_t end = std::clamp<nnz_t>(ptr[static_cast<std::size_t>(r) + 1], 0, nnz);
    real_t acc = 0.0;
    for (nnz_t k = begin; k < end; ++k) {
      acc += val[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

}  // namespace

const char* to_string(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff: return "off";
    case VerifyMode::kDetect: return "detect";
    case VerifyMode::kCorrect: return "correct";
  }
  return "?";
}

VerifyMode parse_verify_mode(const std::string& text) {
  if (text == "off") return VerifyMode::kOff;
  if (text == "detect") return VerifyMode::kDetect;
  if (text == "correct") return VerifyMode::kCorrect;
  SCC_REQUIRE(false,
              "unknown verify mode '" << text << "' (expected off, detect or correct)");
  return VerifyMode::kOff;
}

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kClean: return "clean";
    case Outcome::kSilent: return "silent";
    case Outcome::kDetected: return "detected";
    case Outcome::kCorrected: return "corrected";
    case Outcome::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

std::string describe(const Corruption& corruption) {
  std::ostringstream oss;
  oss << "region " << fault::to_string(corruption.region) << " element "
      << corruption.element << " bit " << corruption.bit;
  return oss.str();
}

std::vector<real_t> reference_x(index_t cols) {
  std::vector<real_t> x(static_cast<std::size_t>(cols));
  for (index_t j = 0; j < cols; ++j) {
    x[static_cast<std::size_t>(j)] = 1.0 + static_cast<real_t>(j) * (1.0 / 65536.0);
  }
  return x;
}

std::vector<real_t> serial_product(const sparse::CsrMatrix& a,
                                   const std::vector<real_t>& x) {
  return guarded_product(a.rows(), a.ptr(), a.col(), a.val(), x);
}

Check verify_product(const sparse::CsrMatrix& a, const std::vector<real_t>& x,
                     const std::vector<real_t>& y) {
  SCC_REQUIRE(static_cast<index_t>(x.size()) == a.cols(), "verify: x size mismatch");
  SCC_REQUIRE(static_cast<index_t>(y.size()) == a.rows(), "verify: y size mismatch");
  const std::vector<real_t>& s = a.checksum_row();

  Kahan lhs;        // c^T y
  double mag = 0.0; // accumulated clean-term magnitudes for the tolerance
  for (index_t i = 0; i < a.rows(); ++i) {
    const double term = sparse::CsrMatrix::checksum_weight(i) * y[static_cast<std::size_t>(i)];
    lhs.add(term);
    mag += std::abs(term);
  }
  Kahan rhs;  // s . x
  for (index_t j = 0; j < a.cols(); ++j) {
    const double term = s[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
    rhs.add(term);
    mag += std::abs(term);
  }
  // The row sums inside y and the checksum row s each accumulate their own
  // rounding; bound them by the full term magnitudes they sum over.
  for (index_t r = 0; r < a.rows(); ++r) {
    const double w = sparse::CsrMatrix::checksum_weight(r);
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    double row_mag = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      row_mag += std::abs(vals[k] * x[static_cast<std::size_t>(cols[k])]);
    }
    mag += 2.0 * w * row_mag;
  }

  Check check;
  check.residual = std::abs(lhs.sum - rhs.sum);
  check.tolerance = 64.0 * std::numeric_limits<double>::epsilon() * mag;
  // NaN-safe: a flipped exponent can turn the product into NaN, and
  // NaN <= tolerance is false -- which is exactly "detected".
  check.detected = !(check.residual <= check.tolerance);
  return check;
}

Check verify_clean(const sparse::CsrMatrix& a) {
  const std::vector<real_t> x = reference_x(a.cols());
  return verify_product(a, x, serial_product(a, x));
}

std::vector<real_t> corrupted_product(const sparse::CsrMatrix& a,
                                      const std::vector<real_t>& x,
                                      const Corruption& corruption) {
  std::vector<nnz_t> ptr(a.ptr().begin(), a.ptr().end());
  std::vector<index_t> col(a.col().begin(), a.col().end());
  std::vector<real_t> val(a.val().begin(), a.val().end());
  std::vector<real_t> xx = x;
  const auto nnz = static_cast<std::uint64_t>(a.nnz());

  switch (corruption.region) {
    case fault::MemRegion::kVal: {
      if (nnz == 0) break;
      const auto e = static_cast<std::size_t>(corruption.element % nnz);
      val[e] = flip_bit(val[e], corruption.bit);
      break;
    }
    case fault::MemRegion::kCol: {
      if (nnz == 0 || a.cols() <= 1) break;  // a 1-column index cannot change
      const auto e = static_cast<std::size_t>(corruption.element % nnz);
      // Fold the flipped bit into the index width, then wrap into range: the
      // stored index is 32-bit, but only its low bits are meaningful.
      const index_t old = col[e];
      index_t flipped = old ^ static_cast<index_t>(
                                  index_t{1} << (corruption.bit % index_width(a.cols())));
      if (flipped >= a.cols()) flipped = flipped % a.cols();
      if (flipped == old) flipped = static_cast<index_t>((old + 1) % a.cols());
      col[e] = flipped;
      break;
    }
    case fault::MemRegion::kPtr: {
      const auto e = static_cast<std::size_t>(corruption.element %
                                              static_cast<std::uint64_t>(a.rows() + 1));
      const nnz_t old = ptr[e];
      std::uint64_t bits = static_cast<std::uint64_t>(old);
      bits ^= std::uint64_t{1} << (corruption.bit % 63);
      nnz_t flipped = std::clamp<nnz_t>(static_cast<nnz_t>(bits), 0, a.nnz());
      if (flipped == old) flipped = old > 0 ? old - 1 : std::min<nnz_t>(1, a.nnz());
      ptr[e] = flipped;
      break;
    }
    case fault::MemRegion::kX: {
      if (a.cols() == 0) break;
      const auto e = static_cast<std::size_t>(corruption.element %
                                              static_cast<std::uint64_t>(a.cols()));
      xx[e] = flip_bit(xx[e], corruption.bit);
      break;
    }
    case fault::MemRegion::kPartial: {
      std::vector<real_t> y = guarded_product(a.rows(), ptr, col, val, xx);
      if (a.rows() > 0) {
        const auto e = static_cast<std::size_t>(corruption.element %
                                                static_cast<std::uint64_t>(a.rows()));
        y[e] = flip_bit(y[e], corruption.bit);
      }
      return y;
    }
  }
  return guarded_product(a.rows(), ptr, col, val, xx);
}

SdcOracle::SdcOracle(SdcPlan plan) : plan_(plan) {
  SCC_REQUIRE(plan_.rate >= 0.0 && plan_.rate <= 1.0, "sdc rate must lie in [0,1]");
  SCC_REQUIRE(plan_.sticky_rate >= 0.0 && plan_.sticky_rate <= 1.0,
              "sdc sticky rate must lie in [0,1]");
  SCC_REQUIRE(plan_.min_bit >= 0 && plan_.max_bit <= 62 && plan_.min_bit <= plan_.max_bit,
              "sdc bit range [" << plan_.min_bit << "," << plan_.max_bit
                                << "] must satisfy 0 <= min <= max <= 62");
}

bool SdcOracle::corrupts(std::uint64_t site, std::uint64_t attempt) const {
  const double rate = attempt == 0 ? plan_.rate : plan_.sticky_rate;
  if (rate <= 0.0) return false;
  Rng rng(site_draw(plan_.seed, site, attempt, /*salt=*/60));
  return rng.bernoulli(rate);
}

Corruption SdcOracle::draw_corruption(std::uint64_t site, std::uint64_t attempt,
                                      const sparse::CsrMatrix& a) const {
  Corruption corruption;
  Rng rng(site_draw(plan_.seed, site, attempt, /*salt=*/61));
  corruption.region = static_cast<fault::MemRegion>(rng.next() % 5);
  corruption.bit = plan_.min_bit + static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                                        plan_.max_bit - plan_.min_bit + 1));
  std::uint64_t size = 1;
  switch (corruption.region) {
    case fault::MemRegion::kVal:
    case fault::MemRegion::kCol:
      size = static_cast<std::uint64_t>(a.nnz());
      break;
    case fault::MemRegion::kPtr:
      size = static_cast<std::uint64_t>(a.rows()) + 1;
      break;
    case fault::MemRegion::kX:
      size = static_cast<std::uint64_t>(a.cols());
      break;
    case fault::MemRegion::kPartial:
      size = static_cast<std::uint64_t>(a.rows());
      break;
  }
  corruption.element = size > 0 ? rng.next() % size : 0;
  return corruption;
}

Evaluation SdcOracle::evaluate(const sparse::CsrMatrix& a, std::uint64_t site,
                               std::uint64_t attempt) const {
  Evaluation eval;
  eval.corruption = draw_corruption(site, attempt, a);
  const std::vector<real_t> x = reference_x(a.cols());
  const std::vector<real_t> clean = serial_product(a, x);
  const std::vector<real_t> y = corrupted_product(a, x, eval.corruption);
  eval.check = verify_product(a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == clean[i]) continue;
    const double diff = std::abs(y[i] - clean[i]);
    if (!(diff <= 1e-12 * (1.0 + std::abs(clean[i])))) {
      eval.significant = true;
      break;
    }
  }
  return eval;
}

VerifyReport run_verification(const sparse::CsrMatrix& a, VerifyMode mode,
                              const SdcOracle* oracle, std::uint64_t site) {
  VerifyReport report;
  report.mode = mode;
  const bool active = oracle != nullptr && !oracle->plan().empty();
  if (!active || !oracle->corrupts(site, 0)) {
    if (mode != VerifyMode::kOff) {
      const Check check = verify_clean(a);
      report.residual = check.residual;
      report.tolerance = check.tolerance;
    }
    report.outcome = Outcome::kClean;
    return report;
  }

  report.injected = true;
  const Evaluation first = oracle->evaluate(a, site, 0);
  report.corruption = first.corruption;
  report.significant = first.significant;
  report.residual = first.check.residual;
  report.tolerance = first.check.tolerance;
  if (mode == VerifyMode::kOff || !first.check.detected) {
    report.outcome = Outcome::kSilent;  // delivered unchecked / uncaught
    return report;
  }
  if (mode == VerifyMode::kDetect) {
    report.outcome = Outcome::kDetected;
    return report;
  }

  // kCorrect: one bounded recompute; sticky corruption may hit it again.
  report.attempts = 2;
  if (oracle->corrupts(site, 1)) {
    const Evaluation retry = oracle->evaluate(a, site, 1);
    report.corruption = retry.corruption;
    report.significant = retry.significant;
    report.residual = retry.check.residual;
    report.tolerance = retry.check.tolerance;
    report.outcome =
        retry.check.detected ? Outcome::kUnrecoverable : Outcome::kSilent;
    return report;
  }
  const Check check = verify_clean(a);
  report.residual = check.residual;
  report.tolerance = check.tolerance;
  report.significant = false;  // the delivered product is the clean recompute
  report.outcome = Outcome::kCorrected;
  return report;
}

double verify_stream_bytes(index_t rows, index_t cols) {
  return 8.0 * (static_cast<double>(rows) + 2.0 * static_cast<double>(cols));
}

}  // namespace scc::integrity
