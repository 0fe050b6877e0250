// Algorithm-based fault tolerance (ABFT) for the SpMV product, plus the
// silent-data-corruption (SDC) fault model that exercises it.
//
// The check is the classical one: with a fixed check vector c, precompute
// the checksum row s = c^T A once per matrix (sparse::CsrMatrix caches it
// alongside the fingerprint), then verify every product y = A x by testing
// |c^T y - s . x| <= tolerance. Both checksums are Kahan-compensated serial
// sums in fixed index order, so verification is byte-identical at any
// SCC_SIM_THREADS and the tolerance needs no O(n) slack term: it scales
// with the accumulated term magnitudes only, which is what makes the
// zero-false-positive claim hold while bit flips in the upper mantissa
// stay detectable (docs/INTEGRITY.md derives the bound).
//
// Corruption is modelled as seeded bit flips in the arrays a product
// actually reads or writes (CSR val/col/ptr, the input vector, the result)
// -- drawn per (seed, site, attempt) from the same hash idiom as
// fault::Injector, so a corruption schedule replays bit-for-bit without any
// global RNG stream. `attempt` distinguishes a first product from its
// recompute: a "bad DRAM" chip re-corrupts the retry via sticky_rate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "sparse/csr.hpp"

namespace scc::integrity {

/// How much verification an engine run performs.
enum class VerifyMode {
  kOff,      ///< no checks: corrupted products are delivered as-is
  kDetect,   ///< verify every product; a failed check is surfaced, not fixed
  kCorrect,  ///< verify, and recompute once when the check fails
};

const char* to_string(VerifyMode mode);

/// Parse "off" | "detect" | "correct"; throws SimulationError with the
/// valid spellings on anything else.
VerifyMode parse_verify_mode(const std::string& text);

/// Seeded SDC model for one stream of products.
struct SdcPlan {
  std::uint64_t seed = 0x5dc;
  /// Probability a product's working data takes one bit flip.
  double rate = 0.0;
  /// Probability the recompute of a detected corruption is corrupted again
  /// (sticky "bad DRAM": the faulty chip keeps flipping bits).
  double sticky_rate = 0.0;
  /// Flipped-bit range within the element's 64-bit word. The default floor
  /// of 32 keeps flips above the verification tolerance (a mantissa bit b
  /// perturbs by 2^(b-52) relative); flips far below ~bit 26 are below
  /// floating-point noise and fundamentally undetectable by any checksum.
  int min_bit = 32;
  int max_bit = 62;

  bool empty() const { return rate <= 0.0 && sticky_rate <= 0.0; }

  friend bool operator==(const SdcPlan&, const SdcPlan&) = default;
};

/// How one verified product ended.
enum class Outcome {
  kClean,          ///< no corruption injected, check passed
  kSilent,         ///< corrupted, but the check did not fire (escape)
  kDetected,       ///< corrupted and caught (kDetect mode stops here)
  kCorrected,      ///< corrupted, caught, recompute verified clean
  kUnrecoverable,  ///< corrupted, caught, and the recompute failed too
};

const char* to_string(Outcome outcome);

/// One injected bit flip, fully identified for logs and replay.
struct Corruption {
  fault::MemRegion region = fault::MemRegion::kVal;
  std::uint64_t element = 0;  ///< index within the region (already clamped)
  int bit = 0;

  friend bool operator==(const Corruption&, const Corruption&) = default;
};

std::string describe(const Corruption& corruption);

/// Result of checking one product.
struct Check {
  double residual = 0.0;   ///< |c^T y - s . x|
  double tolerance = 0.0;  ///< rounding-noise bound for this product
  bool detected = false;   ///< residual above tolerance (NaN-safe)
};

/// Result of evaluating one injected corruption against the clean product.
struct Evaluation {
  Check check;
  /// Ground truth: does the corrupted y differ from the clean y beyond
  /// numerical insignificance (1e-12 relative)? A flip in a zero element's
  /// low bits can be bitwise-wrong yet numerically meaningless; claims
  /// count escapes over significant corruptions only.
  bool significant = false;
  Corruption corruption;
};

/// The deterministic verification input vector: x_j = 1 + j * 2^-16, exact
/// in binary and distinct per index so a corrupted column index changes the
/// checksum by a full term, never silently aliasing.
std::vector<real_t> reference_x(index_t cols);

/// Serial fixed-order product y = A x (the numeric ground truth the timing
/// model does not otherwise need).
std::vector<real_t> serial_product(const sparse::CsrMatrix& a,
                                   const std::vector<real_t>& x);

/// Check y against the matrix's cached checksum row. Kahan-compensated and
/// order-fixed; `detected` is NaN-safe (a flipped exponent producing NaN
/// counts as detected).
Check verify_product(const sparse::CsrMatrix& a, const std::vector<real_t>& x,
                     const std::vector<real_t>& y);

/// Verify a clean product of `a` (the false-positive probe).
Check verify_clean(const sparse::CsrMatrix& a);

/// Apply `corruption` to a copy of the product's inputs (or to y itself for
/// kPartial) and return the corrupted y. Pointer corruption is clamped into
/// [0, nnz] and rows with inverted bounds compute empty, mirroring what a
/// guarded kernel would read.
std::vector<real_t> corrupted_product(const sparse::CsrMatrix& a,
                                      const std::vector<real_t>& x,
                                      const Corruption& corruption);

/// Pure seeded oracle over an SdcPlan (same philosophy as fault::Injector).
class SdcOracle {
 public:
  explicit SdcOracle(SdcPlan plan);

  const SdcPlan& plan() const { return plan_; }

  /// Is the `attempt`-th product at `site` corrupted? Attempt 0 draws from
  /// `rate`, recomputes draw from `sticky_rate`.
  bool corrupts(std::uint64_t site, std::uint64_t attempt) const;

  /// The flip this (site, attempt) suffers, clamped to `a`'s region sizes.
  Corruption draw_corruption(std::uint64_t site, std::uint64_t attempt,
                             const sparse::CsrMatrix& a) const;

  /// Draw the corruption, run the corrupted product, and check it.
  Evaluation evaluate(const sparse::CsrMatrix& a, std::uint64_t site,
                      std::uint64_t attempt) const;

 private:
  SdcPlan plan_;
};

/// Full classification of one product at `site` under `mode`: inject via
/// the oracle (null or empty plan = never corrupted), verify, and -- in
/// kCorrect mode -- recompute once on detection.
struct VerifyReport {
  VerifyMode mode = VerifyMode::kOff;
  Outcome outcome = Outcome::kClean;
  bool injected = false;     ///< ground truth: was a flip applied?
  bool significant = false;  ///< ground truth: did the final y change?
  int attempts = 1;          ///< products computed (2 when recomputed)
  double residual = 0.0;     ///< of the final attempt's check
  double tolerance = 0.0;
  Corruption corruption;     ///< valid when injected
};

VerifyReport run_verification(const sparse::CsrMatrix& a, VerifyMode mode,
                              const SdcOracle* oracle, std::uint64_t site);

/// Extra bytes the verification streams through the memory controllers:
/// the s . x dot reads s and x (2 * cols doubles), the c^T y dot reads y
/// (rows doubles; c is generated). Priced per attempt by the engine.
double verify_stream_bytes(index_t rows, index_t cols);

}  // namespace scc::integrity
