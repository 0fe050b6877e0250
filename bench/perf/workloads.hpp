// The benchmark's four workloads. Each is a closed loop of operations on
// the host (the next operation starts when the previous one returns); the
// operations are drawn from a fixed universe whose golden digests are
// committed, in an order the seed decides.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perf {

enum class Size { kFull, kSmoke };

/// Testbed scale of a size: the full suite, or the smoke subset.
double scale_of(Size size);

/// splitmix64: the benchmark's only source of seeded choices.
std::uint64_t mix64(std::uint64_t x);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// FNV-1a over an explicit little-endian encoding, so a digest does not
/// depend on the host's byte order.
class Digest {
 public:
  void u64(std::uint64_t value);
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value);
  void text(const std::string& value);
  std::uint64_t value() const { return state_; }

 private:
  void byte(unsigned char b);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value);

struct OpResult {
  double seconds = 0.0;  ///< host time of the timed section only
  std::uint64_t digest = 0;
  double sim_nnz = 0.0;       ///< simulated nonzeros multiplied
  double grid_points = 0.0;   ///< sweep or tuner grid points evaluated
  /// Per-layer counts and times of this operation, summed by the traced run.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Load the matrices and warm the caches the operations share.
  virtual void setup(Tracer* tracer) = 0;
  /// Every operation the workload can run, by stable key.
  virtual std::vector<std::string> keys() const = 0;
  /// Seeded run order: blocks of indices into keys(). A run stops only
  /// between blocks, and blocks are alike in cost, so how many blocks fit
  /// in a run does not skew its metrics.
  virtual std::vector<std::vector<std::size_t>> blocks(std::uint64_t seed) const = 0;
  /// Untimed preparation before each block (tune_explore's fresh caches).
  virtual void begin_block(const std::vector<std::size_t>& block) { (void)block; }
  /// Run one operation, timing only the call into the simulator.
  virtual OpResult run(std::size_t op, Tracer* tracer, std::int64_t op_id) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, Size size);
const std::vector<std::string>& workload_names();

}  // namespace perf
