// Per-chip health machinery of the cluster: the virtual-time heartbeat
// failure detector and the consecutive-failure circuit breaker.
//
// Both are deliberately dumb, deterministic state machines. The detector
// never ticks: a chip that crashes at time t simply stops heartbeating, and
// the moment the balancer would *notice* (suspect after a few missed beats,
// dead after a few more) is computable at crash time -- the cluster
// simulator schedules those two instants as timers. Re-admission is the
// mirror image: a chip that restarts at time t resumes heartbeating on the
// next beat boundary, and the balancer trusts it again ("rejoining" ->
// "healthy") only after `rejoin_after_beats` consecutive beats -- also a
// single precomputable instant. A fault-free run therefore has no detector
// events at all, which is what lets the single-chip serve simulator run as
// the zero-fault one-chip cluster.
#pragma once

#include <string>

namespace scc::cluster {

/// Router-visible chip states. healthy -> suspect -> dead is driven by the
/// failure detector; dead -> rejoining -> healthy by chip re-admission
/// (restart + probation beats); draining means the chip's circuit breaker
/// is open (finish what you have, take nothing new); quarantined means the
/// chip crossed the silent-data-corruption threshold and is permanently
/// withdrawn -- unlike draining or dead it is terminal, because bad DRAM
/// does not heal on restart (docs/INTEGRITY.md).
enum class HealthState { kHealthy, kSuspect, kRejoining, kDraining, kDead, kQuarantined };

std::string to_string(HealthState state);

struct DetectorConfig {
  double heartbeat_seconds = 0.005;  ///< virtual heartbeat period
  int suspect_after_missed = 2;      ///< missed beats before "suspect"
  int dead_after_missed = 4;         ///< missed beats before "dead"
  /// Consecutive beats a restarted chip must send before the balancer
  /// promotes it rejoining -> healthy (the probation window).
  int rejoin_after_beats = 2;
};

/// When the detector transitions a chip that silently crashed at
/// `crash_seconds`. Deadlines are quantized to heartbeat boundaries: the
/// last beat the chip actually sent is the one at or before the crash.
struct FailureDeadlines {
  double suspect_seconds = 0.0;
  double dead_seconds = 0.0;
};

FailureDeadlines detection_deadlines(const DetectorConfig& config, double crash_seconds);

/// When the detector promotes a chip that restarted at `restart_seconds`
/// from rejoining to healthy: the first beat lands on the first heartbeat
/// boundary strictly after the restart, and the promotion happens on beat
/// number `rejoin_after_beats` -- quantized, like the failure deadlines, so
/// same-seed runs replay the transition byte for byte.
double rejoin_deadline(const DetectorConfig& config, double restart_seconds);

struct BreakerConfig {
  int failure_threshold = 3;       ///< consecutive job failures that trip it
  double cooldown_seconds = 0.05;  ///< open -> half-open wait
};

/// Classic three-state circuit breaker in virtual time. Closed admits
/// traffic; `failure_threshold` consecutive job failures open it; after
/// `cooldown_seconds` the next admission probe half-opens it. Half-open
/// admits exactly ONE probe job at a time (note_dispatch() marks it in
/// flight); the probe's outcome decides (success closes, failure re-opens).
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerConfig config) : config_(config) {}

  State state() const { return state_; }
  int trip_count() const { return trip_count_; }
  /// When an open breaker may half-open (meaningless unless open).
  double open_until() const { return open_until_; }
  /// A half-open probe job is dispatched and awaiting its verdict.
  bool probe_in_flight() const { return probe_in_flight_; }

  /// May the chip take a new job at `now`? Transitions open -> half-open
  /// when the cooldown expired (hence non-const). Half-open refuses further
  /// traffic while the probe job is still in flight.
  bool allows(double now);

  /// The chip dispatched a job: when half-open, that job is the probe and
  /// no more traffic is admitted until its outcome arrives.
  void note_dispatch();

  void on_success();
  void on_failure(double now);

 private:
  BreakerConfig config_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int trip_count_ = 0;
  double open_until_ = 0.0;
  bool probe_in_flight_ = false;
};

std::string to_string(CircuitBreaker::State state);

}  // namespace scc::cluster
