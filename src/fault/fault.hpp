// Deterministic fault injection for the RCCE emulation.
//
// Many-core SpMV studies treat stragglers, flaky tiles and partial failures
// as first-class experimental variables; this subsystem makes them
// reproducible. A `Plan` describes *what* goes wrong -- a UE killed at a
// chosen operation count, an MPB transfer dropped / corrupted / made
// transient, a tile delayed, the shared-memory arena exhausted -- either as
// explicit events or as seeded stochastic rates. An `Injector` wraps a plan
// as a pure oracle the runtime consults at each instrumentation point:
// identical seeds yield identical fault schedules, so a whole degraded run
// (including its recovery) replays bit-for-bit.
//
// The oracle is stateless and const: all bookkeeping (per-UE operation
// counters, per-channel message counters, the event log) lives in
// `rcce::Runtime` under its mutex, which keeps the injector trivially
// thread-safe -- the emulation runs UEs as std::threads and the whole stack
// must stay clean under ThreadSanitizer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace scc::fault {

/// RCCE operations the runtime counts per UE. Every entry into one of these
/// calls advances the UE's operation index by one; fault plans address
/// points in an execution as (rank, op_index) pairs, which are deterministic
/// because each UE's call sequence is program order.
enum class Op {
  kBarrier,
  kSend,
  kRecv,
  kPut,
  kGet,
  kFlagSet,
  kFlagWait,
  kShmalloc,
};

const char* to_string(Op op);

/// What happened during a run. The runtime appends one entry per injected
/// fault, retry, timeout and death; the SpMV driver appends repartition
/// events. Logs are sorted by (rank, op_index, type, peer) before being
/// returned so that concurrent UEs cannot make the order nondeterministic.
enum class EventType {
  kKill,            ///< UE terminated by the plan
  kDelay,           ///< straggler delay inserted before an op
  kFlagDrop,        ///< a flag_set write was lost
  kTransferDrop,    ///< an entire send message was lost
  kTransferCorrupt, ///< payload bytes flipped in the sender's MPB staging
  kRetry,           ///< transient transfer failure, attempt repeated
  kTimeout,         ///< watchdog expired on a blocking op
  kPeerDead,        ///< blocking op aborted because the peer UE died
  kArenaExhaust,    ///< shmalloc failed by injection
  kRepartition,     ///< a dead UE's row block reassigned by the SpMV driver
  kMemCorrupt,      ///< a bit flipped in a UE's local data (silent corruption)
};

const char* to_string(EventType type);

/// Which local array a memory-corruption event lands in. The regions mirror
/// the data a distributed SpMV rank actually holds: its CSR slice (val /
/// col / ptr), its copy of the input vector, and its partial result.
enum class MemRegion {
  kVal,      ///< CSR value array
  kCol,      ///< CSR column-index array
  kPtr,      ///< CSR row-pointer array
  kX,        ///< input vector
  kPartial,  ///< per-rank partial result y
};

const char* to_string(MemRegion region);

/// Parse a region name ("val", "col", "ptr", "x", "partial"); throws
/// SimulationError with the valid spellings on anything else.
MemRegion parse_mem_region(const std::string& text);

struct Event {
  EventType type = EventType::kKill;
  int rank = -1;             ///< UE the event happened on
  int peer = -1;             ///< other end of the op, -1 when not applicable
  std::uint64_t op_index = 0;
  std::string op;            ///< RCCE op name ("send", "flag_wait", ...)
  std::string detail;        ///< free-form context (bytes, attempt, rows, ...)

  friend bool operator==(const Event&, const Event&) = default;
};

/// One-line rendering for reports and the CLI.
std::string describe(const Event& event);

/// Count events of one type in a log.
std::size_t count(const std::vector<Event>& log, EventType type);

/// Thrown inside a UE body when the plan kills it. The runtime treats this
/// as an injected death -- the rank is marked dead and the run continues --
/// unlike any other exception, which poisons the whole runtime.
class UeKilledError : public SimulationError {
 public:
  UeKilledError(int rank, std::uint64_t op_index);
  int rank() const { return rank_; }
  std::uint64_t op_index() const { return op_index_; }

 private:
  int rank_;
  std::uint64_t op_index_;
};

/// How a planned transfer fault manifests.
enum class TransferMode {
  kNone,       ///< deliver normally
  kDrop,       ///< lose the whole message; the receiver's watchdog fires
  kCorrupt,    ///< deliver with payload bytes flipped
  kTransient,  ///< fail `transient_failures` staging attempts, then deliver
};

/// Deterministic fault schedule. Explicit lists pin faults to exact points;
/// the stochastic rates draw per-site from a hash of (seed, site), so they
/// are just as reproducible -- no global RNG stream ordering is involved.
struct Plan {
  std::uint64_t seed = 0x5cc;

  struct Kill {
    int rank = -1;
    std::uint64_t op_index = 0;
  };
  struct Delay {
    int rank = -1;
    std::uint64_t op_index = 0;
    double seconds = 0.001;
  };
  struct FlagDrop {
    int rank = -1;            ///< the UE whose flag_set is lost
    std::uint64_t op_index = 0;
  };
  struct Transfer {
    int src = -1;
    int dest = -1;
    std::uint64_t message_index = 0;  ///< n-th send() on the (src,dest) channel
    TransferMode mode = TransferMode::kDrop;
    int transient_failures = 1;
  };
  /// One bit flip in a rank's local data. `element` indexes into the region
  /// and is clamped modulo the region's size by the applier, so plans stay
  /// valid across matrix sizes; `bit` addresses the element's 64-bit word
  /// (for col indices the applier folds it into the index width).
  struct MemCorrupt {
    int rank = -1;
    MemRegion region = MemRegion::kVal;
    std::uint64_t element = 0;
    int bit = 40;

    friend bool operator==(const MemCorrupt&, const MemCorrupt&) = default;
  };

  std::vector<Kill> kills;
  std::vector<Delay> delays;
  std::vector<FlagDrop> flag_drops;
  std::vector<Transfer> transfers;
  std::vector<MemCorrupt> mem_corruptions;
  /// shmalloc rounds that report arena exhaustion regardless of free space.
  std::vector<std::uint64_t> arena_exhaust_rounds;

  /// Stochastic rates, evaluated per send message / per op from `seed`.
  double transient_rate = 0.0;   ///< probability a message needs retries
  int transient_failures = 1;    ///< failed attempts per transient message
  double drop_rate = 0.0;        ///< probability a message is lost outright
  double corrupt_rate = 0.0;     ///< probability a message is corrupted
  double delay_rate = 0.0;       ///< probability an op is preceded by a stall
  double delay_seconds = 0.001;  ///< stall length for stochastic delays
  /// Probability each rank's local data takes one stochastic bit flip
  /// (region/element/bit drawn from the seed per rank).
  double mem_corrupt_rate = 0.0;

  bool empty() const {
    return kills.empty() && delays.empty() && flag_drops.empty() && transfers.empty() &&
           mem_corruptions.empty() && arena_exhaust_rounds.empty() && transient_rate <= 0.0 &&
           drop_rate <= 0.0 && corrupt_rate <= 0.0 && delay_rate <= 0.0 &&
           mem_corrupt_rate <= 0.0;
  }
};

/// Pure, thread-safe oracle over a Plan. The runtime asks it what should
/// happen at each instrumentation point; it never mutates.
class Injector {
 public:
  explicit Injector(Plan plan);

  const Plan& plan() const { return plan_; }

  struct OpAction {
    bool kill = false;
    bool drop_flag = false;     ///< only meaningful for Op::kFlagSet
    double delay_seconds = 0.0; ///< > 0 inserts a straggler stall
  };
  OpAction on_op(int rank, Op op, std::uint64_t op_index) const;

  struct TransferAction {
    TransferMode mode = TransferMode::kNone;
    int transient_failures = 0;
  };
  TransferAction on_transfer(int src, int dest, std::uint64_t message_index) const;

  /// True when the plan exhausts the arena at this collective round.
  bool exhaust_shmalloc(std::uint64_t round) const;

  /// Every memory corruption `rank` suffers this run: the explicit entries
  /// plus at most one stochastic flip drawn from mem_corrupt_rate. Element
  /// indices may exceed the region size; the applier clamps them.
  std::vector<Plan::MemCorrupt> on_memory(int rank) const;

 private:
  /// Deterministic per-site Bernoulli draw (scc::site_draw).
  bool draw(std::uint64_t a, std::uint64_t b, std::uint64_t salt, double rate) const;

  Plan plan_;
};

}  // namespace scc::fault
