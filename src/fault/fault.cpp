#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"

namespace scc::fault {

const char* to_string(Op op) {
  switch (op) {
    case Op::kBarrier: return "barrier";
    case Op::kSend: return "send";
    case Op::kRecv: return "recv";
    case Op::kPut: return "put";
    case Op::kGet: return "get";
    case Op::kFlagSet: return "flag_set";
    case Op::kFlagWait: return "flag_wait";
    case Op::kShmalloc: return "shmalloc";
  }
  return "?";
}

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kKill: return "kill";
    case EventType::kDelay: return "delay";
    case EventType::kFlagDrop: return "flag-drop";
    case EventType::kTransferDrop: return "transfer-drop";
    case EventType::kTransferCorrupt: return "transfer-corrupt";
    case EventType::kRetry: return "retry";
    case EventType::kTimeout: return "timeout";
    case EventType::kPeerDead: return "peer-dead";
    case EventType::kArenaExhaust: return "arena-exhaust";
    case EventType::kRepartition: return "repartition";
    case EventType::kMemCorrupt: return "mem-corrupt";
  }
  return "?";
}

const char* to_string(MemRegion region) {
  switch (region) {
    case MemRegion::kVal: return "val";
    case MemRegion::kCol: return "col";
    case MemRegion::kPtr: return "ptr";
    case MemRegion::kX: return "x";
    case MemRegion::kPartial: return "partial";
  }
  return "?";
}

MemRegion parse_mem_region(const std::string& text) {
  if (text == "val") return MemRegion::kVal;
  if (text == "col") return MemRegion::kCol;
  if (text == "ptr") return MemRegion::kPtr;
  if (text == "x") return MemRegion::kX;
  if (text == "partial") return MemRegion::kPartial;
  SCC_REQUIRE(false, "unknown memory region '" << text
                                               << "' (expected val, col, ptr, x or partial)");
  return MemRegion::kVal;
}

std::string describe(const Event& event) {
  std::ostringstream oss;
  oss << to_string(event.type) << " UE " << event.rank;
  if (event.peer >= 0) oss << " <-> UE " << event.peer;
  if (!event.op.empty()) oss << " in " << event.op;
  oss << " (op #" << event.op_index << ")";
  if (!event.detail.empty()) oss << ": " << event.detail;
  return oss.str();
}

std::size_t count(const std::vector<Event>& log, EventType type) {
  return static_cast<std::size_t>(
      std::count_if(log.begin(), log.end(), [&](const Event& e) { return e.type == type; }));
}

namespace {

std::string killed_message(int rank, std::uint64_t op_index) {
  std::ostringstream oss;
  oss << "UE " << rank << " killed by fault plan at op #" << op_index;
  return oss.str();
}

}  // namespace

UeKilledError::UeKilledError(int rank, std::uint64_t op_index)
    : SimulationError(killed_message(rank, op_index)), rank_(rank), op_index_(op_index) {}

Injector::Injector(Plan plan) : plan_(std::move(plan)) {
  SCC_REQUIRE(plan_.transient_rate >= 0.0 && plan_.transient_rate <= 1.0 &&
                  plan_.drop_rate >= 0.0 && plan_.drop_rate <= 1.0 &&
                  plan_.corrupt_rate >= 0.0 && plan_.corrupt_rate <= 1.0 &&
                  plan_.delay_rate >= 0.0 && plan_.delay_rate <= 1.0,
              "fault rates must lie in [0,1]");
  SCC_REQUIRE(plan_.mem_corrupt_rate >= 0.0 && plan_.mem_corrupt_rate <= 1.0,
              "mem_corrupt_rate must lie in [0,1]");
  SCC_REQUIRE(plan_.transient_failures >= 1, "transient_failures must be >= 1");
  for (const Plan::MemCorrupt& m : plan_.mem_corruptions) {
    SCC_REQUIRE(m.bit >= 0 && m.bit <= 63,
                "mem-corrupt bit " << m.bit << " out of range [0,63]");
  }
  for (const Plan::Transfer& t : plan_.transfers) {
    SCC_REQUIRE(t.mode != TransferMode::kNone, "planned transfer fault with mode kNone");
    SCC_REQUIRE(t.mode != TransferMode::kTransient || t.transient_failures >= 1,
                "transient transfer fault needs transient_failures >= 1");
  }
}

Injector::OpAction Injector::on_op(int rank, Op op, std::uint64_t op_index) const {
  OpAction action;
  for (const Plan::Kill& k : plan_.kills) {
    if (k.rank == rank && k.op_index == op_index) action.kill = true;
  }
  for (const Plan::Delay& d : plan_.delays) {
    if (d.rank == rank && d.op_index == op_index) action.delay_seconds += d.seconds;
  }
  if (op == Op::kFlagSet) {
    for (const Plan::FlagDrop& f : plan_.flag_drops) {
      if (f.rank == rank && f.op_index == op_index) action.drop_flag = true;
    }
  }
  if (plan_.delay_rate > 0.0 &&
      draw(static_cast<std::uint64_t>(rank), op_index, /*salt=*/1, plan_.delay_rate)) {
    action.delay_seconds += plan_.delay_seconds;
  }
  return action;
}

Injector::TransferAction Injector::on_transfer(int src, int dest,
                                               std::uint64_t message_index) const {
  for (const Plan::Transfer& t : plan_.transfers) {
    if (t.src == src && t.dest == dest && t.message_index == message_index) {
      return {t.mode, t.mode == TransferMode::kTransient ? t.transient_failures : 0};
    }
  }
  const auto channel =
      static_cast<std::uint64_t>(src) * 64 + static_cast<std::uint64_t>(dest);
  if (plan_.drop_rate > 0.0 && draw(channel, message_index, /*salt=*/2, plan_.drop_rate)) {
    return {TransferMode::kDrop, 0};
  }
  if (plan_.corrupt_rate > 0.0 &&
      draw(channel, message_index, /*salt=*/3, plan_.corrupt_rate)) {
    return {TransferMode::kCorrupt, 0};
  }
  if (plan_.transient_rate > 0.0 &&
      draw(channel, message_index, /*salt=*/4, plan_.transient_rate)) {
    return {TransferMode::kTransient, plan_.transient_failures};
  }
  return {TransferMode::kNone, 0};
}

std::vector<Plan::MemCorrupt> Injector::on_memory(int rank) const {
  std::vector<Plan::MemCorrupt> hits;
  for (const Plan::MemCorrupt& m : plan_.mem_corruptions) {
    if (m.rank == rank) hits.push_back(m);
  }
  if (plan_.mem_corrupt_rate > 0.0 &&
      draw(static_cast<std::uint64_t>(rank), 0, /*salt=*/5, plan_.mem_corrupt_rate)) {
    // Region/element/bit come from an independent per-rank stream so the
    // Bernoulli outcome and the flip site never correlate.
    std::uint64_t state = plan_.seed;
    state ^= (static_cast<std::uint64_t>(rank) + 1) * 0x9e3779b97f4a7c15ULL;
    state ^= 6 * 0x94d049bb133111ebULL;
    Rng rng(splitmix64(state));
    Plan::MemCorrupt m;
    m.rank = rank;
    m.region = static_cast<MemRegion>(rng.next() % 5);
    m.element = rng.next();
    // Stochastic flips stay in the upper mantissa / exponent range where
    // they matter numerically (docs/INTEGRITY.md on detectability).
    m.bit = 32 + static_cast<int>(rng.next() % 31);
    hits.push_back(m);
  }
  return hits;
}

bool Injector::exhaust_shmalloc(std::uint64_t round) const {
  return std::find(plan_.arena_exhaust_rounds.begin(), plan_.arena_exhaust_rounds.end(),
                   round) != plan_.arena_exhaust_rounds.end();
}

bool Injector::draw(std::uint64_t a, std::uint64_t b, std::uint64_t salt, double rate) const {
  Rng rng(site_draw(plan_.seed, a, b, salt));
  return rng.bernoulli(rate);
}

}  // namespace scc::fault
