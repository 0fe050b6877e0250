// Lightweight precondition / invariant checking used across all libraries.
//
// The libraries are written library-style: user-facing entry points validate
// their inputs with SCC_REQUIRE (always on, throws std::invalid_argument),
// while internal consistency uses SCC_ASSERT (always on as well -- the cost
// is negligible next to the trace-driven simulation work, and a simulator
// that silently produces wrong numbers is worse than one that aborts).
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace scc {

/// Error thrown when a simulated component is driven outside its contract
/// (e.g. an out-of-range core id or a frequency the SCC cannot be set to).
class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(const std::string& what) : std::runtime_error(what) {}
};

/// Watchdog expiry on a blocking RCCE operation: converts what would be an
/// infinite hang (lost flag, mismatched rendezvous, dead peer never noticed)
/// into a diagnosable failure naming the blocked op, rank, peer and flag.
class TimeoutError : public SimulationError {
 public:
  /// `peer` / `flag_id` are -1 when the op has no such participant.
  TimeoutError(const std::string& op, int rank, int peer, int flag_id, double seconds);

  const std::string& op() const { return op_; }
  int rank() const { return rank_; }
  int peer() const { return peer_; }
  int flag_id() const { return flag_id_; }
  double seconds() const { return seconds_; }

 private:
  std::string op_;
  int rank_;
  int peer_;
  int flag_id_;
  double seconds_;
};

/// A blocking RCCE operation aborted because the peer UE died. The emulation
/// raises this immediately once a rank is marked dead (on silicon the same
/// condition would surface as a TimeoutError); both belong to the watchdog
/// layer and callers usually handle them together.
class PeerDeadError : public SimulationError {
 public:
  PeerDeadError(const std::string& op, int rank, int peer);

  const std::string& op() const { return op_; }
  int rank() const { return rank_; }
  int peer() const { return peer_; }

 private:
  std::string op_;
  int rank_;
  int peer_;
};

/// Mismatched send/recv sizes detected on a (source, dest) rendezvous --
/// the RCCE bug class that on silicon silently corrupts or deadlocks.
class MessageSizeMismatchError : public SimulationError {
 public:
  MessageSizeMismatchError(int source, int dest, std::size_t send_bytes,
                           std::size_t recv_bytes);

  int source() const { return source_; }
  int dest() const { return dest_; }
  std::size_t send_bytes() const { return send_bytes_; }
  std::size_t recv_bytes() const { return recv_bytes_; }

 private:
  int source_;
  int dest_;
  std::size_t send_bytes_;
  std::size_t recv_bytes_;
};

namespace detail {

[[noreturn]] void throw_invalid_argument(const std::string& message);
[[noreturn]] void throw_logic_error(const char* expr, const char* file, int line,
                                    const std::string& message);

}  // namespace detail
}  // namespace scc

/// Validate a user-supplied argument; throws std::invalid_argument carrying
/// `message` alone: it reaches users (the CLI prints it), so it names the
/// bad input, never the check or the source file.
#define SCC_REQUIRE(expr, message)                                                  \
  do {                                                                              \
    if (!(expr)) {                                                                  \
      std::ostringstream scc_require_oss_;                                          \
      scc_require_oss_ << message; /* NOLINT */                                     \
      ::scc::detail::throw_invalid_argument(scc_require_oss_.str());                \
    }                                                                               \
  } while (false)

/// Check an internal invariant; throws std::logic_error on failure. A failure
/// is a bug, so the message keeps the failed check and its source location.
#define SCC_ASSERT(expr, message)                                                   \
  do {                                                                              \
    if (!(expr)) {                                                                  \
      std::ostringstream scc_assert_oss_;                                           \
      scc_assert_oss_ << message; /* NOLINT */                                      \
      ::scc::detail::throw_logic_error(#expr, __FILE__, __LINE__,                   \
                                       scc_assert_oss_.str());                      \
    }                                                                               \
  } while (false)
