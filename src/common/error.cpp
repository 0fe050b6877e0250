#include "common/error.hpp"

namespace scc {

namespace {

std::string timeout_message(const std::string& op, int rank, int peer, int flag_id,
                            double seconds) {
  std::ostringstream oss;
  oss << op << " timed out after " << seconds << "s: UE " << rank;
  if (peer >= 0) oss << " blocked on UE " << peer;
  if (flag_id >= 0) oss << " waiting for flag " << flag_id;
  oss << " (watchdog)";
  return oss.str();
}

std::string peer_dead_message(const std::string& op, int rank, int peer) {
  std::ostringstream oss;
  oss << op << " aborted: UE " << rank << " blocked on UE " << peer
      << ", which died";
  return oss.str();
}

std::string size_mismatch_message(int source, int dest, std::size_t send_bytes,
                                  std::size_t recv_bytes) {
  std::ostringstream oss;
  oss << "message size mismatch on rendezvous UE " << source << " -> UE " << dest
      << ": sender offered " << send_bytes << " bytes, receiver expected " << recv_bytes
      << " bytes";
  return oss.str();
}

}  // namespace

TimeoutError::TimeoutError(const std::string& op, int rank, int peer, int flag_id,
                           double seconds)
    : SimulationError(timeout_message(op, rank, peer, flag_id, seconds)),
      op_(op),
      rank_(rank),
      peer_(peer),
      flag_id_(flag_id),
      seconds_(seconds) {}

PeerDeadError::PeerDeadError(const std::string& op, int rank, int peer)
    : SimulationError(peer_dead_message(op, rank, peer)), op_(op), rank_(rank), peer_(peer) {}

MessageSizeMismatchError::MessageSizeMismatchError(int source, int dest,
                                                   std::size_t send_bytes,
                                                   std::size_t recv_bytes)
    : SimulationError(size_mismatch_message(source, dest, send_bytes, recv_bytes)),
      source_(source),
      dest_(dest),
      send_bytes_(send_bytes),
      recv_bytes_(recv_bytes) {}

}  // namespace scc

namespace scc::detail {

void throw_invalid_argument(const std::string& message) {
  throw std::invalid_argument(message);
}

void throw_logic_error(const char* expr, const char* file, int line,
                       const std::string& message) {
  std::ostringstream oss;
  oss << message << " [check `" << expr << "` failed at " << file << ':' << line << ']';
  throw std::logic_error(oss.str());
}

}  // namespace scc::detail
