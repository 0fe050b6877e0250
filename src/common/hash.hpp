// Streaming FNV-1a (64-bit) -- the content-hashing primitive behind the
// engine's run memoization: sparse::CsrMatrix::fingerprint() and
// value_digest() hash the matrix structure and values with it, and
// sim::run_key() hashes the effective RunSpec + EngineConfig. Deliberately
// simple; it is a cache key, not a cryptographic digest. Keys do leave the
// process: RunCache and TuningCache snapshots store them on disk, so any
// change to what a key hashes (or how) turns every persisted entry into a
// miss. Multi-byte values are hashed in host byte order, so those snapshots
// are only portable between hosts of the same endianness.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace scc::common {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= kPrime;
    }
  }

  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u64(value ? 1 : 0); }
  /// Hashes the bit pattern, so -0.0 != +0.0 and NaNs are distinguished by
  /// payload -- exactly the "same double in, same key out" a memo key needs.
  void f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    u64(bits);
  }
  void text(std::string_view value) {
    u64(value.size());
    bytes(value.data(), value.size());
  }
  /// Bulk-hash a span of trivially copyable values (array contents, not the
  /// span object). Length is folded in so [1,2]+[3] != [1]+[2,3].
  template <typename T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(values.size());
    bytes(values.data(), values.size_bytes());
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace scc::common
