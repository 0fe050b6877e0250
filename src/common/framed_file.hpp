// One on-disk framing for every persisted store: the testbed matrix cache
// and the RunCache and TuningCache snapshots. A framed file is a 32-byte
// little-endian header -- u64 magic at byte 0, u32 format version at byte
// 8, a reserved zero u32, the u64 payload length and the u64 FrameChecksum
// of the payload -- then the payload. A store describes its payload once,
// as a function template over the direction: one field list encodes
// through a FrameWriter and decodes, range-checked, through a FrameReader.
// Bounds, checksum and atomic publication live here.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace scc::common {

/// Identity of one store's files: a load rejects any other magic or version.
struct FrameFormat {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
};

inline constexpr std::size_t kFrameHeaderBytes = 32;

/// Four-lane Fletcher-style sum over little-endian 64-bit words
/// (a += w; b += a per lane), folded with the byte length. It streams at
/// near memory bandwidth, so a reader checksums each chunk while the chunk
/// is still in cache. It detects corruption, not tampering.
class FrameChecksum {
 public:
  void update(const void* data, std::size_t size);
  std::uint64_t value() const;

 private:
  static constexpr std::size_t kBlockBytes = 4 * sizeof(std::uint64_t);
  std::uint64_t a_[4] = {};
  std::uint64_t b_[4] = {};
  unsigned char pending_[kBlockBytes] = {};  ///< bytes of a partial block
  std::size_t pending_size_ = 0;
  std::uint64_t length_ = 0;
};

/// Payload encoder. Every field is one little-endian 8-byte word: integers
/// and enums as two's-complement integers, doubles by bit pattern, bools as
/// 0 or 1; a std::array is its elements in order.
class FrameWriter {
 public:
  template <typename... Ts>
  void operator()(const Ts&... values) {
    (field(values), ...);
  }
  /// A vector's element count; the caller encodes the elements.
  template <typename T>
  void length(const std::vector<T>& items, std::size_t /*max*/) {
    field(items.size());
  }
  /// A field the decoder requires to lie in [lo, hi].
  template <typename T>
  void bounded(const T& value, T /*lo*/, T /*hi*/) {
    field(value);
  }
  void bytes(const void* data, std::size_t size);

  std::span<const std::byte> data() const { return buffer_; }

 private:
  template <typename T>
  void field(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      field(std::bit_cast<std::uint64_t>(value));
    } else {
      const auto word = static_cast<std::uint64_t>(value);
      bytes(&word, sizeof word);
    }
  }
  template <typename T, std::size_t N>
  void field(const std::array<T, N>& values) {
    for (const T& value : values) field(value);
  }

  std::vector<std::byte> buffer_;
};

/// Bounds-checked payload decoder, the mirror of FrameWriter. A read past
/// the payload, an integer outside its type, a bool other than 0 or 1, a
/// count the remaining bytes cannot back or a failed require() abandons the
/// load, and read_framed_file returns false.
class FrameReader {
 public:
  template <typename... Ts>
  void operator()(Ts&... values) {
    (field(values), ...);
  }
  /// Resize `items` to a decoded count of at most `max`.
  template <typename T>
  void length(std::vector<T>& items, std::size_t max) {
    const std::uint64_t n = count(sizeof(std::uint64_t));
    require(n <= max);
    items.resize(static_cast<std::size_t>(n));
  }
  template <typename T>
  void bounded(T& value, T lo, T hi) {
    if constexpr (std::is_enum_v<T>) {
      using Raw = std::underlying_type_t<T>;
      Raw raw{};
      field(raw);
      require(static_cast<Raw>(lo) <= raw && raw <= static_cast<Raw>(hi));
      value = static_cast<T>(raw);
    } else {
      field(value);
      require(lo <= value && value <= hi);
    }
  }
  /// A u64 item count, checked against the bytes that remain when every
  /// item takes at least `min_item_bytes`.
  std::uint64_t count(std::size_t min_item_bytes);
  /// Replace `out` with `count` raw elements, read straight into its
  /// storage; the count is checked before `out` is sized.
  template <typename T>
  void array(std::vector<T>& out, std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(count, sizeof(T));
    out.resize(static_cast<std::size_t>(count));
    read(out.data(), out.size() * sizeof(T));
  }
  /// Abandon the load unless `condition` holds.
  void require(bool condition) const;

 private:
  friend bool read_framed_file(const std::string& path, FrameFormat format,
                               const std::function<void(FrameReader&)>& decode);
  FrameReader(std::FILE* file, std::uint64_t payload_bytes)
      : file_(file), unread_(payload_bytes) {}

  template <typename T>
  void field(T& value) {
    static_assert(!std::is_enum_v<T>, "decode enums with bounded()");
    std::uint64_t word = 0;
    read(&word, sizeof word);
    if constexpr (std::is_same_v<T, bool>) {
      require(word <= 1);
      value = word == 1;
    } else if constexpr (std::is_floating_point_v<T>) {
      value = std::bit_cast<double>(word);
    } else if constexpr (std::is_signed_v<T>) {
      const auto signed_word = static_cast<std::int64_t>(word);
      require(std::in_range<T>(signed_word));
      value = static_cast<T>(signed_word);
    } else {
      require(std::in_range<T>(word));
      value = static_cast<T>(word);
    }
  }
  template <typename T, std::size_t N>
  void field(std::array<T, N>& values) {
    for (T& value : values) field(value);
  }
  void need(std::uint64_t count, std::size_t item_bytes) const;
  /// Read `size` payload bytes into `out`, checksumming chunk by chunk.
  void read(void* out, std::size_t size);

  std::FILE* file_;
  std::uint64_t unread_;  ///< payload bytes not read yet
  FrameChecksum checksum_;
};

/// Load `path`: check the header against `format` and the file size, run
/// `decode` over the payload, then require that it consumed every byte and
/// that the checksum matches. False -- on a missing file or on any
/// mismatch -- means the caller must discard whatever `decode` produced.
bool read_framed_file(const std::string& path, FrameFormat format,
                      const std::function<void(FrameReader&)>& decode);

/// Publish `payload` (the concatenation of its parts) under `format` at
/// `path`, atomically. False when the file cannot be written.
bool write_framed_file(const std::string& path, FrameFormat format,
                       std::initializer_list<std::span<const std::byte>> payload);

}  // namespace scc::common
