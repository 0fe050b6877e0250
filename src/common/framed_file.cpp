#include "common/framed_file.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "common/hash.hpp"

namespace scc::common {

static_assert(std::endian::native == std::endian::little,
              "framed files are little-endian and are read and written natively");

namespace {

/// Read granularity: each chunk is checksummed while it is still in cache.
constexpr std::size_t kChunkBytes = std::size_t{256} << 10;

/// Abandons a load; read_framed_file turns it into `false`.
struct FrameError {};

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

using Lanes = std::uint64_t[4];

void fold_blocks(Lanes& a, Lanes& b, const unsigned char* data, std::size_t blocks) {
  std::uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  std::uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
  for (std::size_t i = 0; i < blocks; ++i, data += 32) {
    std::uint64_t w[4] = {};
    std::memcpy(w, data, sizeof w);
    a0 += w[0], a1 += w[1], a2 += w[2], a3 += w[3];
    b0 += a0, b1 += a1, b2 += a2, b3 += a3;
  }
  a[0] = a0, a[1] = a1, a[2] = a2, a[3] = a3;
  b[0] = b0, b[1] = b1, b[2] = b2, b[3] = b3;
}

bool write_all(std::FILE* file, std::span<const std::byte> bytes) {
  return bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
}

}  // namespace

void FrameChecksum::update(const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const unsigned char*>(data);
  length_ += size;
  if (pending_size_ > 0) {
    const std::size_t take = std::min(size, kBlockBytes - pending_size_);
    std::memcpy(pending_ + pending_size_, bytes, take);
    pending_size_ += take;
    bytes += take;
    size -= take;
    if (pending_size_ < kBlockBytes) return;
    fold_blocks(a_, b_, pending_, 1);
    pending_size_ = 0;
  }
  const std::size_t blocks = size / kBlockBytes;
  fold_blocks(a_, b_, bytes, blocks);
  pending_size_ = size - blocks * kBlockBytes;
  std::memcpy(pending_, bytes + blocks * kBlockBytes, pending_size_);
}

std::uint64_t FrameChecksum::value() const {
  Lanes a = {a_[0], a_[1], a_[2], a_[3]};
  Lanes b = {b_[0], b_[1], b_[2], b_[3]};
  if (pending_size_ > 0) {
    unsigned char tail[kBlockBytes] = {};  // a partial block is zero-padded
    std::memcpy(tail, pending_, pending_size_);
    fold_blocks(a, b, tail, 1);
  }
  Fnv1a hash;
  hash.array(std::span<const std::uint64_t>(a));
  hash.array(std::span<const std::uint64_t>(b));
  hash.u64(length_);
  return hash.value();
}

void FrameWriter::bytes(const void* data, std::size_t size) {
  const auto* first = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), first, first + size);
}

std::uint64_t FrameReader::count(std::size_t min_item_bytes) {
  std::uint64_t items = 0;
  field(items);
  need(items, min_item_bytes);
  return items;
}

void FrameReader::require(bool condition) const {
  if (!condition) throw FrameError{};
}

void FrameReader::need(std::uint64_t count, std::size_t item_bytes) const {
  require(count <= unread_ / std::max<std::size_t>(item_bytes, 1));
}

void FrameReader::read(void* out, std::size_t size) {
  need(size, 1);
  auto* dst = static_cast<unsigned char*>(out);
  while (size > 0) {
    const std::size_t take = std::min(size, kChunkBytes);
    require(std::fread(dst, 1, take, file_) == take);
    checksum_.update(dst, take);
    unread_ -= take;
    dst += take;
    size -= take;
  }
}

bool read_framed_file(const std::string& path, FrameFormat format,
                      const std::function<void(FrameReader&)>& decode) {
  const File file(std::fopen(path.c_str(), "rb"));
  if (!file || std::fseek(file.get(), 0, SEEK_END) != 0) return false;
  // The size of the file this reader holds open, even if a writer renames
  // a new one over `path` meanwhile.
  const long file_bytes = std::ftell(file.get());
  std::rewind(file.get());
  // Magic, version with the reserved zero above it, length, checksum.
  std::uint64_t header[4] = {};
  static_assert(sizeof header == kFrameHeaderBytes);
  if (file_bytes < static_cast<long>(kFrameHeaderBytes) ||
      std::fread(header, 1, sizeof header, file.get()) != sizeof header ||
      header[0] != format.magic || header[1] != format.version ||
      header[2] != static_cast<std::uint64_t>(file_bytes) - kFrameHeaderBytes) {
    return false;
  }
  FrameReader reader(file.get(), header[2]);
  try {
    decode(reader);
    reader.require(reader.unread_ == 0 && reader.checksum_.value() == header[3]);
  } catch (const FrameError&) {
    return false;
  }
  return true;
}

bool write_framed_file(const std::string& path, FrameFormat format,
                       std::initializer_list<std::span<const std::byte>> payload) {
  FrameChecksum checksum;
  std::uint64_t payload_bytes = 0;
  for (const std::span<const std::byte> part : payload) {
    checksum.update(part.data(), part.size());
    payload_bytes += part.size();
  }
  FrameWriter header;
  // The u32 version and the reserved zero u32 share one little-endian word.
  header(format.magic, std::uint64_t{format.version}, payload_bytes, checksum.value());

  // Unique per process and per call, so concurrent writers of one path
  // never share a temporary; the rename publishes whole files only.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  File file(std::fopen(tmp.c_str(), "wb"));
  if (!file) return false;
  bool ok = write_all(file.get(), header.data());
  for (const std::span<const std::byte> part : payload) ok = ok && write_all(file.get(), part);
  ok = std::fclose(file.release()) == 0 && ok;
  if (ok && std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::remove(tmp.c_str());
  return false;
}

}  // namespace scc::common
