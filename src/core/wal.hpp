// Write-ahead log for MutableIndex ingest (DESIGN.md §13).
//
// The logarithmic method's write buffer is the only state a crash can
// lose: sealed runs become checksummed v4 tree files, but buffered
// insert/erase batches lived purely in RAM. The WAL closes that hole:
// every mutation batch is appended as one CRC-framed record *before*
// it is applied, so MutableIndex recovery = load the manifest's trees
// + replay the log's valid prefix.
//
// File layout (all little-endian):
//
//   header (32 bytes): magic "PANDAWAL", version, dims, CRC32C
//   frame*:            [u32 payload_len][u32 payload_crc][payload]
//
// Payload: type byte (Insert / Erase / Tombstones), u64 id count, the
// ids, and for Insert the points' coordinates (point-major, count *
// dims floats). A frame is valid iff its length is sane, the payload
// is fully present, and its CRC matches — so replay of a torn file
// recovers the valid prefix exactly and stops at the first short or
// corrupt frame with a diagnostic (a torn tail is expected after a
// crash, not an error: the frame being torn was never acknowledged).
//
// Durability policy lives in the caller (MutableIndex group-commit
// via MutableConfig::wal_flush_every / wal_flush_interval_us): the
// Wal itself just appends frames and exposes sync(). Note the two
// crash regimes: a killed *process* keeps every write()n byte (the
// page cache survives), so acknowledged batches survive kill -9 even
// between fsyncs; only power loss can lose the fsync window.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/point_set.hpp"

namespace panda::core {

class Wal {
 public:
  enum class FrameType : std::uint8_t {
    Insert = 1,      // ids + coords of one accepted insert() batch
    Erase = 2,       // ids actually erased by one erase() batch
    Tombstones = 3,  // dead tree ids snapshot, written at rotation
  };

  /// One decoded frame. coords is point-major (ids.size() * dims
  /// floats), empty for Erase/Tombstones.
  struct Frame {
    FrameType type = FrameType::Insert;
    std::vector<std::uint64_t> ids;
    std::vector<float> coords;
  };

  /// What replay() recovered. `torn` is true when the file ends in an
  /// incomplete or corrupt frame; `valid_bytes` is the exact length
  /// of the valid prefix (frames[] decodes it fully), and
  /// `diagnostic` says why replay stopped.
  struct ReplayResult {
    std::vector<Frame> frames;
    std::uint64_t valid_bytes = 0;
    bool torn = false;
    std::string diagnostic;
  };

  /// Creates (truncates) `path` with a fresh header and fsyncs it.
  static Wal create(const std::string& path, std::uint32_t dims);

  /// Decodes `path`: header validated strictly (a bad header is an
  /// error — the header is written and fsynced at create, so a torn
  /// header means the file is not ours), frames leniently (the tail
  /// may be torn).
  static ReplayResult replay(const std::string& path, std::uint32_t dims);

  /// Reopens `path` for appending after replay: the torn tail (bytes
  /// past `valid_bytes`) is truncated away so new frames extend the
  /// valid prefix.
  static Wal open_for_append(const std::string& path, std::uint32_t dims,
                             std::uint64_t valid_bytes);

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Appends one frame (write(), no fsync). Throws panda::Error on
  /// I/O failure; on throw the log may hold a torn frame, which the
  /// next replay discards.
  void append_insert(std::span<const std::uint64_t> ids,
                     std::span<const float> coords);
  /// The same frame for a point set of the log's dims, its coordinates
  /// copied straight into the frame with no staging buffer.
  void append_insert(const data::PointSet& points);
  void append_erase(std::span<const std::uint64_t> ids);
  void append_tombstones(std::span<const std::uint64_t> ids);

  /// fsyncs the log; resets frames_since_sync().
  void sync();

  /// Frames appended since the last sync() (group-commit bookkeeping).
  std::uint64_t frames_since_sync() const { return frames_since_sync_; }

  const std::string& path() const { return path_; }

 private:
  Wal(std::string path, int fd, std::uint32_t dims)
      : path_(std::move(path)), fd_(fd), dims_(dims) {}

  /// Sizes buffer_ for one frame, writes its type, count and ids, and
  /// returns where its coord_count coordinates go (point-major).
  unsigned char* begin_frame(FrameType type,
                             std::span<const std::uint64_t> ids,
                             std::size_t coord_count);
  /// Seals the frame in buffer_ with its length and CRC and appends it.
  void write_frame();

  std::string path_;
  int fd_ = -1;
  std::uint32_t dims_ = 0;
  std::uint64_t frames_since_sync_ = 0;
  std::vector<unsigned char> buffer_;  // frame assembly scratch
};

}  // namespace panda::core
