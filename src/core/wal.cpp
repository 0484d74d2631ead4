#include "core/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace panda::core {

namespace {

using common::crc32c;

constexpr std::uint64_t kWalMagic = 0x50414e444157414cULL;  // "PANDAWAL"
constexpr std::uint32_t kWalVersion = 1;

/// Believable upper bound on one frame's payload: a corrupt length
/// field must not drive a huge allocation during replay.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

struct WalHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t dims;
  std::uint64_t reserved;
  std::uint32_t header_crc;  // over the 24 bytes above
  std::uint32_t pad;
};
static_assert(sizeof(WalHeader) == 32);
constexpr std::size_t kWalHeaderCrcSpan = 24;

/// Full write with EINTR retry plus the "wal.append" failpoint (short
/// mode tears the write roughly in half — the torn-tail crash tests
/// lean on this).
void write_all(int fd, const std::string& path, const void* data,
               std::size_t len) {
  namespace fp = common::failpoint;
  std::size_t effective = len;
  bool die_after = false;
  if (fp::any_armed()) {
    switch (fp::fire("wal.append")) {
      case fp::Action::None:
        break;
      case fp::Action::Error:
        throw Error("failpoint 'wal.append' fired (injected fault)");
      case fp::Action::Short:
        effective = len / 2;
        break;
      case fp::Action::ShortAbort:
        effective = len / 2;
        die_after = true;
        break;
    }
  }
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t remaining = effective;
  while (remaining > 0) {
    const ::ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      common::throw_io_error("cannot append to WAL", path, "write", errno);
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  if (die_after) fp::exit_now();
  if (effective != len) {
    throw Error("failpoint 'wal.append' fired (torn write: " +
                std::to_string(effective) + " of " + std::to_string(len) +
                " bytes)");
  }
}

}  // namespace

Wal Wal::create(const std::string& path, std::uint32_t dims) {
  PANDA_FAILPOINT("wal.create");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    common::throw_io_error("cannot create WAL", path, "open", errno);
  }
  Wal wal(path, fd, dims);
  WalHeader header{};
  header.magic = kWalMagic;
  header.version = kWalVersion;
  header.dims = dims;
  header.header_crc = crc32c(&header, kWalHeaderCrcSpan);
  write_all(fd, path, &header, sizeof(header));
  wal.sync();
  return wal;
}

Wal::ReplayResult Wal::replay(const std::string& path, std::uint32_t dims) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    common::throw_io_error("cannot open WAL", path, "open", errno);
  }
  WalHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  PANDA_CHECK_MSG(in.good(), "WAL header truncated: " << path);
  PANDA_CHECK_MSG(header.magic == kWalMagic, "not a PANDA WAL: " << path);
  PANDA_CHECK_MSG(header.version == kWalVersion,
                  "unsupported WAL version " << header.version << ": "
                                             << path);
  PANDA_CHECK_MSG(crc32c(&header, kWalHeaderCrcSpan) == header.header_crc,
                  "WAL header checksum mismatch: " << path);
  PANDA_CHECK_MSG(header.dims == dims,
                  "WAL dims mismatch (log has " << header.dims << ", index "
                                                << dims << "): " << path);

  ReplayResult result;
  result.valid_bytes = sizeof(WalHeader);
  std::vector<char> payload;
  for (;;) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (in.gcount() == 0) break;  // clean end of log
    in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    const std::uint64_t frame_off = result.valid_bytes;
    auto torn = [&](const std::string& why) {
      result.torn = true;
      std::ostringstream msg;
      msg << "WAL " << path << ": discarding torn tail at offset "
          << frame_off << " (" << why << "); " << result.frames.size()
          << " valid frames recovered";
      result.diagnostic = msg.str();
      return result;
    };
    if (!in.good()) return torn("short frame header");
    if (len < 9 || len > kMaxPayloadBytes) {
      return torn("implausible frame length " + std::to_string(len));
    }
    payload.resize(len);
    in.read(payload.data(), static_cast<std::streamsize>(len));
    if (!in.good()) return torn("short payload");
    const std::uint32_t computed = crc32c(payload.data(), len);
    if (computed != crc) return torn("payload CRC mismatch");

    Frame frame;
    const auto type = static_cast<std::uint8_t>(payload[0]);
    std::uint64_t count = 0;
    std::memcpy(&count, payload.data() + 1, sizeof(count));
    const std::uint64_t id_bytes = count * sizeof(std::uint64_t);
    std::uint64_t expected = 9 + id_bytes;
    if (type == static_cast<std::uint8_t>(FrameType::Insert)) {
      expected += count * dims * sizeof(float);
    } else if (type != static_cast<std::uint8_t>(FrameType::Erase) &&
               type != static_cast<std::uint8_t>(FrameType::Tombstones)) {
      return torn("unknown frame type " + std::to_string(type));
    }
    if (expected != len) {
      return torn("frame length inconsistent with its count field");
    }
    frame.type = static_cast<FrameType>(type);
    frame.ids.resize(count);
    std::memcpy(frame.ids.data(), payload.data() + 9, id_bytes);
    if (frame.type == FrameType::Insert) {
      frame.coords.resize(count * dims);
      std::memcpy(frame.coords.data(), payload.data() + 9 + id_bytes,
                  frame.coords.size() * sizeof(float));
    }
    result.frames.push_back(std::move(frame));
    result.valid_bytes += sizeof(len) + sizeof(crc) + len;
  }
  return result;
}

Wal Wal::open_for_append(const std::string& path, std::uint32_t dims,
                         std::uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    common::throw_io_error("cannot open WAL", path, "open", errno);
  }
  if (::ftruncate(fd, static_cast<::off_t>(valid_bytes)) != 0) {
    const int saved = errno;
    ::close(fd);
    common::throw_io_error("cannot truncate WAL tail", path, "ftruncate",
                           saved);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const int saved = errno;
    ::close(fd);
    common::throw_io_error("cannot seek WAL", path, "lseek", saved);
  }
  return Wal(path, fd, dims);
}

Wal::Wal(Wal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      dims_(other.dims_),
      frames_since_sync_(other.frames_since_sync_) {
  other.fd_ = -1;
}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    dims_ = other.dims_;
    frames_since_sync_ = other.frames_since_sync_;
    other.fd_ = -1;
  }
  return *this;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

unsigned char* Wal::begin_frame(FrameType type,
                                std::span<const std::uint64_t> ids,
                                std::size_t coord_count) {
  const std::uint64_t count = ids.size();
  const std::size_t payload_len =
      9 + ids.size_bytes() + coord_count * sizeof(float);
  PANDA_CHECK_MSG(payload_len <= kMaxPayloadBytes,
                  "WAL frame too large (" << payload_len << " bytes)");
  buffer_.resize(8 + payload_len);
  unsigned char* p = buffer_.data() + 8;
  p[0] = static_cast<unsigned char>(type);
  std::memcpy(p + 1, &count, sizeof(count));
  std::memcpy(p + 9, ids.data(), ids.size_bytes());
  return p + 9 + ids.size_bytes();
}

void Wal::write_frame() {
  const std::size_t payload_len = buffer_.size() - 8;
  const unsigned char* p = buffer_.data() + 8;
  const auto len32 = static_cast<std::uint32_t>(payload_len);
  const std::uint32_t crc = crc32c(p, payload_len);
  std::memcpy(buffer_.data(), &len32, sizeof(len32));
  std::memcpy(buffer_.data() + 4, &crc, sizeof(crc));
  const ::off_t frame_start = ::lseek(fd_, 0, SEEK_CUR);
  try {
    write_all(fd_, path_, buffer_.data(), buffer_.size());
  } catch (...) {
    // Cut the torn frame back out so the *next* append extends a valid
    // prefix — otherwise replay would stop here and silently drop
    // every frame acknowledged after this failure. Best effort: if the
    // truncate fails too the log stays torn, which replay reports.
    if (frame_start >= 0 && ::ftruncate(fd_, frame_start) == 0) {
      ::lseek(fd_, 0, SEEK_END);
    }
    throw;
  }
  ++frames_since_sync_;
}

void Wal::append_insert(std::span<const std::uint64_t> ids,
                        std::span<const float> coords) {
  PANDA_CHECK_MSG(coords.size() == ids.size() * dims_,
                  "WAL insert frame needs count * dims coords");
  unsigned char* out = begin_frame(FrameType::Insert, ids, coords.size());
  if (!coords.empty()) std::memcpy(out, coords.data(), coords.size_bytes());
  write_frame();
}

void Wal::append_insert(const data::PointSet& points) {
  PANDA_CHECK_MSG(points.dims() == dims_,
                  "WAL insert frame needs points of the log's dims");
  const std::size_t n = points.size();
  unsigned char* out = begin_frame(FrameType::Insert, points.ids(), n * dims_);
  for (std::size_t d = 0; d < dims_; ++d) {
    const std::span<const float> column = points.coordinate(d);
    for (std::size_t p = 0; p < n; ++p) {
      std::memcpy(out + (p * dims_ + d) * sizeof(float), &column[p],
                  sizeof(float));
    }
  }
  write_frame();
}

void Wal::append_erase(std::span<const std::uint64_t> ids) {
  begin_frame(FrameType::Erase, ids, 0);
  write_frame();
}

void Wal::append_tombstones(std::span<const std::uint64_t> ids) {
  begin_frame(FrameType::Tombstones, ids, 0);
  write_frame();
}

void Wal::sync() {
  PANDA_FAILPOINT("wal.pre_fsync");
  if (::fsync(fd_) != 0) {
    common::throw_io_error("cannot sync WAL", path_, "fsync", errno);
  }
  frames_since_sync_ = 0;
}

}  // namespace panda::core
