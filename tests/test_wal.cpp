// WAL framing: round-trips of every frame type, the torn-tail matrix
// (every way a crash can shear the log's end must replay to the exact
// valid prefix with a diagnostic), header validation, and the
// append-failure self-truncation that keeps later acknowledged frames
// replayable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "core/wal.hpp"
#include "data/point_set.hpp"

namespace panda::core {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("panda_wal_" +
            std::to_string(::getpid()) + "_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }

  void TearDown() override {
    common::failpoint::disarm_all();
    fs::remove_all(dir_);
  }

  /// Writes a log with one frame of each type and returns the batches
  /// it should replay to.
  void write_three_frames() {
    Wal wal = Wal::create(path_, kDims);
    wal.append_insert(insert_ids_, insert_coords_);
    wal.append_erase(erase_ids_);
    wal.append_tombstones(tombstone_ids_);
    wal.sync();
  }

  void truncate_to(std::uint64_t bytes) {
    fs::resize_file(path_, bytes);
  }

  void flip_byte(std::uint64_t offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::uint64_t file_size() const { return fs::file_size(path_); }

  static constexpr std::uint32_t kDims = 3;
  static constexpr std::uint64_t kHeaderBytes = 32;

  fs::path dir_;
  std::string path_;
  std::vector<std::uint64_t> insert_ids_{10, 11, 12};
  std::vector<float> insert_coords_{0.f, 1.f, 2.f, 3.f, 4.f,
                                    5.f, 6.f, 7.f, 8.f};
  std::vector<std::uint64_t> erase_ids_{11};
  std::vector<std::uint64_t> tombstone_ids_{7, 8};
};

TEST_F(WalTest, RoundTripsAllThreeFrameTypes) {
  write_three_frames();
  const auto result = Wal::replay(path_, kDims);
  EXPECT_FALSE(result.torn);
  EXPECT_TRUE(result.diagnostic.empty());
  EXPECT_EQ(result.valid_bytes, file_size());
  ASSERT_EQ(result.frames.size(), 3u);

  EXPECT_EQ(result.frames[0].type, Wal::FrameType::Insert);
  EXPECT_EQ(result.frames[0].ids, insert_ids_);
  EXPECT_EQ(result.frames[0].coords, insert_coords_);

  EXPECT_EQ(result.frames[1].type, Wal::FrameType::Erase);
  EXPECT_EQ(result.frames[1].ids, erase_ids_);
  EXPECT_TRUE(result.frames[1].coords.empty());

  EXPECT_EQ(result.frames[2].type, Wal::FrameType::Tombstones);
  EXPECT_EQ(result.frames[2].ids, tombstone_ids_);
}

TEST_F(WalTest, EmptyLogReplaysToZeroFrames) {
  { Wal wal = Wal::create(path_, kDims); }
  const auto result = Wal::replay(path_, kDims);
  EXPECT_FALSE(result.torn);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_EQ(result.valid_bytes, kHeaderBytes);
}

// --- The torn-tail matrix: each mutilation must recover the exact
// --- valid prefix and say why it stopped.

TEST_F(WalTest, TornMidFrameHeaderRecoversPriorFrames) {
  write_three_frames();
  const auto clean = Wal::replay(path_, kDims);
  const std::uint64_t first_two =
      kHeaderBytes + 8 + (9 + 3 * 8 + 9 * 4) + 8 + (9 + 1 * 8);
  ASSERT_EQ(clean.valid_bytes, first_two + 8 + (9 + 2 * 8));
  // Shear inside the third frame's [len][crc] header.
  truncate_to(first_two + 3);
  const auto result = Wal::replay(path_, kDims);
  EXPECT_TRUE(result.torn);
  EXPECT_EQ(result.frames.size(), 2u);
  EXPECT_EQ(result.valid_bytes, first_two);
  EXPECT_NE(result.diagnostic.find("short frame header"), std::string::npos)
      << result.diagnostic;
  EXPECT_NE(result.diagnostic.find("2 valid frames"), std::string::npos)
      << result.diagnostic;
}

TEST_F(WalTest, TornMidPayloadRecoversPriorFrames) {
  write_three_frames();
  // Shear inside the first frame's payload: nothing survives.
  truncate_to(kHeaderBytes + 8 + 5);
  const auto result = Wal::replay(path_, kDims);
  EXPECT_TRUE(result.torn);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_EQ(result.valid_bytes, kHeaderBytes);
  EXPECT_NE(result.diagnostic.find("short payload"), std::string::npos)
      << result.diagnostic;
}

TEST_F(WalTest, CorruptPayloadByteStopsReplayAtThatFrame) {
  write_three_frames();
  // Flip one byte inside the second frame's payload.
  const std::uint64_t first = kHeaderBytes + 8 + (9 + 3 * 8 + 9 * 4);
  flip_byte(first + 8 + 2);
  const auto result = Wal::replay(path_, kDims);
  EXPECT_TRUE(result.torn);
  EXPECT_EQ(result.frames.size(), 1u);
  EXPECT_EQ(result.valid_bytes, first);
  EXPECT_NE(result.diagnostic.find("payload CRC mismatch"),
            std::string::npos)
      << result.diagnostic;
}

TEST_F(WalTest, ImplausibleLengthFieldIsATornTailNotAnAllocation) {
  write_three_frames();
  // Stamp a huge length over the first frame's len field; replay must
  // refuse it without trying to allocate 4 GiB.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t big = 0xF0000000u;
    f.seekp(static_cast<std::streamoff>(kHeaderBytes));
    f.write(reinterpret_cast<const char*>(&big), sizeof(big));
  }
  const auto result = Wal::replay(path_, kDims);
  EXPECT_TRUE(result.torn);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_NE(result.diagnostic.find("implausible frame length"),
            std::string::npos)
      << result.diagnostic;
}

TEST_F(WalTest, UnknownFrameTypeIsATornTail) {
  write_three_frames();
  // The type byte is the first payload byte of frame one.
  flip_byte(kHeaderBytes + 8);
  const auto result = Wal::replay(path_, kDims);
  EXPECT_TRUE(result.torn);
  EXPECT_TRUE(result.frames.empty());
  // A flipped type byte also breaks the payload CRC, which is checked
  // first — either diagnostic is a correct story for this corruption.
  EXPECT_FALSE(result.diagnostic.empty());
}

TEST_F(WalTest, LengthCountMismatchIsATornTail) {
  {
    Wal wal = Wal::create(path_, kDims);
    wal.append_erase(erase_ids_);
  }
  // Rewrite the count field to 2 and re-stamp a matching CRC: length
  // says one id, count says two.
  std::vector<char> payload(9 + 8);
  {
    std::ifstream in(path_, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(kHeaderBytes + 8));
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  const std::uint64_t two = 2;
  std::memcpy(payload.data() + 1, &two, sizeof(two));
  const std::uint32_t crc =
      common::crc32c(payload.data(), payload.size());
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kHeaderBytes + 4));
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  const auto result = Wal::replay(path_, kDims);
  EXPECT_TRUE(result.torn);
  EXPECT_NE(
      result.diagnostic.find("frame length inconsistent with its count"),
      std::string::npos)
      << result.diagnostic;
}

// --- Header validation: a bad header is an error, not a torn tail
// --- (the header is fsynced at create).

TEST_F(WalTest, HeaderMutilationsAreHardErrors) {
  write_three_frames();
  const auto error_of = [&]() -> std::string {
    try {
      Wal::replay(path_, kDims);
      return {};
    } catch (const Error& e) {
      return e.what();
    }
  };
  flip_byte(0);  // magic
  EXPECT_NE(error_of().find("not a PANDA WAL"), std::string::npos);
  flip_byte(0);

  flip_byte(8);  // version
  EXPECT_NE(error_of().find("unsupported WAL version"), std::string::npos);
  flip_byte(8);

  flip_byte(16);  // reserved — only the header CRC notices
  EXPECT_NE(error_of().find("WAL header checksum mismatch"),
            std::string::npos);
  flip_byte(16);

  try {
    Wal::replay(path_, 2);
    FAIL() << "dims mismatch accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("WAL dims mismatch"),
              std::string::npos);
  }

  truncate_to(12);
  EXPECT_NE(error_of().find("WAL header truncated"), std::string::npos);
}

// --- Crash-shaped recovery: open_for_append truncates the torn tail
// --- and new frames extend the valid prefix.

TEST_F(WalTest, OpenForAppendTruncatesTornTailAndExtends) {
  write_three_frames();
  truncate_to(file_size() - 5);  // tear the last frame
  auto first = Wal::replay(path_, kDims);
  ASSERT_TRUE(first.torn);
  ASSERT_EQ(first.frames.size(), 2u);
  {
    Wal wal = Wal::open_for_append(path_, kDims, first.valid_bytes);
    wal.append_erase(tombstone_ids_);
    wal.sync();
  }
  const auto result = Wal::replay(path_, kDims);
  EXPECT_FALSE(result.torn);
  ASSERT_EQ(result.frames.size(), 3u);
  EXPECT_EQ(result.frames[2].type, Wal::FrameType::Erase);
  EXPECT_EQ(result.frames[2].ids, tombstone_ids_);
}

TEST_F(WalTest, FailedAppendSelfTruncatesSoLaterFramesSurvive) {
  Wal wal = Wal::create(path_, kDims);
  wal.append_insert(insert_ids_, insert_coords_);
  // Second append tears halfway (injected) — the Wal must cut the torn
  // frame back out so the third append lands on a valid prefix.
  common::failpoint::arm("wal.append", common::failpoint::Mode::Short, 0);
  EXPECT_THROW(wal.append_erase(erase_ids_), Error);
  common::failpoint::disarm_all();
  wal.append_erase(tombstone_ids_);
  wal.sync();

  const auto result = Wal::replay(path_, kDims);
  EXPECT_FALSE(result.torn) << result.diagnostic;
  ASSERT_EQ(result.frames.size(), 2u);
  EXPECT_EQ(result.frames[0].type, Wal::FrameType::Insert);
  EXPECT_EQ(result.frames[1].ids, tombstone_ids_);
}

TEST_F(WalTest, InsertCoordCountIsValidated) {
  Wal wal = Wal::create(path_, kDims);
  const std::vector<float> short_coords{1.f, 2.f};  // needs 3 * 3
  try {
    wal.append_insert(insert_ids_, short_coords);
    FAIL() << "mismatched coords accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("count * dims coords"),
              std::string::npos);
  }
}

/// The PointSet append writes the frame the span append writes: the
/// set's columns land point-major, byte for byte.
TEST_F(WalTest, PointSetInsertWritesTheSpanInsertFrame) {
  data::PointSet points(kDims, insert_ids_.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    points.set_id(p, insert_ids_[p]);
    for (std::size_t d = 0; d < kDims; ++d) {
      points.set(p, d, insert_coords_[p * kDims + d]);
    }
  }
  const std::string span_path = (dir_ / "span.log").string();
  {
    Wal wal = Wal::create(span_path, kDims);
    wal.append_insert(insert_ids_, insert_coords_);
  }
  {
    Wal wal = Wal::create(path_, kDims);
    wal.append_insert(points);
    EXPECT_THROW(wal.append_insert(data::PointSet(kDims + 1, 1)), Error);
  }
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read(path_), read(span_path));
}

}  // namespace
}  // namespace panda::core
