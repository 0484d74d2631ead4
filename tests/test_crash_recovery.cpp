// Kill-at-failpoint crash recovery for the durable MutableIndex
// (DESIGN.md §13). Each schedule re-execs this binary as a child
// (--gtest_filter=CrashChild.*) that ingests a fixed batch plan
// against a durable directory, acknowledging every completed batch to
// an ack file with unbuffered write(2)s; an armed failpoint _Exit()s
// the child mid-I/O — the userspace equivalent of kill -9. The parent
// then recovers the directory and checks the durability contract:
//
//   * every acknowledged batch is fully present (id- and bit-exact),
//   * the one in-flight batch is all-or-nothing,
//   * nothing else exists (no partial frames, no resurrected ids),
//   * queries over the recovered index match a brute-force oracle.
//
// The invariants are deliberately independent of *where* the kill
// landed (foreground append, group-commit fsync, background seal's
// tree save / manifest commit / WAL rotation), so one verifier covers
// the whole schedule matrix.
//
// Schedules armed at a background site are counted deterministically:
// the child quiesces the index after every acknowledged batch, so
// seals neither coalesce nor outlive the child and the armed hit lands
// at the same event on every run, however loaded the host. A second,
// non-quiescing run of each such schedule keeps the racing
// interleavings under the same durability check.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/brute_force.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "core/mutable_index.hpp"
#include "data/point_set.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {
namespace {

namespace fs = std::filesystem;
using data::PointSet;

constexpr std::size_t kDims = 4;
constexpr std::size_t kInsertBatch = 8;

/// One step of the shared parent/child plan. Deterministic, so the
/// parent can reconstruct the oracle from the ack file alone.
struct Batch {
  bool is_erase = false;
  std::vector<std::uint64_t> ids;
};

/// Bit-reproducible coordinates per id (verified byte-exact after
/// recovery — a flipped coordinate anywhere fails the run).
std::vector<float> coords_of(std::uint64_t id) {
  std::vector<float> p(kDims);
  for (std::size_t j = 0; j < kDims; ++j) {
    p[j] = static_cast<float>((id * 31 + j * 7) % 257) * 0.03125f;
  }
  return p;
}

/// 12 batches: two inserts of 8 fresh ids, then an erase of half the
/// previous insert — repeated. Crosses the seal threshold (buffer
/// capacity 24) twice so background tree saves, manifest commits, and
/// WAL rotations all happen while batches are still flowing.
std::vector<Batch> make_plan() {
  std::vector<Batch> plan;
  std::uint64_t next_id = 100;
  for (int i = 0; i < 12; ++i) {
    Batch b;
    if (i % 3 == 2) {
      b.is_erase = true;
      const Batch& prev = plan.back();
      b.ids.assign(prev.ids.begin(),
                   prev.ids.begin() + kInsertBatch / 2);
    } else {
      for (std::size_t n = 0; n < kInsertBatch; ++n) b.ids.push_back(next_id++);
    }
    plan.push_back(std::move(b));
  }
  return plan;
}

PointSet points_of(const Batch& b) {
  PointSet points(kDims);
  for (const std::uint64_t id : b.ids) points.push_point(coords_of(id), id);
  return points;
}

/// "name=mode@skip" — the child's post-construction arming spec
/// (arming after the constructor keeps the hit counting independent of
/// how many sites initialization touches).
void arm_from_spec(const std::string& spec) {
  namespace fp = common::failpoint;
  const std::size_t eq = spec.find('=');
  ASSERT_NE(eq, std::string::npos) << spec;
  std::string mode_text = spec.substr(eq + 1);
  std::uint64_t skip = 0;
  const std::size_t at = mode_text.find('@');
  if (at != std::string::npos) {
    skip = std::strtoull(mode_text.c_str() + at + 1, nullptr, 10);
    mode_text.resize(at);
  }
  fp::Mode mode = fp::Mode::Off;
  if (mode_text == "abort") {
    mode = fp::Mode::Abort;
  } else if (mode_text == "short-abort") {
    mode = fp::Mode::ShortAbort;
  } else {
    FAIL() << "unknown crash mode " << mode_text;
  }
  fp::arm(spec.substr(0, eq), mode, skip);
}

MutableConfig child_config(const std::string& dir) {
  MutableConfig config;
  config.durable_dir = dir;
  config.buffer_capacity = 24;  // seals mid-plan
  config.wal_flush_every = 4;   // group commits mid-plan
  return config;
}

// ---------------------------------------------------------------------
// The child: runs only when the harness execs us with the env set.
// ---------------------------------------------------------------------

TEST(CrashChild, IngestUntilKilled) {
  const char* dir = std::getenv("PANDA_CRASH_DIR");
  if (dir == nullptr) GTEST_SKIP() << "crash-harness child entry point";
  const char* ack_path = std::getenv("PANDA_CRASH_ACK");
  ASSERT_NE(ack_path, nullptr);
  // Drain background seals/merges after every acked batch, so their
  // failpoint hits are counted rather than raced.
  const bool quiesce = std::getenv("PANDA_CRASH_QUIESCE") != nullptr;
  // O_APPEND + write(2): acknowledgements reach the kernel before the
  // next batch starts, so they survive the _Exit exactly like a
  // client's acked RPC survives its server's kill -9.
  const int ack_fd = ::open(ack_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  ASSERT_GE(ack_fd, 0);

  auto pool = std::make_shared<parallel::ThreadPool>(2);
  MutableIndex index(kDims, child_config(dir), BuildConfig{}, pool);
  if (const char* spec = std::getenv("PANDA_CRASH_ARM")) arm_from_spec(spec);

  const auto plan = make_plan();
  for (std::size_t b = 0; b < plan.size(); ++b) {
    if (plan[b].is_erase) {
      index.erase(plan[b].ids);
    } else {
      index.insert(points_of(plan[b]));
    }
    const std::string line = std::to_string(b) + "\n";
    ASSERT_EQ(::write(ack_fd, line.data(), line.size()),
              static_cast<::ssize_t>(line.size()));
    if (quiesce) index.quiesce();
  }
  ::close(ack_fd);
  // Reaching here means the schedule's failpoint never fired in the
  // foreground; the index destructor (which joins the background
  // threads) may still hit it.
}

// ---------------------------------------------------------------------
// The parent harness.
// ---------------------------------------------------------------------

struct ChildRun {
  int exit_status = -1;   // raw wait status from system()
  int last_acked = -1;    // highest batch index in the ack file
};

ChildRun run_child(const fs::path& dir, const std::string& extra_env) {
  const fs::path ack = dir / "ack.txt";
  // Resolve our own binary up front: "/proc/self/exe" inside the
  // sh -c command would name the *shell*, not this test.
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  std::string cmd = "PANDA_CRASH_DIR='" + (dir / "index").string() +
                    "' PANDA_CRASH_ACK='" + ack.string() + "' " + extra_env +
                    " '" + self +
                    "' --gtest_filter=CrashChild.IngestUntilKilled"
                    " >'" + (dir / "child.log").string() + "' 2>&1";
  ChildRun run;
  run.exit_status = std::system(cmd.c_str());
  std::ifstream in(ack);
  int b = 0;
  while (in >> b) run.last_acked = b;
  return run;
}

/// Recovers the durable directory and checks the durability contract
/// given the last acknowledged batch.
void verify_recovery(const fs::path& index_dir, int last_acked) {
  const auto plan = make_plan();
  auto pool = std::make_shared<parallel::ThreadPool>(2);
  MutableConfig config;
  config.durable_dir = index_dir.string();
  MutableIndex recovered(kDims, config, BuildConfig{}, pool);

  // Oracle: the live set implied by the acked prefix.
  std::set<std::uint64_t> expected;
  std::set<std::uint64_t> erased;
  for (int b = 0; b <= last_acked; ++b) {
    for (const std::uint64_t id : plan[static_cast<std::size_t>(b)].ids) {
      if (plan[static_cast<std::size_t>(b)].is_erase) {
        expected.erase(id);
        erased.insert(id);
      } else {
        expected.insert(id);
      }
    }
  }
  const Batch* inflight =
      last_acked + 1 < static_cast<int>(plan.size())
          ? &plan[static_cast<std::size_t>(last_acked + 1)]
          : nullptr;

  // What actually survived, coordinates verified bit-exact.
  const PointSet live = recovered.live_points();
  ASSERT_EQ(live.size(), recovered.size());
  std::set<std::uint64_t> got;
  std::vector<float> p(kDims);
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    const std::uint64_t id = live.id(i);
    got.insert(id);
    live.copy_point(i, p.data());
    EXPECT_EQ(p, coords_of(id)) << "corrupted coords for id " << id;
  }

  // Acked inserts present — except ids the in-flight erase may have
  // legitimately removed; those fall under all-or-nothing below.
  for (const std::uint64_t id : expected) {
    if (inflight != nullptr && inflight->is_erase &&
        std::find(inflight->ids.begin(), inflight->ids.end(), id) !=
            inflight->ids.end()) {
      continue;
    }
    EXPECT_TRUE(got.count(id)) << "acked insert of id " << id << " lost";
  }
  // Acked erases absent.
  for (const std::uint64_t id : erased) {
    EXPECT_FALSE(got.count(id)) << "acked erase of id " << id
                                << " resurrected";
  }
  // The in-flight batch is all-or-nothing.
  if (inflight != nullptr) {
    std::size_t present = 0;
    for (const std::uint64_t id : inflight->ids) present += got.count(id);
    EXPECT_TRUE(present == 0 || present == inflight->ids.size())
        << "in-flight batch torn: " << present << " of "
        << inflight->ids.size() << " ids present";
    if (inflight->is_erase) {
      for (const std::uint64_t id : inflight->ids) expected.erase(id);
      if (present != 0) {
        for (const std::uint64_t id : inflight->ids) expected.insert(id);
      }
    } else if (present != 0) {
      for (const std::uint64_t id : inflight->ids) expected.insert(id);
    }
  }
  // With the in-flight outcome resolved, the survivor set is exact:
  // nothing missing, nothing invented, no partial frame replayed.
  EXPECT_EQ(got, expected);

  // And the recovered index answers queries like a fresh brute-force
  // build over the surviving points.
  if (!got.empty()) {
    PointSet oracle(kDims);
    for (const std::uint64_t id : got) oracle.push_point(coords_of(id), id);
    PointSet queries(kDims);
    std::size_t q = 0;
    for (const std::uint64_t id : got) {
      if (q++ % 7 == 0) queries.push_point(coords_of(id + 1), id);
    }
    NeighborTable results;
    ForestWorkspace ws;
    recovered.knn_batch(queries, 3, results, ws);
    std::vector<float> query(kDims);
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      queries.copy_point(i, query.data());
      const auto row = results[i];
      const auto want = baselines::brute_force_knn(oracle, query, 3);
      ASSERT_EQ(row.size(), want.size());
      for (std::size_t n = 0; n < want.size(); ++n) {
        EXPECT_EQ(row[n].id, want[n].id);
        EXPECT_EQ(row[n].dist2, want[n].dist2);
      }
    }
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("panda_crash_" + std::to_string(::getpid()) + "_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Runs one kill schedule end to end and verifies the contract.
  /// Expects the child to die at the failpoint (exit 42) unless the
  /// schedule is explicitly allowed to run to completion.
  void run_schedule(const std::string& env, bool expect_kill = true) {
    SCOPED_TRACE(env);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const ChildRun run = run_child(dir_, env);
    ASSERT_TRUE(WIFEXITED(run.exit_status)) << "child did not exit";
    if (expect_kill) {
      EXPECT_EQ(WEXITSTATUS(run.exit_status),
                common::failpoint::kFailpointExitCode)
          << "failpoint never fired";
    }
    verify_recovery(dir_ / "index", run.last_acked);
  }

  /// A schedule armed at a background site (tree save, MANIFEST
  /// commit, WAL rotation): once counted — the child quiesces after
  /// every acked batch, so the kill must fire — and once racing, where
  /// seals may coalesce or outlive the child and the kill may or may
  /// not land, but recovery must hold either way.
  void run_background_schedule(const std::string& spec) {
    run_schedule("PANDA_CRASH_QUIESCE=1 PANDA_CRASH_ARM='" + spec + "'");
    run_schedule("PANDA_CRASH_ARM='" + spec + "'", /*expect_kill=*/false);
  }

  fs::path dir_;
};

TEST_F(CrashRecoveryTest, KilledDuringWalAppend) {
  for (const int skip : {0, 1, 2, 3, 5, 7, 9}) {
    run_schedule("PANDA_CRASH_ARM='wal.append=abort@" +
                 std::to_string(skip) + "'");
  }
}

TEST_F(CrashRecoveryTest, KilledMidWriteDuringWalAppend) {
  // short-abort: half the frame reaches the kernel, then _Exit — the
  // torn tail the replay path must discard.
  for (const int skip : {0, 2, 4, 6}) {
    run_schedule("PANDA_CRASH_ARM='wal.append=short-abort@" +
                 std::to_string(skip) + "'");
  }
}

TEST_F(CrashRecoveryTest, KilledAtGroupCommitFsync) {
  for (const int skip : {0, 1, 2}) {
    run_schedule("PANDA_CRASH_ARM='wal.pre_fsync=abort@" +
                 std::to_string(skip) + "'");
  }
}

TEST_F(CrashRecoveryTest, KilledDuringTreeSaveAndManifestCommit) {
  // atomic_file.* sites fire inside the background seal: the tree
  // save's writes/fsync and the manifest's atomic replace.
  for (const char* site :
       {"atomic_file.write=abort@0", "atomic_file.write=abort@1",
        "atomic_file.write=abort@5", "atomic_file.fsync=abort@0",
        "atomic_file.fsync=abort@1", "atomic_file.rename=abort@0",
        "atomic_file.rename=abort@1", "atomic_file.dirsync=abort@0"}) {
    run_background_schedule(site);
  }
}

TEST_F(CrashRecoveryTest, KilledAtWalRotation) {
  run_background_schedule("wal.create=abort@0");
}

TEST_F(CrashRecoveryTest, EnvironmentActivatedSchedule) {
  // PANDA_FAILPOINTS is parsed at child startup, so hit counting
  // includes initialization (the WAL header write is wal.append hit
  // 1); @6 lands mid-plan.
  run_schedule("PANDA_FAILPOINTS='wal.append=abort@6'");
}

TEST_F(CrashRecoveryTest, KilledDuringInitialManifestCommit) {
  // Dies inside the constructor's first manifest replace: the
  // directory must recover as empty and fresh (no acked batches, no
  // partial state adopted).
  const ChildRun run = run_child(dir_, "PANDA_FAILPOINTS='atomic_file.rename=abort@1'");
  ASSERT_TRUE(WIFEXITED(run.exit_status));
  EXPECT_EQ(WEXITSTATUS(run.exit_status),
            common::failpoint::kFailpointExitCode);
  EXPECT_EQ(run.last_acked, -1);
  EXPECT_FALSE(fs::exists(dir_ / "index" / "MANIFEST"));
  verify_recovery(dir_ / "index", run.last_acked);
}

TEST_F(CrashRecoveryTest, TornTailIsReportedByRecovery) {
  // The very first armed append is the foreground insert of batch 0;
  // tearing it leaves a torn WAL tail that recovery must both discard
  // and mention.
  const ChildRun run = run_child(dir_, "PANDA_CRASH_ARM='wal.append=short-abort@0'");
  ASSERT_TRUE(WIFEXITED(run.exit_status));
  ASSERT_EQ(WEXITSTATUS(run.exit_status),
            common::failpoint::kFailpointExitCode);
  EXPECT_EQ(run.last_acked, -1);
  auto pool = std::make_shared<parallel::ThreadPool>(2);
  MutableConfig config;
  config.durable_dir = (dir_ / "index").string();
  MutableIndex recovered(kDims, config, BuildConfig{}, pool);
  EXPECT_NE(recovered.recovery_diagnostic().find("torn tail"),
            std::string::npos)
      << recovered.recovery_diagnostic();
  EXPECT_EQ(recovered.size(), 0u);
}

TEST_F(CrashRecoveryTest, CleanRunThenRecoveryIsExact) {
  // No failpoint at all: the child completes, and recovery of a
  // cleanly closed directory reproduces the full plan.
  const ChildRun run = run_child(dir_, "");
  ASSERT_TRUE(WIFEXITED(run.exit_status));
  EXPECT_EQ(WEXITSTATUS(run.exit_status), 0);
  EXPECT_EQ(run.last_acked, 11);
  verify_recovery(dir_ / "index", run.last_acked);
}

}  // namespace
}  // namespace panda::core
