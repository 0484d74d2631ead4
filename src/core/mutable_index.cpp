// MutableIndex — the logarithmic method over packed kd-trees
// (DESIGN.md §12).
//
// Concurrency shape in one paragraph: mutex_ guards the write-side
// state (the run list, sealed groups, forest, live-id set); every mutation
// ends by publishing a fresh immutable Snapshot through one
// atomic<shared_ptr> store, and queries only ever touch that snapshot.
// The merge thread claims work under the lock (copying the claimed
// Run/TreeShard values, whose payloads are immutable shared state),
// builds the replacement tree outside the lock, and re-locks only to
// splice the forest and publish. Erases that land while a merge is in
// flight COW the *current* containers; at publish time the merge
// computes the residual (current dead minus dead-at-claim) and carries
// it onto the new tree, so no tombstone is ever lost or resurrected.
#include "core/mutable_index.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/batch_order.hpp"
#include "data/storage.hpp"
#include "parallel/parallel_for.hpp"

namespace panda::core {

namespace {

// Durable-mode MANIFEST (DESIGN.md §13): the single commit point. A
// flat little-endian record naming the committed state — the tree
// files and the WAL that together reconstruct the index — replaced
// atomically (write-temp / fsync / rename) on every state change.
// Anything in the directory the MANIFEST does not name is an
// uncommitted leftover from a crash and is swept at recovery.
//
//   magic u64  version u32  dims u32
//   wal_seq u64  next_file_seq u64  tree_count u64
//   per tree: file_seq u64, level u32, pad u32
//   crc32c u32 (over all preceding bytes)
constexpr std::uint64_t kManifestMagic = 0x50414e44414d414eULL;  // PANDAMAN
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::size_t kManifestFixedBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kManifestTreeBytes = 16;

bool contains(const std::vector<std::uint64_t>& sorted, std::uint64_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

/// A container's sorted dead ids (empty when it has none).
std::span<const std::uint64_t> dead_ids(const auto& container) {
  if (container.dead == nullptr) return {};
  return *container.dead;
}

/// Run points the buffer scan measures per block (and the self-join's
/// unit of run work).
constexpr std::size_t kScanBlock = 256;

/// One unit of a walk over the live slots of a (trees, runs) list: a
/// packed leaf of a tree, or a block of up to kScanBlock run points.
/// `container` counts the trees first, then the runs; `part` is the
/// leaf or block index; `base` is the position of its first slot.
struct SlotUnit {
  std::uint64_t base = 0;
  std::uint32_t container = 0;
  std::uint32_t part = 0;
  std::uint32_t count = 0;
};

/// A slot position that answers no row: a dead slot.
constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

/// The live slots of a (trees, runs) list, ranked by id. Positions
/// number every tree's packed slots in list order (padding included),
/// then every run's points; `units` cover them in that order, and
/// row_of[position] is the live slot's rank among the live ids, or
/// kNoRow. One radix sort of (id, position) pairs does the ranking.
struct LiveRanks {
  std::vector<SlotUnit> units;
  std::vector<std::uint64_t> row_of;
  std::uint64_t live = 0;
};

LiveRanks rank_live(const auto& trees, const auto& runs) {
  LiveRanks out;
  std::uint64_t points = 0;
  std::uint64_t n_units = 0;
  for (const auto& shard : trees) {
    points += shard.tree->size();
    n_units += shard.tree->leaf_count();
  }
  for (const auto& run : runs) {
    points += run.points->size();
    n_units += (run.points->size() + kScanBlock - 1) / kScanBlock;
  }
  out.units.reserve(n_units);
  std::vector<IdPosition> keys;
  keys.reserve(points);
  const auto key = [&](std::uint64_t id, std::uint64_t position,
                       std::span<const std::uint64_t> dead) {
    if (dead.empty() || !std::binary_search(dead.begin(), dead.end(), id)) {
      keys.push_back({id, position});
    }
  };
  std::uint64_t positions = 0;
  std::uint32_t container = 0;
  for (const auto& shard : trees) {
    const KdTree& tree = *shard.tree;
    const std::span<const std::uint64_t> ids = tree.packed_ids();
    for (std::size_t l = 0; l < tree.leaf_count(); ++l) {
      const KdTree::LeafSlots leaf = tree.leaf_slots(l);
      const std::uint64_t base = positions + leaf.begin;
      out.units.push_back(
          {base, container, static_cast<std::uint32_t>(l), leaf.count});
      for (std::uint32_t j = 0; j < leaf.count; ++j) {
        key(ids[leaf.begin + j], base + j, dead_ids(shard));
      }
    }
    positions += ids.size();
    ++container;
  }
  for (const auto& run : runs) {
    const data::PointSet& ps = *run.points;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      if (p % kScanBlock == 0) {
        out.units.push_back(
            {positions + p, container,
             static_cast<std::uint32_t>(p / kScanBlock),
             static_cast<std::uint32_t>(std::min(kScanBlock, ps.size() - p))});
      }
      key(ps.id(p), positions + p, dead_ids(run));
    }
    positions += ps.size();
    ++container;
  }
  sort_by_id(keys);
  out.live = keys.size();
  out.row_of.assign(positions, kNoRow);
  for (std::uint64_t rank = 0; rank < out.live; ++rank) {
    out.row_of[keys[rank].position] = rank;
  }
  return out;
}

/// The live points of a (trees, runs) list in ascending id order, each
/// copied once: rank_live gives every live slot its row, and one pass
/// writes the slot's coordinates and id there, read from the packed
/// leaf (KdTree::copy_slot) or the run. What every rebuild and
/// live_points() start from.
data::PointSet gather_live(std::size_t dims, const auto& trees,
                           const auto& runs) {
  const LiveRanks ranks = rank_live(trees, runs);
  data::PointSet out(dims, ranks.live);
  std::vector<float> point(dims);
  const std::size_t n_trees = std::size(trees);
  for (const SlotUnit& unit : ranks.units) {
    for (std::uint32_t j = 0; j < unit.count; ++j) {
      const std::uint64_t row = ranks.row_of[unit.base + j];
      if (row == kNoRow) continue;
      if (unit.container < n_trees) {
        const KdTree& tree = *trees[unit.container].tree;
        tree.copy_slot(unit.part, j, point.data());
        out.set_id(row,
                   tree.packed_ids()[tree.leaf_slots(unit.part).begin + j]);
      } else {
        const data::PointSet& ps = *runs[unit.container - n_trees].points;
        const std::size_t p = std::size_t{unit.part} * kScanBlock + j;
        ps.copy_point(p, point.data());
        out.set_id(row, ps.id(p));
      }
      for (std::size_t d = 0; d < dims; ++d) out.set(row, d, point[d]);
    }
  }
  return out;
}

/// Appends to `out` the ids erased from a container since it was
/// claimed: its current dead list minus the one copied at claim.
void append_residual(const auto& claimed, const auto& current,
                     std::vector<std::uint64_t>& out) {
  const auto now = dead_ids(current);
  const auto then = dead_ids(claimed);
  std::set_difference(now.begin(), now.end(), then.begin(), then.end(),
                      std::back_inserter(out));
}

}  // namespace

MutableIndex::MutableIndex(std::size_t dims, const MutableConfig& config,
                           const BuildConfig& build,
                           std::shared_ptr<parallel::ThreadPool> pool)
    : dims_(dims), config_(config), build_(build), pool_(std::move(pool)) {
  PANDA_CHECK_MSG(dims_ >= 1, "MutableIndex needs dims >= 1");
  PANDA_CHECK_MSG(config_.buffer_capacity >= 1,
                  "MutableConfig.buffer_capacity must be >= 1");
  PANDA_CHECK_MSG(config_.merge_fan_in >= 2,
                  "MutableConfig.merge_fan_in must be >= 2");
  PANDA_CHECK_MSG(pool_ != nullptr, "MutableIndex needs a thread pool");
  PANDA_CHECK_MSG(!durable() || config_.wal_flush_every >= 1,
                  "MutableConfig.wal_flush_every must be >= 1");
  // order: release — the empty snapshot is published before any
  // thread exists, but every later publish_locked() store pairs with
  // snapshot()'s acquire load; keep the ctor store symmetric.
  snapshot_.store(std::make_shared<const Snapshot>(),
                  std::memory_order_release);
  // Durable setup (and recovery) runs before the background threads
  // exist: replayed state is complete by the time anything can claim
  // work from it.
  if (durable()) init_durable();
  seal_thread_ = std::thread([this] { seal_loop(); });
  merge_thread_ = std::thread([this] { merge_loop(); });
}

MutableIndex::MutableIndex(KdTree seed, const MutableConfig& config,
                           const BuildConfig& build,
                           std::shared_ptr<parallel::ThreadPool> pool)
    : MutableIndex(seed.dims(), config, build, std::move(pool)) {
  if (!seed.empty()) {
    const std::uint32_t level = level_for_size(seed.size());
    TreeShard shard =
        make_shard(std::move(seed), level, 0, "MutableIndex seed");
    MutexLock lock(mutex_);
    if (durable()) {
      // Seeding writes the seed as committed state; a directory that
      // recovered content would be silently shadowed by it.
      PANDA_CHECK_MSG(live_.empty(),
                      "cannot seed a MutableIndex into non-empty durable "
                      "directory "
                          << config_.durable_dir
                          << " (open it without a seed, or point at a fresh "
                             "directory)");
    }
    live_.reserve(shard.ids->size());
    for (const std::uint64_t id : *shard.ids) live_.insert(id);
    // order: relaxed — live_count_ is the size() gauge; see the hpp.
    live_count_.store(shard.ids->size(), std::memory_order_relaxed);
    if (durable()) {
      shard.file_seq = next_file_seq_++;
      shard.tree->save(tree_path(shard.file_seq));
    }
    trees_.push_back(std::move(shard));
    if (durable()) commit_locked();
    publish_locked();
  }
}

MutableIndex::~MutableIndex() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  seal_cv_.notify_all();
  merge_cv_.notify_all();
  if (seal_thread_.joinable()) seal_thread_.join();
  if (merge_thread_.joinable()) merge_thread_.join();
  // Close the group-commit window on clean shutdown: acknowledged
  // frames not yet fsynced become power-loss durable too.
  if (wal_.has_value()) {
    try {
      wal_->sync();
    } catch (...) {
      // Destructor: nowhere to report; the frames are still write()n.
    }
  }
}

// ---------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------

void MutableIndex::insert(const data::PointSet& points) {
  PANDA_CHECK_MSG(points.dims() == dims_,
                  "insert dimensionality mismatch: batch has "
                      << points.dims() << " dims, index has " << dims_);
  if (points.empty()) return;
  // Refuse the whole batch before it is admitted, logged or applied.
  data::require_finite(data::PointSetView(points), "MutableIndex::insert");
  MutexLock lock(mutex_);
  // All-or-nothing admission: a collision rolls back the ids this
  // batch already claimed, so a failed insert leaves no trace. The
  // admission check runs *before* logging — a rejected batch must not
  // reach the WAL, or recovery would replay the collision.
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (!live_.insert(points.id(p))) {
      for (std::size_t q = 0; q < p; ++q) live_.erase(points.id(q));
      throw Error("MutableIndex::insert: id " +
                  std::to_string(points.id(p)) +
                  " is already live (erase it first or use a fresh id)");
    }
  }
  if (durable()) {
    // Log before apply: once the frame is write()n the batch survives
    // process death; a failed append rolls the admission back so
    // neither memory nor log keeps a trace.
    try {
      wal_->append_insert(points);
    } catch (...) {
      for (std::size_t p = 0; p < points.size(); ++p) {
        live_.erase(points.id(p));
      }
      throw;
    }
  }
  apply_insert_locked(points);
  publish_locked();
  if (durable()) maybe_sync_wal_locked();
}

/// The state mutation behind insert() and WAL replay: the batch's ids
/// must already be admitted into live_ by the caller.
void MutableIndex::apply_insert_locked(const data::PointSet& points) {
  runs_.push_back({std::make_shared<const data::PointSet>(points), nullptr});
  open_points_ += points.size();
  inserts_ += points.size();
  // order: relaxed — size() gauge; see the hpp.
  live_count_.fetch_add(points.size(), std::memory_order_relaxed);
  if (open_points_ >= config_.buffer_capacity) {
    // Every run past the sealed groups becomes the newest group.
    sealed_groups_.push_back(runs_.size() -
                             std::accumulate(sealed_groups_.begin(),
                                             sealed_groups_.end(),
                                             std::size_t{0}));
    open_points_ = 0;
    seal_cv_.notify_one();
  }
}

std::size_t MutableIndex::erase(std::span<const std::uint64_t> ids) {
  MutexLock lock(mutex_);
  // Collect the ids that are actually live (erasing them from live_ as
  // we go, which also deduplicates repeats within the batch) so the
  // WAL frame holds exactly the erases this call performs.
  std::vector<std::uint64_t> hit;
  hit.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    if (live_.erase(id)) hit.push_back(id);
  }
  if (hit.empty()) return 0;
  if (durable()) {
    try {
      wal_->append_erase(hit);
    } catch (...) {
      for (const std::uint64_t id : hit) live_.insert(id);
      throw;
    }
  }
  tombstone_locked(hit);
  erases_ += hit.size();
  // order: relaxed — size() gauge; see the hpp.
  live_count_.fetch_sub(hit.size(), std::memory_order_relaxed);
  publish_locked();
  if (durable()) maybe_sync_wal_locked();
  return hit.size();
}

/// Replay-side erase: applies whichever of `ids` are live and skips
/// the rest silently.
void MutableIndex::apply_erase_locked(std::span<const std::uint64_t> ids) {
  std::vector<std::uint64_t> hit;
  hit.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    if (live_.erase(id)) hit.push_back(id);
  }
  if (hit.empty()) return;
  tombstone_locked(hit);
  erases_ += hit.size();
  // order: relaxed — size() gauge; see the hpp.
  live_count_.fetch_sub(hit.size(), std::memory_order_relaxed);
}

void MutableIndex::tombstone_locked(std::span<std::uint64_t> ids) {
  // Route every id to the one container holding it live (runs first,
  // then trees, as a lookup would find it), then publish one merged
  // copy-on-write dead list per touched container: pinned snapshots
  // keep reading the old lists.
  std::sort(ids.begin(), ids.end());
  std::vector<bool> placed(ids.size(), false);
  std::size_t unplaced = ids.size();
  IdList found;
  found.reserve(ids.size());
  const auto place = [&](std::size_t j) {
    if (placed[j]) return;
    placed[j] = true;
    --unplaced;
    found.push_back(ids[j]);
  };
  const auto publish_dead = [&found](std::shared_ptr<const IdList>& dead) {
    if (found.empty()) return;
    std::sort(found.begin(), found.end());
    const std::span<const std::uint64_t> old =
        dead ? std::span<const std::uint64_t>(*dead)
             : std::span<const std::uint64_t>();
    IdList merged(old.size() + found.size());
    std::merge(old.begin(), old.end(), found.begin(), found.end(),
               merged.begin());
    dead = std::make_shared<const IdList>(std::move(merged));
    found.clear();
  };
  for (Run& run : runs_) {
    if (unplaced == 0) break;
    for (const std::uint64_t id : run.points->ids()) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it == ids.end() || *it != id) continue;
      if (run.dead != nullptr && contains(*run.dead, id)) continue;
      place(static_cast<std::size_t>(it - ids.begin()));
    }
    publish_dead(run.dead);
  }
  for (TreeShard& shard : trees_) {
    if (unplaced == 0) break;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (!placed[j] && contains(*shard.ids, ids[j]) &&
          !(shard.dead != nullptr && contains(*shard.dead, ids[j]))) {
        place(j);
      }
    }
    publish_dead(shard.dead);
  }
  for (std::size_t j = 0; j < ids.size(); ++j) {
    PANDA_CHECK_MSG(placed[j], "internal: live id "
                                   << ids[j] << " found in no container");
  }
}

void MutableIndex::publish_locked() {
  auto snap = std::make_shared<Snapshot>();
  snap->runs = runs_;
  snap->trees = trees_;
  // order: release — publishes the fully built Snapshot; pairs with the
  // acquire load in snapshot().
  snapshot_.store(std::shared_ptr<const Snapshot>(std::move(snap)),
                  std::memory_order_release);
}

std::uint32_t MutableIndex::level_for_size(std::uint64_t points) const {
  // Level ℓ holds trees of up to capacity · fan^ℓ points, so a tree of
  // `points` lands at ceil(log_fan(points / capacity)).
  std::uint32_t level = 0;
  std::uint64_t scale = std::max<std::uint64_t>(config_.buffer_capacity, 1);
  while (points > scale) {
    scale *= config_.merge_fan_in;
    ++level;
  }
  return level;
}

int MutableIndex::overfull_level_locked() const {
  std::vector<std::uint32_t> counts;
  for (const TreeShard& shard : trees_) {
    if (counts.size() <= shard.level) counts.resize(shard.level + 1, 0);
    ++counts[shard.level];
  }
  for (std::size_t level = 0; level < counts.size(); ++level) {
    if (counts[level] >= config_.merge_fan_in) {
      return static_cast<int>(level);
    }
  }
  return -1;
}

bool MutableIndex::has_work_locked() const {
  return !sealed_groups_.empty() || overfull_level_locked() >= 0;
}

// ---------------------------------------------------------------------
// Background merges
// ---------------------------------------------------------------------

// Both lanes run at normal priority on purpose: a deprioritized
// background thread starves on a saturated box, work piles up, and
// queries degrade *structurally* (ever-longer brute scans over
// unsealed runs, ever-deeper forests) — worse than the CPU it saves.
// The interference bound comes from merge_build_pool_ being size 1
// instead: each lane builds on its own single thread, query batches
// keep the whole shared-pool team.

void MutableIndex::seal_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    seal_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
      return stop_ || !sealed_groups_.empty();
    });
    if (stop_) return;  // abandon pending work; the index is dying
    seal_busy_ = true;
    // Claim by value: the Run payloads are immutable, and the dead
    // lists are COW — this copy IS the dead-at-claim baseline. The
    // durable file sequence is allocated at claim, under the lock, so
    // the build can write tree-<seq>.panda without holding it.
    std::vector<Run> claimed(
        runs_.begin(),
        runs_.begin() + static_cast<std::ptrdiff_t>(sealed_groups_.front()));
    const std::uint64_t seq = durable() ? next_file_seq_++ : 0;
    lock.unlock();
    do_seal(std::move(claimed), seq);
    lock.lock();
    seal_busy_ = false;
    merge_cv_.notify_one();  // the new level-0 tree may overfill level 0
    idle_cv_.notify_all();
  }
}

void MutableIndex::merge_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    // Cascading overfull levels (a merge into level L+1 overfilling
    // L+1) re-enter through the wait predicate, which re-evaluates
    // before parking.
    merge_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
      return stop_ || overfull_level_locked() >= 0;
    });
    if (stop_) return;
    merge_busy_ = true;
    const int level = overfull_level_locked();
    std::vector<TreeShard> claimed;
    for (const TreeShard& shard : trees_) {
      if (static_cast<int>(shard.level) == level) claimed.push_back(shard);
    }
    const std::uint64_t seq = durable() ? next_file_seq_++ : 0;
    lock.unlock();
    do_level_merge(static_cast<std::uint32_t>(level), std::move(claimed),
                   seq);
    lock.lock();
    merge_busy_ = false;
    idle_cv_.notify_all();
  }
}

MutableIndex::TreeShard MutableIndex::make_shard(KdTree tree,
                                                 std::uint32_t level,
                                                 std::uint64_t file_seq,
                                                 std::string_view caller) {
  IdList ids;
  tree.export_ids(ids);
  TreeShard shard;
  shard.ids =
      std::make_shared<const IdList>(sorted_unique_ids(std::move(ids), caller));
  shard.tree = std::make_shared<const KdTree>(std::move(tree));
  shard.level = level;
  shard.file_seq = file_seq;
  return shard;
}

MutableIndex::TreeShard MutableIndex::rebuild(std::span<const TreeShard> trees,
                                              std::span<const Run> runs,
                                              std::uint32_t level,
                                              std::uint64_t file_seq,
                                              std::string_view caller) {
  // Queries keep answering from the claimed containers in their pinned
  // snapshots while this builds.
  const data::PointSet live = gather_live(dims_, trees, runs);
  if (live.empty()) return {};
  TreeShard shard = make_shard(KdTree::build(live, build_, merge_build_pool_),
                               level, file_seq, caller);
  // Persist outside the lock too — the file is invisible until the
  // MANIFEST names it, so writers/queries never stall on this I/O. An
  // uncommitted file left by a crash is swept at recovery.
  if (durable()) shard.tree->save(tree_path(file_seq));
  return shard;
}

void MutableIndex::add_tree_locked(TreeShard shard, IdList residual) {
  if (shard.tree == nullptr) {
    // Everything was dead at claim: nothing live remained for an erase
    // to target afterwards, so there can be no residual.
    PANDA_ASSERT(residual.empty());
    return;
  }
  std::sort(residual.begin(), residual.end());
  if (!residual.empty()) {
    shard.dead = std::make_shared<const IdList>(std::move(residual));
  }
  trees_.push_back(std::move(shard));
}

void MutableIndex::do_seal(std::vector<Run> claimed, std::uint64_t file_seq) {
  TreeShard shard = rebuild({}, claimed, 0, file_seq, "MutableIndex seal");
  MutexLock lock(mutex_);
  // Writers only ever COW dead lists of buffered runs, so the leading
  // runs still match `claimed` position by position. Ids erased since
  // the claim are inside the new tree — carry them as residual
  // tombstones.
  IdList residual;
  for (std::size_t r = 0; r < claimed.size(); ++r) {
    append_residual(claimed[r], runs_[r], residual);
  }
  runs_.erase(runs_.begin(),
              runs_.begin() + static_cast<std::ptrdiff_t>(claimed.size()));
  sealed_groups_.pop_front();
  add_tree_locked(std::move(shard), std::move(residual));
  ++seals_;
  // Commit the seal and shrink the log in one step: the fresh WAL holds
  // only the still-buffered state, and the old one (whose frames the
  // new tree now embodies) goes after the MANIFEST names the new tree.
  if (durable()) commit_locked();
  publish_locked();
}

void MutableIndex::do_level_merge(std::uint32_t level,
                                  std::vector<TreeShard> claimed,
                                  std::uint64_t file_seq) {
  TreeShard shard =
      rebuild(claimed, {}, level + 1, file_seq, "MutableIndex level merge");
  MutexLock lock(mutex_);
  IdList residual;
  std::erase_if(trees_, [&](const TreeShard& current) {
    const auto source = std::find_if(
        claimed.begin(), claimed.end(),
        [&](const TreeShard& c) { return c.tree == current.tree; });
    if (source == claimed.end()) return false;
    append_residual(*source, current, residual);
    return true;
  });
  add_tree_locked(std::move(shard), std::move(residual));
  ++merges_;
  if (durable()) {
    // The merge dropped the dead copies its sources held, which the
    // current log's Tombstones frame still names; recovery would read
    // such an entry as killing the live copy of a reinserted id. So
    // the commit rotates the WAL like a seal's. Source files outlive
    // the commit, then go.
    commit_locked();
    std::error_code ec;
    for (const TreeShard& source : claimed) {
      std::filesystem::remove(tree_path(source.file_seq), ec);
    }
  }
  publish_locked();
}

void MutableIndex::quiesce() {
  MutexLock lock(mutex_);
  idle_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
    return !seal_busy_ && !merge_busy_ && !has_work_locked();
  });
}

void MutableIndex::compact() {
  MutexLock lock(mutex_);
  // Drain both background lanes first: their publish steps match
  // containers positionally / by pointer, so the forest must not
  // change shape under a claim. The wait releases the lock, letting
  // them finish.
  idle_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
    return !seal_busy_ && !merge_busy_ && !has_work_locked();
  });
  const data::PointSet live = gather_live(dims_, trees_, runs_);
  const std::vector<TreeShard> old = std::exchange(trees_, {});
  runs_.clear();
  open_points_ = 0;
  if (!live.empty()) {
    // Built under the lock: writers wait, queries keep serving the
    // pre-compaction snapshot.
    const std::uint64_t seq = durable() ? next_file_seq_++ : 0;
    trees_.push_back(make_shard(KdTree::build(live, build_, *pool_),
                                level_for_size(live.size()), seq,
                                "MutableIndex compaction"));
    if (durable()) trees_.back().tree->save(tree_path(seq));
  }
  ++compactions_;
  if (durable()) {
    // The buffer is empty and the one tree has no tombstones, so the
    // rotated WAL is just a fresh header.
    commit_locked();
    std::error_code ec;
    for (const TreeShard& shard : old) {
      std::filesystem::remove(tree_path(shard.file_seq), ec);
    }
  }
  publish_locked();
}

// ---------------------------------------------------------------------
// Durability (DESIGN.md §13)
// ---------------------------------------------------------------------

std::string MutableIndex::manifest_path() const {
  return config_.durable_dir + "/MANIFEST";
}

std::string MutableIndex::tree_path(std::uint64_t seq) const {
  return config_.durable_dir + "/tree-" + std::to_string(seq) + ".panda";
}

std::string MutableIndex::wal_path(std::uint64_t seq) const {
  return config_.durable_dir + "/wal-" + std::to_string(seq) + ".log";
}

void MutableIndex::init_durable() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config_.durable_dir, ec);
  PANDA_CHECK_MSG(!ec, "cannot create durable directory "
                           << config_.durable_dir << ": " << ec.message());
  MutexLock lock(mutex_);
  if (fs::exists(manifest_path())) {
    recover_durable();
  } else {
    wal_seq_ = next_file_seq_++;
    wal_.emplace(
        Wal::create(wal_path(wal_seq_), static_cast<std::uint32_t>(dims_)));
    write_manifest_locked();
  }
  last_wal_sync_ = std::chrono::steady_clock::now();
}

void MutableIndex::recover_durable() {
  namespace fs = std::filesystem;
  const std::string path = manifest_path();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    common::throw_io_error("cannot open durable MANIFEST", path, "open",
                           errno);
  }
  std::error_code ec;
  const std::uint64_t fsize = fs::file_size(path, ec);
  PANDA_CHECK_MSG(!ec, "cannot stat durable MANIFEST: " << path);
  std::vector<unsigned char> buf(fsize);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  PANDA_CHECK_MSG(in.good() || fsize == 0,
                  "durable MANIFEST truncated: " << path);
  PANDA_CHECK_MSG(buf.size() >= kManifestFixedBytes + 4,
                  "durable MANIFEST truncated: " << path);
  // The trailing CRC covers everything, so one check subsumes all
  // torn-write cases — the MANIFEST is replaced atomically, but a
  // corrupt one must never be trusted.
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + buf.size() - 4, 4);
  const std::uint32_t computed = common::crc32c(buf.data(), buf.size() - 4);
  PANDA_CHECK_MSG(computed == stored_crc,
                  "durable MANIFEST checksum mismatch (stored 0x"
                      << std::hex << stored_crc << ", computed 0x" << computed
                      << std::dec << "): " << path);
  const auto get = [&](std::size_t off, auto& value) {
    std::memcpy(&value, buf.data() + off, sizeof(value));
  };
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t dims32 = 0;
  std::uint64_t tree_count = 0;
  get(0, magic);
  get(8, version);
  get(12, dims32);
  get(16, wal_seq_);
  get(24, next_file_seq_);
  get(32, tree_count);
  PANDA_CHECK_MSG(magic == kManifestMagic,
                  "not a PANDA durable MANIFEST: " << path);
  PANDA_CHECK_MSG(version == kManifestVersion,
                  "unsupported durable MANIFEST version " << version << ": "
                                                          << path);
  PANDA_CHECK_MSG(dims32 == dims_,
                  "durable directory dims mismatch (manifest has "
                      << dims32 << ", index opened with " << dims_
                      << "): " << path);
  PANDA_CHECK_MSG(
      buf.size() == kManifestFixedBytes + tree_count * kManifestTreeBytes + 4,
      "durable MANIFEST field 'tree_count' inconsistent with its size: "
          << path);

  // Sweep uncommitted leftovers first: tree/WAL files a crashed seal
  // or merge wrote but never committed, and stray .tmp files.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries(tree_count);
  for (std::uint64_t t = 0; t < tree_count; ++t) {
    get(kManifestFixedBytes + t * kManifestTreeBytes, entries[t].first);
    get(kManifestFixedBytes + t * kManifestTreeBytes + 8, entries[t].second);
  }
  std::unordered_set<std::string> keep;
  keep.insert("MANIFEST");
  keep.insert(fs::path(wal_path(wal_seq_)).filename().string());
  for (const auto& [seq, level] : entries) {
    keep.insert(fs::path(tree_path(seq)).filename().string());
  }
  for (const auto& entry : fs::directory_iterator(config_.durable_dir)) {
    if (keep.count(entry.path().filename().string()) == 0) {
      fs::remove(entry.path(), ec);
    }
  }

  // Committed trees: mmap-open (header, section CRCs and records
  // verified), each with its sorted id list. Dead lists are not persisted — the WAL's
  // Tombstones/Erase frames reconstruct them below.
  for (const auto& [seq, level] : entries) {
    trees_.push_back(
        make_shard(KdTree::open_mmap(tree_path(seq), /*verify_sections=*/true),
                   level, seq, "MutableIndex recovery of " + tree_path(seq)));
  }

  // The WAL's valid prefix. A torn tail is the expected shape after a
  // crash — the torn frame was never acknowledged — so it is recorded,
  // not thrown. A rotated log opens with the Tombstones frame.
  auto replayed =
      Wal::replay(wal_path(wal_seq_), static_cast<std::uint32_t>(dims_));
  if (replayed.torn) recovery_diagnostic_ = replayed.diagnostic;
  std::span<const Wal::Frame> frames = replayed.frames;
  IdList tombstones;
  if (!frames.empty() && frames.front().type == Wal::FrameType::Tombstones) {
    tombstones = std::move(replayed.frames.front().ids);
    frames = frames.subspan(1);
  }
  live_from_trees_locked(std::move(tombstones));

  // Replay the rest of the log in order.
  for (const Wal::Frame& frame : frames) {
    switch (frame.type) {
      case Wal::FrameType::Insert: {
        data::PointSet points(dims_);
        for (std::size_t p = 0; p < frame.ids.size(); ++p) {
          points.push_point(
              std::span<const float>(frame.coords.data() + p * dims_, dims_),
              frame.ids[p]);
        }
        // A frame's CRC vouches for its bytes, not for what they hold.
        data::require_finite(data::PointSetView(points),
                             "durable WAL replay of " + wal_path(wal_seq_));
        for (std::size_t p = 0; p < points.size(); ++p) {
          PANDA_CHECK_MSG(live_.insert(points.id(p)),
                          "durable WAL replays id "
                              << points.id(p)
                              << " over a live id — inconsistent state in "
                              << config_.durable_dir);
        }
        apply_insert_locked(points);
        break;
      }
      case Wal::FrameType::Erase:
      case Wal::FrameType::Tombstones:
        apply_erase_locked(frame.ids);
        break;
    }
  }
  wal_.emplace(Wal::open_for_append(wal_path(wal_seq_),
                                    static_cast<std::uint32_t>(dims_),
                                    replayed.valid_bytes));
  publish_locked();
}

void MutableIndex::live_from_trees_locked(IdList tombstones) {
  // Erase-then-reinsert leaves the old copy dead in its old tree until a
  // merge or compaction drops it, so committed trees may share an id.
  // Every commit rotates the WAL (commit_locked), whose Tombstones frame
  // lists each dead copy the committed trees hold: an id in k trees is
  // listed k - 1 times (one live copy) or k times (none). The live copy
  // is the newest: a tree claimed after an erase never holds the erased
  // copy, and file sequence numbers are allocated at claim.
  std::vector<std::pair<std::uint64_t, std::size_t>> newest_first;
  std::size_t tree_points = 0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    newest_first.emplace_back(trees_[t].file_seq, t);
    tree_points += trees_[t].ids->size();
  }
  std::sort(newest_first.begin(), newest_first.end(), std::greater<>());
  live_.reserve(tree_points);
  std::vector<std::pair<std::uint64_t, std::size_t>> older;  // (id, tree)
  for (const auto& [seq, t] : newest_first) {
    for (const std::uint64_t id : *trees_[t].ids) {
      if (!live_.insert(id)) older.emplace_back(id, t);
    }
  }

  // Each older copy takes one of its id's tombstones. One without is an
  // overlap no erase explains — say a tree file copied over another:
  // both stay CRC-valid, and the MANIFEST does not checksum tree
  // contents — and would answer every query for the id twice.
  std::sort(older.begin(), older.end());
  std::sort(tombstones.begin(), tombstones.end());
  std::vector<IdList> dead(trees_.size());
  IdList newest_dead;  // the tombstones left over kill newest copies
  auto tomb = tombstones.cbegin();
  for (std::size_t i = 0; i < older.size();) {
    const std::uint64_t id = older[i].first;
    std::size_t end = i;
    while (end < older.size() && older[end].first == id) ++end;
    while (tomb != tombstones.cend() && *tomb < id) {
      newest_dead.push_back(*tomb++);
    }
    const auto listed = std::upper_bound(tomb, tombstones.cend(), id) - tomb;
    if (static_cast<std::size_t>(listed) < end - i) {
      std::uint64_t newest = 0;
      for (const auto& [seq, t] : newest_first) {
        if (contains(*trees_[t].ids, id)) {
          newest = seq;
          break;
        }
      }
      throw Error("MutableIndex recovery: id " + std::to_string(id) +
                  " is live in two committed trees, " +
                  tree_path(trees_[older[i].second].file_seq) + " and " +
                  tree_path(newest) +
                  " (the WAL's Tombstones frame marks neither copy dead)");
    }
    tomb += static_cast<std::ptrdiff_t>(end - i);
    for (; i < end; ++i) dead[older[i].second].push_back(id);
  }
  newest_dead.insert(newest_dead.end(), tomb, tombstones.cend());
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    // `older` is id-sorted, so each list already is.
    if (!dead[t].empty()) {
      trees_[t].dead = std::make_shared<const IdList>(std::move(dead[t]));
    }
  }
  // order: relaxed — size() gauge; see the hpp.
  live_count_.store(live_.size(), std::memory_order_relaxed);
  apply_erase_locked(newest_dead);
}

void MutableIndex::commit_locked() {
  // A crash before the MANIFEST replace recovers from the old WAL and
  // sweeps the new files as orphans.
  const std::uint64_t old_wal = wal_seq_;
  rotate_wal_locked();
  write_manifest_locked();
  std::error_code ec;
  std::filesystem::remove(wal_path(old_wal), ec);
}

void MutableIndex::write_manifest_locked() {
  std::vector<unsigned char> buf;
  buf.reserve(kManifestFixedBytes + trees_.size() * kManifestTreeBytes + 4);
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf.insert(buf.end(), b, b + n);
  };
  const std::uint64_t magic = kManifestMagic;
  const std::uint32_t version = kManifestVersion;
  const auto dims32 = static_cast<std::uint32_t>(dims_);
  const std::uint64_t tree_count = trees_.size();
  put(&magic, 8);
  put(&version, 4);
  put(&dims32, 4);
  put(&wal_seq_, 8);
  put(&next_file_seq_, 8);
  put(&tree_count, 8);
  for (const TreeShard& shard : trees_) {
    const std::uint32_t level = shard.level;
    const std::uint32_t pad = 0;
    put(&shard.file_seq, 8);
    put(&level, 4);
    put(&pad, 4);
  }
  const std::uint32_t crc = common::crc32c(buf.data(), buf.size());
  put(&crc, 4);
  common::AtomicFileWriter out(manifest_path());
  out.write(buf.data(), buf.size());
  out.commit();
}

void MutableIndex::rotate_wal_locked() {
  const std::uint64_t seq = next_file_seq_++;
  Wal fresh =
      Wal::create(wal_path(seq), static_cast<std::uint32_t>(dims_));
  // The committed tree files still hold their dead points (dead lists
  // are in-memory only), so the fresh log opens with one Tombstones
  // frame re-seeding them.
  IdList dead;
  for (const TreeShard& shard : trees_) {
    if (shard.dead != nullptr) {
      dead.insert(dead.end(), shard.dead->begin(), shard.dead->end());
    }
  }
  if (!dead.empty()) fresh.append_tombstones(dead);
  // Re-log the still-buffered batches (live points only — a run's
  // dead ids simply aren't carried forward).
  std::vector<std::uint64_t> ids;
  std::vector<float> coords;
  std::vector<float> buf(dims_);
  const auto relog = [&](const Run& run) {
    ids.clear();
    coords.clear();
    const data::PointSet& ps = *run.points;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      const std::uint64_t id = ps.id(p);
      if (run.dead != nullptr && contains(*run.dead, id)) continue;
      ids.push_back(id);
      ps.copy_point(p, buf.data());
      coords.insert(coords.end(), buf.begin(), buf.end());
    }
    if (!ids.empty()) fresh.append_insert(ids, coords);
  };
  for (const Run& run : runs_) relog(run);
  fresh.sync();
  wal_ = std::move(fresh);
  wal_seq_ = seq;
  last_wal_sync_ = std::chrono::steady_clock::now();
}

void MutableIndex::maybe_sync_wal_locked() {
  if (!wal_.has_value() || wal_->frames_since_sync() == 0) return;
  const auto now = std::chrono::steady_clock::now();
  const bool due_count = wal_->frames_since_sync() >= config_.wal_flush_every;
  const bool due_time =
      now - last_wal_sync_ >=
      std::chrono::microseconds(config_.wal_flush_interval_us);
  if (due_count || due_time) {
    wal_->sync();
    last_wal_sync_ = now;
  }
}

// ---------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The one buffer scan of the KNN and radius paths: calls
/// admit(d2, id) for every live run point whose squared distance
/// passes keep(d2), in run order. Distances accumulate in dimension
/// order — the same arithmetic as the SIMD leaf kernel and
/// brute_force_knn — so buffered and tree candidates compare
/// bit-identically and results match a from-scratch build over the
/// live points. The accumulation is blocked over the SoA columns so
/// the compiler vectorizes across points; `dist` holds kScanBlock
/// floats.
template <typename Keep, typename Admit>
void scan_runs(const auto& runs, const float* query, std::size_t dims,
               float* dist, const Keep& keep, const Admit& admit) {
  for (const auto& run : runs) {
    const data::PointSet& ps = *run.points;
    for (std::size_t base = 0; base < ps.size(); base += kScanBlock) {
      const std::size_t len = std::min(kScanBlock, ps.size() - base);
      std::fill_n(dist, len, 0.0f);
      for (std::size_t d = 0; d < dims; ++d) {
        const float q = query[d];
        const float* col = ps.coordinate(d).data() + base;
        for (std::size_t p = 0; p < len; ++p) {
          const float diff = q - col[p];
          dist[p] += diff * diff;
        }
      }
      for (std::size_t p = 0; p < len; ++p) {
        if (!keep(dist[p])) continue;
        const std::uint64_t id = ps.id(base + p);
        if (run.dead != nullptr && contains(*run.dead, id)) continue;
        admit(dist[p], id);
      }
    }
  }
}

/// Forest batch grain: finer than the tree kernels (16 chunks per
/// thread, not 4). The batch ends when the last chunk finishes, and on
/// a box where a background merge thread competes for cores, a fat
/// final chunk on a descheduled straggler stretches the whole batch.
std::uint64_t forest_grain(std::uint64_t n, int threads) {
  return std::clamp<std::uint64_t>(
      n / (static_cast<std::uint64_t>(threads) * 16 + 1), 1, 32);
}

/// Warms every pool thread's scratch before a fan-out, so the warm
/// capacity does not depend on which threads the chunk schedule hands
/// work: heaps for k, distance buffers for a scan block or the widest
/// leaf of any tree.
void prepare_threads(ForestWorkspace& ws, int threads, std::size_t dims,
                     std::size_t k, const auto& trees) {
  std::size_t stride = kScanBlock;
  for (const auto& shard : trees) {
    stride = std::max(stride, shard.tree->leaf_stride());
  }
  ws.batch.prepare(threads, dims, k, stride);
}

/// No tree to skip (offer_forest).
constexpr std::size_t kNoTree = ~std::size_t{0};

/// Feeds w.heap, for the query in w.query, the live candidates of every
/// buffered run and of every tree in `order` except `skip` (a
/// snap.trees index): the buffer scan and the forest fan-out that
/// every forest KNN query runs on its one heap.
void offer_forest(const auto& snap, std::span<const std::size_t> order,
                  std::size_t skip, std::size_t dims, QueryWorkspace& w) {
  scan_runs(
      snap.runs, w.query.data(), dims, w.dist.data(),
      [&](float d2) { return d2 <= w.heap.bound(); },
      [&](float d2, std::uint64_t id) { w.heap.offer(d2, id); });
  const std::span<const float> query(w.query.data(), dims);
  for (const std::size_t t : order) {
    if (t == skip) continue;
    const auto& shard = snap.trees[t];
    shard.tree->offer_knn(query, w.heap, w, dead_ids(shard));
  }
}

/// ws.tree_order = the snapshot's trees, descending by size: the
/// biggest tree tightens the heap's k-th best, which then prunes every
/// later descent, so the small trees of a deep mid-merge forest prune
/// to near-nothing instead of each paying a fresh unbounded descent.
void order_trees(const auto& trees, ForestWorkspace& ws) {
  ws.tree_order.resize(trees.size());
  for (std::size_t t = 0; t < trees.size(); ++t) ws.tree_order[t] = t;
  std::sort(ws.tree_order.begin(), ws.tree_order.end(),
            [&](std::size_t a, std::size_t b) {
              return trees[a].tree->size() > trees[b].tree->size();
            });
}

}  // namespace

void MutableIndex::knn_batch(const data::PointSet& queries, std::size_t k,
                             NeighborTable& results, ForestWorkspace& ws,
                             float radius) const {
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  PANDA_CHECK_MSG(radius >= 0.0f, "radius must be non-negative");
  const auto snap = snapshot();
  results.reset_topk(queries.size(), k);
  if (queries.empty()) return;
  // One chunk-stolen parallel region answers every query end to end on
  // one heap: the buffer scan and then every tree feed it, and each
  // tree skips its dead ids at admission. One fork-join per batch, NOT
  // one per tree: a mid-merge forest is deep (up to fan_in trees per
  // level), and on a loaded box every extra barrier's join tail costs a
  // scheduler round against the background build. Rows are disjoint
  // and the snapshot is immutable, so threads share nothing but the
  // work counter.
  //
  // Trees go in descending size (order_trees). Exact: the heap only
  // ever holds live candidates, so its bound only excludes points that
  // could not enter the final top-k under the (dist², id) order. A
  // finite radius seeds the heap with k sentinels at (radius², 0)
  // before the buffer scan, so the bound prunes from the first
  // candidate on (query_sq_into's contract); they are stripped after
  // extraction.
  order_trees(snap->trees, ws);
  prepare_threads(ws, pool_->size(), dims_, k, snap->trees);
  const float radius2 = radius < kInf ? radius * radius : kInf;
  const bool bounded = radius2 < kInf;
  const std::uint64_t n = queries.size();
  // Large batches run in Morton order, each query into its caller's row
  // (core/batch_order.hpp).
  const std::span<const std::uint64_t> order =
      order_knn_batch(queries, ws.batch);
  parallel::for_chunks(
      *pool_, n, forest_grain(n, pool_->size()), kInlineKnnBatch,
      [&](int tid, std::uint64_t lo, std::uint64_t hi) {
        QueryWorkspace& w = ws.batch.per_thread[static_cast<std::size_t>(tid)];
        answer_in_order(
            order, queries, results, lo, hi, w.query.data(),
            [&](std::uint64_t q) {
              w.heap.reset(k);
              if (bounded) seed_radius_sentinels(w.heap, radius2, 0);
              offer_forest(*snap, ws.tree_order, kNoTree, dims_, w);
              Neighbor* row = results.slot(q).data();
              std::size_t count = w.heap.extract_sorted_into(row);
              if (bounded) {
                count = strip_radius_sentinels(row, count, radius2, 0);
              }
              results.set_count(q, count);
            });
      });
}

void MutableIndex::radius_batch(const data::PointSet& queries,
                                std::span<const float> radii,
                                NeighborTable& results,
                                ForestWorkspace& ws) const {
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(radii.size() == queries.size(),
                  "radius_batch needs one radius per query");
  for (const float radius : radii) {
    PANDA_CHECK_MSG(radius >= 0.0f, "radius must be non-negative");
  }
  const auto snap = snapshot();
  results.reset_rows(queries.size());
  if (queries.empty()) return;
  const std::uint64_t n = queries.size();
  prepare_threads(ws, pool_->size(), dims_, 1, snap->trees);
  BatchWorkspace& batch = ws.batch;
  for (auto& w : batch.per_thread) w.staging.clear();
  if (batch.row_refs.size() < n) batch.row_refs.resize(n);
  // One fork-join per batch, as in knn_batch: each thread answers a
  // query end to end — the buffer scan and every tree append their
  // live rows to its staging buffer, the row is sorted once — and one
  // stitch copies the rows out in query order.
  parallel::for_chunks(
      *pool_, n, forest_grain(n, pool_->size()), kInlineRadiusBatch,
      [&](int tid, std::uint64_t lo, std::uint64_t hi) {
        QueryWorkspace& w = batch.per_thread[static_cast<std::size_t>(tid)];
        const std::span<const float> query(w.query.data(), dims_);
        for (std::uint64_t i = lo; i < hi; ++i) {
          queries.copy_point(i, w.query.data());
          const float r2 = radii[i] * radii[i];
          const std::uint64_t begin = w.staging.size();
          scan_runs(
              snap->runs, query.data(), dims_, w.dist.data(),
              [r2](float d2) { return d2 < r2; },
              [&](float d2, std::uint64_t id) {
                w.staging.push_back(Neighbor{d2, id});
              });
          for (const TreeShard& shard : snap->trees) {
            shard.tree->append_radius(query, radii[i], w, w.staging,
                                      dead_ids(shard));
          }
          batch.close_row(i, tid, begin);
        }
      });
  batch.stitch_rows(n, results);
}

void MutableIndex::self_knn_batch(std::size_t k, NeighborTable& results,
                                  ForestWorkspace& ws) const {
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  // One snapshot serves both the query set and the answers, so the
  // call is exact even while writers race it. The schedule is
  // rank_live's: every tree's packed leaves, then every run's blocks;
  // a live slot's row is its id's rank among the live ids, a dead slot
  // is neither a query nor a row.
  const auto snap = snapshot();
  const Snapshot& s = *snap;
  const LiveRanks ranks = rank_live(s.trees, s.runs);
  results.reset_topk(ranks.live, k);
  if (ranks.live == 0) return;

  // The answers, unit by unit. A tree slot reads its query from the
  // packed block, primes the heap with its home bucket and descends its
  // own tree skipping it (KdTree::offer_self), then feeds the runs and
  // every other tree; a run point is an ordinary forest query. Rows are
  // id ranks, scattered over the table, so each query prefetches the
  // next one's row.
  order_trees(s.trees, ws);
  prepare_threads(ws, pool_->size(), dims_, k, s.trees);
  const std::size_t n_trees = s.trees.size();
  const std::vector<SlotUnit>& units = ranks.units;
  const std::vector<std::uint64_t>& row_of = ranks.row_of;
  const std::uint64_t n_units = units.size();
  parallel::for_chunks(
      *pool_, n_units, forest_grain(n_units, pool_->size()), kInlineKnnBatch,
      [&](int tid, std::uint64_t lo, std::uint64_t hi) {
        QueryWorkspace& w = ws.batch.per_thread[static_cast<std::size_t>(tid)];
        for (std::uint64_t u = lo; u < hi; ++u) {
          const SlotUnit unit = units[u];
          const bool in_tree = unit.container < n_trees;
          const std::size_t home = in_tree ? unit.container : kNoTree;
          for (std::uint32_t j = 0; j < unit.count; ++j) {
            const std::uint64_t row = row_of[unit.base + j];
            if (row == kNoRow) continue;
            std::uint64_t next = kNoRow;
            if (j + 1 < unit.count) {
              next = row_of[unit.base + j + 1];
            } else if (u + 1 < hi && units[u + 1].count > 0) {
              next = row_of[units[u + 1].base];
            }
            if (next != kNoRow) results.prefetch_row(next);
            w.heap.reset(k);
            if (in_tree) {
              const TreeShard& shard = s.trees[home];
              shard.tree->offer_self(unit.part, j, w.heap, w,
                                     dead_ids(shard));
            } else {
              const data::PointSet& ps =
                  *s.runs[unit.container - n_trees].points;
              ps.copy_point(std::size_t{unit.part} * kScanBlock + j,
                            w.query.data());
            }
            offer_forest(s, ws.tree_order, home, dims_, w);
            results.set_count(
                row, w.heap.extract_sorted_into(results.slot(row).data()));
          }
        }
      });
}

data::PointSet MutableIndex::live_points() const {
  const auto snap = snapshot();
  return gather_live(dims_, snap->trees, snap->runs);
}

void MutableIndex::save(const std::string& path) const {
  // Compact-on-save: the artifact is always one packed v4 tree with
  // zero tombstones, built over the pinned snapshot's live points in
  // ascending-id order. The in-memory forest is untouched (save is
  // const and concurrent-safe); Index::open seeds a fresh forest's
  // largest level from the file.
  const data::PointSet live = live_points();
  PANDA_CHECK_MSG(!live.empty(),
                  "cannot save an empty mutable index (insert points first)");
  const KdTree compacted = KdTree::build(live, build_, *pool_);
  compacted.save(path);
}

MutationStats MutableIndex::stats() const {
  MutexLock lock(mutex_);
  MutationStats out;
  out.inserts = inserts_;
  out.erases = erases_;
  out.seals = seals_;
  out.merges = merges_;
  out.compactions = compactions_;
  // order: relaxed — size() gauge; see the hpp.
  out.live_points = live_count_.load(std::memory_order_relaxed);
  out.buffered_points = 0;
  out.tombstones = 0;
  for (const Run& run : runs_) {
    out.buffered_points += run.points->size();
    if (run.dead != nullptr) out.tombstones += run.dead->size();
  }
  for (const TreeShard& shard : trees_) {
    if (shard.dead != nullptr) out.tombstones += shard.dead->size();
  }
  out.trees = trees_.size();
  out.pending_sealed_groups = sealed_groups_.size();
  out.merge_in_flight = seal_busy_ || merge_busy_;
  return out;
}

}  // namespace panda::core
