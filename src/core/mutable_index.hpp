// Live-updatable index: the logarithmic method over packed kd-trees
// (DESIGN.md §12).
//
// Every other index in the repository is build-once; the only way to
// absorb new data used to be a full rebuild plus a serving snapshot
// swap. MutableIndex removes that assumption with the classic
// Bentley–Saxe decomposition:
//
//   inserts  — each insert() batch becomes one immutable Run (a copied
//     PointSet, brute-force scanned by queries). When the buffered
//     runs reach MutableConfig::buffer_capacity points they are sealed
//     as a group and a background seal thread compacts them into a
//     level-0 packed kd-tree; a separate background merge thread
//     compacts merge_fan_in trees at one level into one tree at the
//     next (two lanes, so a small seal never queues behind a long
//     level merge and the scanned buffer stays bounded). The forest
//     thus holds
//     O(log(n / capacity)) trees of geometrically growing sizes and
//     every point is rebuilt O(log n) times in total. No insert ever
//     rebuilds the whole index — the full-rebuild stall is gone
//     (bench_mutable pins this).
//
//   erases   — tombstones. Each container (run or tree) carries its
//     own copy-on-write sorted dead-id list, and every scan skips a
//     dead id at admission: the buffer scan before it offers, a tree
//     descent (KdTree::offer_knn / append_radius) once the candidate
//     would enter the heap or row. A dead id never enters the heap, so
//     it never tightens the pruning bound, and results stay exact no
//     matter how tombstone-heavy the forest gets. Per-container (not
//     global) dead sets are what make erase-then-reinsert of the same
//     id correct: the old copy is dead in its old container, the new
//     copy is live in its new one.
//
//   queries  — lock-free. Writers publish an immutable Snapshot
//     (runs + tree shards) through one atomic<shared_ptr> store;
//     queries pin exactly one snapshot for the whole batch. One
//     parallel::for_chunks region answers each query end to end. A
//     KNN query runs one heap through the buffer scan and every tree
//     in descending size, so the k-th best so far prunes each later
//     tree; a radius query appends every container's live rows and
//     sorts the row once. Both follow the deterministic (dist², id)
//     total order of DESIGN.md §5 (one fork-join per batch, KNN and
//     radius alike, not one per tree, so a deep mid-merge forest costs
//     no extra barriers). Buffer scans
//     and the SIMD leaf kernel accumulate distances in the same
//     dimension order, so results are bit-identical to a
//     from-scratch build over the live points — tests/
//     test_mutable_index.cpp pins id-exactness against an
//     incrementally-maintained brute-force oracle after every
//     mutation, and bench_mutable digest-gates it.
//
// Thread safety: any number of concurrent query callers (each with its
// own ForestWorkspace/NeighborTable); mutations are serialized
// internally and may run concurrently with queries — a query never
// blocks on a writer or on the merge thread. Background seal/merge
// builds never touch the shared pool: they run inline on the merge
// thread (a private size-1 build pool), so a query batch always gets
// the full pool team and maintenance can take at most one thread's
// share of the machine while it churns — bench_mutable gates the
// interference at p99-during <= 2x quiesced p99.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/id_set.hpp"
#include "core/kdtree.hpp"
#include "core/wal.hpp"
#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {

/// Shape of the logarithmic method (facade knob: IndexOptions::
/// mutable_config).
struct MutableConfig {
  /// Buffered points that trigger a background seal into a level-0
  /// tree. Smaller = cheaper buffer scans but more frequent merges.
  std::size_t buffer_capacity = 1024;
  /// Trees at one level that compact into one tree at the next
  /// (>= 2). Smaller = fewer trees per query but more merge work.
  std::uint32_t merge_fan_in = 4;
  /// Crash-safe mode (DESIGN.md §13): when non-empty, the index owns
  /// this directory — every mutation batch is WAL-logged before it is
  /// acknowledged, sealed/merged trees are persisted as checksummed
  /// v4 files, and a MANIFEST names the committed state. Reopening
  /// the same directory recovers every acknowledged write (replaying
  /// the WAL's valid prefix past a torn tail). Empty = in-memory
  /// only, no durability (the pre-existing behavior).
  std::string durable_dir;
  /// Group commit: fsync the WAL once per this many frames (1 =
  /// fsync before every acknowledgement — full power-loss durability;
  /// the default amortizes the ~ms fsync over many batches).
  /// Acknowledged writes survive process kill (kill -9) in every
  /// setting, because the frame is write()n before the ack and the
  /// page cache outlives the process; the flush cadence only bounds
  /// power-loss exposure, so the default trades a ~50 ms power-loss
  /// window for ingest throughput within a small factor of WAL-off
  /// (bench_mutable gates >= 0.5x).
  std::size_t wal_flush_every = 256;
  /// Also fsync when this much time passed since the last sync (checked
  /// at the next append; an idle log is synced by the destructor).
  std::uint64_t wal_flush_interval_us = 50000;
};

/// Mutation-side counters (monotonic since construction) plus a gauge
/// of the current forest shape. stats() snapshots are consistent.
struct MutationStats {
  std::uint64_t inserts = 0;  // points accepted by insert()
  std::uint64_t erases = 0;   // live ids actually erased
  std::uint64_t seals = 0;    // buffer groups compacted to level 0
  std::uint64_t merges = 0;   // level merges completed
  std::uint64_t compactions = 0;  // explicit compact() calls
  std::uint64_t live_points = 0;
  /// Points still run-buffered (unsealed, or sealed and awaiting the
  /// background build), dead entries included.
  std::uint64_t buffered_points = 0;
  std::uint64_t tombstones = 0;       // dead entries still in containers
  std::uint64_t trees = 0;            // forest trees right now
  std::uint64_t pending_sealed_groups = 0;
  bool merge_in_flight = false;
};

/// Caller-owned, grow-only scratch for MutableIndex queries — one per
/// concurrent caller, reusable across calls (the forest analogue of
/// BatchWorkspace; SearchWorkspace embeds one). Every pool thread's
/// slots are warmed before each fan-out. Nothing here scales with the
/// index: self_knn_batch's row keys and schedule are per call and
/// freed on return, because a serving process keeps its workspace
/// alive and grow-only scratch would sit in its resident set.
struct ForestWorkspace {
  /// One QueryWorkspace per pool thread: a thread drives each query of
  /// its chunk through the buffer scan and every tree on the same heap,
  /// query copy and distance buffer, and stages radius rows for the
  /// one stitch (BatchWorkspace::stitch_rows).
  BatchWorkspace batch;
  std::vector<std::size_t> tree_order;  // trees descending by size
};

class MutableIndex {
 public:
  /// An empty live index of `dims` dimensions.
  MutableIndex(std::size_t dims, const MutableConfig& config,
               const BuildConfig& build,
               std::shared_ptr<parallel::ThreadPool> pool);
  /// Seeds the forest with an already-built tree at its size-matched
  /// level (the Index::open path: a saved v4 file becomes the largest
  /// level and new writes stack on top). The seed's ids must be
  /// unique.
  MutableIndex(KdTree seed, const MutableConfig& config,
               const BuildConfig& build,
               std::shared_ptr<parallel::ThreadPool> pool);
  ~MutableIndex();

  MutableIndex(const MutableIndex&) = delete;
  MutableIndex& operator=(const MutableIndex&) = delete;

  std::size_t dims() const { return dims_; }
  /// Live (inserted and not erased) points.
  // order: relaxed — size() is a gauge; callers that need the count
  // coherent with a snapshot's contents read stats() or pin a
  // snapshot instead.
  std::uint64_t size() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  // -------------------------------------------------------------------
  // Mutations (serialized internally; safe concurrently with queries).
  // -------------------------------------------------------------------

  /// Inserts a batch of points. Ids must not collide with any live id
  /// (or repeat within the batch) and every coordinate must be finite —
  /// otherwise throws panda::Error and neither logs nor accepts any of
  /// the batch; an erased id may be re-inserted.
  /// The points are visible to every query batch that starts after
  /// insert() returns.
  void insert(const data::PointSet& points);

  /// Erases by global id; unknown ids are ignored. Returns how many
  /// were live. Erased points are invisible to every query batch that
  /// starts after erase() returns.
  std::size_t erase(std::span<const std::uint64_t> ids);

  /// Synchronously compacts the whole forest (and buffer) into one
  /// packed tree with zero tombstones, after draining background
  /// merges. Queries keep serving the old snapshot throughout.
  void compact();

  /// Blocks until no background seal/merge is queued or running. The
  /// buffer keeps its unsealed runs (quiesce is about merge activity,
  /// not about emptying the write side).
  void quiesce();

  // -------------------------------------------------------------------
  // Queries (lock-free: pin one snapshot, never block on writers).
  // -------------------------------------------------------------------

  /// K nearest live neighbors of every query, top-k mode rows of
  /// ascending (dist², id) — bit-identical to a fresh build over the
  /// live points. A finite metric `radius` keeps only neighbors with
  /// dist² < radius² and prunes with that bound from the first
  /// candidate on (KdTree::query_sq_into's contract); it must be >= 0.
  void knn_batch(const data::PointSet& queries, std::size_t k,
                 NeighborTable& results, ForestWorkspace& ws,
                 TraversalPolicy policy = TraversalPolicy::Exact,
                 float radius = std::numeric_limits<float>::infinity()) const;

  /// All live neighbors with dist² < radii[i]² (rows mode, ascending),
  /// answered in the same single fork-join as knn_batch.
  void radius_batch(const data::PointSet& queries,
                    std::span<const float> radii, NeighborTable& results,
                    ForestWorkspace& ws) const;

  /// Bulk self-KNN of the live set: row i answers the i-th live point
  /// in ascending id order (the only stable ordering a mutating index
  /// can offer; equals build position when ids were inserted
  /// ascending). A join over the forest's own packed leaves (DESIGN.md
  /// §12.7): trees in descending size, leaf by leaf, each live slot
  /// reads its query from the packed block, primes its heap with its
  /// home bucket and descends its own tree (KdTree::offer_self), then
  /// feeds the runs and every other tree; buffered run points follow as
  /// ordinary forest queries. A slot's row is its id's rank among the
  /// live ids, from one radix sort of (id, schedule position) pairs;
  /// that per-call scratch (about 40 bytes per live point) is freed on
  /// return. No live-set copy is made.
  void self_knn_batch(std::size_t k, NeighborTable& results,
                      ForestWorkspace& ws) const;

  /// The live points, ascending by id (the self_knn_batch row order).
  /// Gathered from the same snapshot a query batch would pin.
  data::PointSet live_points() const;

  /// Persists the state as of the call: gathers the live points from
  /// the current snapshot, builds one packed tree (zero tombstones,
  /// ascending-id point order), and saves it as a v4 file — the
  /// compact-on-save contract of Index::save. The in-memory forest is
  /// untouched; Index::open seeds a new forest from the file.
  void save(const std::string& path) const;

  MutationStats stats() const;

  /// Durable mode: non-empty after a recovery that found a torn WAL
  /// tail (the Wal::replay diagnostic — informational; the valid
  /// prefix was applied). Empty otherwise.
  const std::string& recovery_diagnostic() const {
    return recovery_diagnostic_;
  }

 private:
  /// Sorted dead-id list, copy-on-write: erase() publishes a new list,
  /// pinned snapshots keep reading the old one.
  using IdList = std::vector<std::uint64_t>;

  /// One immutable insert batch, brute-force scanned by queries until
  /// a background seal packs it into a level-0 tree.
  struct Run {
    std::shared_ptr<const data::PointSet> points;
    std::shared_ptr<const IdList> dead;  // null = none
  };

  /// One forest tree plus its sorted id set (tombstone lookup) and
  /// dead list.
  struct TreeShard {
    std::shared_ptr<const KdTree> tree;
    std::uint32_t level = 0;
    std::shared_ptr<const IdList> ids;
    std::shared_ptr<const IdList> dead;  // null = none
    /// Durable mode: sequence number of this tree's on-disk file
    /// (tree-<seq>.panda); 0 = not persisted (in-memory mode).
    std::uint64_t file_seq = 0;
  };

  /// What queries pin: one immutable view of the whole forest.
  struct Snapshot {
    std::vector<Run> runs;
    std::vector<TreeShard> trees;
  };

  // order: acquire — pairs with publish_locked()'s release store; a
  // pinned snapshot's runs/trees (built outside any lock) must be
  // fully visible to the query thread that dereferences them.
  std::shared_ptr<const Snapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  // All *_locked members require mutex_ (compiler-enforced under
  // clang -Wthread-safety; DESIGN.md §14).
  void publish_locked() PANDA_REQUIRES(mutex_);
  bool has_work_locked() const PANDA_REQUIRES(mutex_);
  int overfull_level_locked() const PANDA_REQUIRES(mutex_);
  void tombstone_locked(std::uint64_t id) PANDA_REQUIRES(mutex_);
  /// Appends every live point of the current state to `out` (and its
  /// id to `ids` when non-null). Order: runs first, then trees.
  void gather_live_locked(data::PointSet& out) const PANDA_REQUIRES(mutex_);
  std::uint32_t level_for_size(std::uint64_t points) const;

  void seal_loop();
  void merge_loop();
  /// The slow halves of the background lanes: claimed work is built
  /// outside the lock, so both must be entered unlocked.
  void do_seal(std::vector<Run> claimed, std::uint64_t file_seq)
      PANDA_EXCLUDES(mutex_);
  void do_level_merge(std::uint32_t level, std::vector<TreeShard> claimed,
                      std::uint64_t file_seq) PANDA_EXCLUDES(mutex_);

  // -------------------------------------------------------------------
  // Durability (DESIGN.md §13) — all no-ops when durable_dir is empty.
  // -------------------------------------------------------------------

  bool durable() const { return !config_.durable_dir.empty(); }
  std::string manifest_path() const;
  std::string tree_path(std::uint64_t seq) const;
  std::string wal_path(std::uint64_t seq) const;

  /// Ctor-time setup, before the background threads start: fresh dirs
  /// get an empty MANIFEST plus wal-1; dirs with a MANIFEST recover
  /// (load the committed trees, replay the WAL's valid prefix, sweep
  /// uncommitted orphan files).
  void init_durable() PANDA_EXCLUDES(mutex_);
  void recover_durable() PANDA_REQUIRES(mutex_);
  /// Recovery's live set: every committed tree's ids, with the copies
  /// the WAL's leading Tombstones frame (`tombstones`) names marked
  /// dead, oldest copy first. Throws if two trees hold an id live.
  void live_from_trees_locked(IdList tombstones) PANDA_REQUIRES(mutex_);
  /// Every MANIFEST change after the first (seed, seal, level merge,
  /// compaction): rotate the WAL, replace the MANIFEST, delete the old
  /// log. So the committed log's Tombstones frame always lists exactly
  /// the dead copies the committed trees hold.
  void commit_locked() PANDA_REQUIRES(mutex_);
  /// Atomically replaces MANIFEST with the current committed state
  /// (trees_ file_seq/level, wal_seq_, next_file_seq_).
  void write_manifest_locked() PANDA_REQUIRES(mutex_);
  /// A fresh wal-<seq> seeded with the forest's dead ids (one
  /// Tombstones frame) and the still-buffered runs (one Insert frame
  /// each), fsynced. Keeps the WAL proportional to the buffer, not to
  /// history.
  void rotate_wal_locked() PANDA_REQUIRES(mutex_);

  /// Shared apply paths: insert()/erase() log then apply; recovery
  /// replays by applying without logging.
  void apply_insert_locked(const data::PointSet& points)
      PANDA_REQUIRES(mutex_);
  std::vector<std::uint64_t> apply_erase_locked(
      std::span<const std::uint64_t> ids) PANDA_REQUIRES(mutex_);
  /// Group commit: fsync when wal_flush_every frames accumulated or
  /// wal_flush_interval_us elapsed since the last sync.
  void maybe_sync_wal_locked() PANDA_REQUIRES(mutex_);

  /// The KNN engine behind knn_batch: one for_chunks region answers
  /// every query end to end on one heap (buffer scan + every tree),
  /// bounded by `radius2` when finite. `results` must already be reset
  /// to top-k mode.
  void knn_rows(const data::PointSet& queries, std::size_t k, float radius2,
                const Snapshot& snap, TraversalPolicy policy,
                NeighborTable& results, ForestWorkspace& ws) const;

  std::size_t dims_;
  MutableConfig config_;
  BuildConfig build_;
  std::shared_ptr<parallel::ThreadPool> pool_;
  /// Background seal/merge builds run on this size-1 pool — i.e.
  /// inline on the (deprioritized) merge thread — never on the shared
  /// pool, so maintenance cannot steal the query batch kernels' team.
  /// Synchronous rebuilds (compact(), save()) still use pool_.
  parallel::ThreadPool merge_build_pool_{1};

  /// The writer mutex (DESIGN.md §12/§14): every mutable member below
  /// that carries PANDA_GUARDED_BY(mutex_) — buffer runs, seal/merge
  /// lanes, the live-id set, counters, and the whole durable-mode
  /// block — is reachable only while it is held.
  mutable Mutex mutex_;
  CondVar seal_cv_;   // seal thread parks here
  CondVar merge_cv_;  // level-merge thread parks here
  CondVar idle_cv_;   // quiesce()/compact() park here
  bool stop_ PANDA_GUARDED_BY(mutex_) = false;
  bool seal_busy_ PANDA_GUARDED_BY(mutex_) = false;
  bool merge_busy_ PANDA_GUARDED_BY(mutex_) = false;

  std::vector<Run> open_runs_ PANDA_GUARDED_BY(mutex_);
  /// Total points across open runs.
  std::size_t open_points_ PANDA_GUARDED_BY(mutex_) = 0;
  std::deque<std::vector<Run>> sealed_groups_ PANDA_GUARDED_BY(mutex_);
  std::vector<TreeShard> trees_ PANDA_GUARDED_BY(mutex_);
  /// Every live id, in one flat open-addressing set (DESIGN.md §12.6):
  /// insert admission (duplicate rejection) and erase (is the id live
  /// at all?). Which container holds an id is the per-container sorted
  /// lists' question, not this set's. Sized once for a seeded or
  /// recovered forest; grows by doubling past a load of 3/4.
  FlatIdSet live_ PANDA_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> live_count_{0};

  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;

  std::uint64_t inserts_ PANDA_GUARDED_BY(mutex_) = 0;
  std::uint64_t erases_ PANDA_GUARDED_BY(mutex_) = 0;
  std::uint64_t seals_ PANDA_GUARDED_BY(mutex_) = 0;
  std::uint64_t merges_ PANDA_GUARDED_BY(mutex_) = 0;
  std::uint64_t compactions_ PANDA_GUARDED_BY(mutex_) = 0;

  /// Durable-mode state (unused otherwise). wal_ lives under mutex_
  /// (the WAL itself is externally synchronized — see core/wal.hpp);
  /// file sequence numbers are allocated under mutex_ at claim time so
  /// background builds can write tree-<seq>.panda outside the lock.
  std::optional<Wal> wal_ PANDA_GUARDED_BY(mutex_);
  std::uint64_t wal_seq_ PANDA_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_file_seq_ PANDA_GUARDED_BY(mutex_) = 1;
  std::chrono::steady_clock::time_point last_wal_sync_
      PANDA_GUARDED_BY(mutex_){};
  /// Written once during ctor recovery, read-only afterwards — not
  /// guarded (the accessor runs lock-free post-construction).
  std::string recovery_diagnostic_;

  /// Two background lanes, LSM-style: seals (small, frequent level-0
  /// builds) must never queue behind a level merge (large, rare) —
  /// otherwise sealed groups pile up during a long merge and every
  /// query brute-scans the backlog. The lanes compose under mutex_:
  /// do_seal only pops sealed_groups_.front() and appends a level-0
  /// tree; do_level_merge splices by tree pointer, so trees sealed
  /// mid-merge survive its publish.
  std::thread seal_thread_;
  std::thread merge_thread_;
};

}  // namespace panda::core
