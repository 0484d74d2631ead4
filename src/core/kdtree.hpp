// The PANDA local kd-tree (Sections III-A ii–iv and III-C).
//
// Construction runs in three phases, exactly as the paper describes:
//   1. data-parallel breadth-first top levels — all pool threads
//      cooperate on one node at a time: sampled-variance dimension
//      choice, sampled-histogram approximate median (counted with the
//      SIMD sub-interval searcher), parallel partition;
//   2. thread-parallel depth-first subtrees — once the frontier holds
//      at least threads x switch_factor branches, each subtree is
//      built serially by one pool thread;
//   3. SIMD packing — leaf buckets (<= bucket_size points) are copied
//      into padded, aligned, bucket-contiguous SoA storage so querying
//      scans them with vector code.
//
// Node storage is split hot/cold (DESIGN.md §9): traversal reads a
// flat array of 12-byte HotNode records (split, dim, child pair) laid
// out with sibling children adjacent, while leaf bucket metadata
// (packed offset + live count) lives in a separate cold LeafInfo
// array touched only when a bucket is actually scanned. Querying
// implements Algorithm 1 as one explicit-stack iterative descent with
// near-child-first ordering, lower-bound pruning, and a branch-free
// push of each far child. A small sink decides what a leaf
// keeps, which bound prunes and when to stop, so the same loop answers
// KNN (a bounded candidate heap), radius search (rows), the
// leaf-budgeted approximate query, and the live forest's per-tree
// queries (a shared heap that skips dead ids). Two pruning policies
// are provided (see TraversalPolicy); the default is exact. Radius-
// limited KNN (the r of Algorithm 1) supports the distributed
// remote-KNN stage.
//
// Result and scratch memory are caller-owned on the native entry
// points: query_sq_into / query_radius_into take a QueryWorkspace, the
// batch entry points take a NeighborTable + BatchWorkspace — repeated
// calls with warm state make zero allocator calls (DESIGN.md §9). The
// classic std::vector returns remain as thin compatibility shims.
//
// Thread safety: a built tree is immutable, and every query entry
// point is const — concurrent queries from any number of threads are
// safe (the serving frontend depends on this). All mutable query state
// lives in the caller's QueryWorkspace/BatchWorkspace (the shims use a
// per-thread workspace internally); QueryStats out-parameters are
// caller-owned, so concurrent callers must pass distinct instances
// (the batch entry points already accumulate per-thread).
//
// Storage backing (DESIGN.md §11): the query kernels read the tree
// through std::span views. A built or load()ed tree owns its arrays;
// an open_mmap()ed tree binds the same views straight into a mapped
// v4 index file — open cost is one mmap plus header validation, no
// matter how many points the index holds; the verified open also
// checks every section CRC and every node and leaf record. Either way
// the views are immutable after construction, so KdTree is move-only
// (a copy would alias the owner's buffers). The live forest reads its
// trees slot by slot from the packed leaves (copy_slot).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/mmap_file.hpp"
#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "data/storage.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {

struct BuildConfig {
  /// How the split dimension is chosen. MaxVariance is the paper's
  /// choice (costs up to 18 % more construction time, improves query
  /// time by up to 43 % — Section III-A1); RoundRobin cycles the
  /// dimensions by depth, the cheap classical alternative measured in
  /// bench_ablation. Here one sampling pass scores every dimension, and
  /// a pool-of-1 MaxVariance build takes 1.41–1.60x RoundRobin's time
  /// on 10-D points and 0.98–1.13x on 3-D points: the branch-free split
  /// kernels made selection cheaper and left the Welford pass as it
  /// was (1.22–1.37x and 0.93–1.03x before them; 2.51–2.69x and
  /// 1.24–1.30x with one pass per dimension; DESIGN.md §3).
  enum class DimensionPolicy { MaxVariance, RoundRobin };
  DimensionPolicy dim_policy = DimensionPolicy::MaxVariance;

  /// Leaf capacity; the paper found 32 best (Section III-A1).
  std::uint32_t bucket_size = 32;
  /// Sample size for variance-based dimension selection.
  std::uint32_t variance_samples = 256;
  /// Sample size for the local histogram median (paper: 1024).
  std::uint32_t median_samples = 1024;
  /// Switch to thread-parallel subtrees at >= threads * this factor
  /// frontier branches. The paper quotes 10; with dynamically
  /// scheduled subtree tasks a factor of 4 balances as well and spends
  /// fewer breadth-first levels on sub-threshold (serial) splits.
  std::uint32_t thread_switch_factor = 4;
  /// Subtrees at or below this size use the exact positional median
  /// (select_kth, core/median.hpp) instead of sampling; each pool
  /// thread's selection buffer holds twice this many entries.
  std::uint64_t exact_median_threshold = 4096;
  /// Frontier nodes smaller than this are split serially during the
  /// breadth-first phase: below it, cooperative (all-thread) histogram
  /// and partition passes cost more in pool synchronization than the
  /// work itself.
  std::uint64_t serial_split_threshold = 65536;
  /// Histogram binning via the SIMD sub-interval searcher (true) or
  /// plain binary search (false) — the paper's 42 % ablation.
  bool use_subinterval_search = true;
};

/// Out-of-core build parameters (KdTree::build_external).
struct ExternalBuildOptions {
  /// Approximate peak bytes of point + tree data held in RAM at once.
  /// The build splits the input into enough on-disk chunks that one
  /// chunk's in-RAM subtree build fits the budget. 0 means unlimited
  /// (degenerates to an in-RAM build that is then saved and mapped).
  std::uint64_t memory_budget_bytes = 0;
  /// Directory for the spill chunk files (scratch, removed when the
  /// build finishes). Empty: out_path + ".spill".
  std::string scratch_dir;
  /// Where the v4 index file is written (required). The returned tree
  /// is the zero-copy mapped view of this file.
  std::string out_path;
};

/// Build-phase wall-clock seconds, keyed like Figure 5(b).
struct BuildBreakdown {
  double data_parallel = 0.0;
  double thread_parallel = 0.0;
  double simd_packing = 0.0;

  double total() const {
    return data_parallel + thread_parallel + simd_packing;
  }
};

struct TreeStats {
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t points = 0;
  std::uint32_t max_depth = 0;
  double mean_leaf_fill = 0.0;  // points per leaf / bucket_size
};

enum class TraversalPolicy {
  /// Arya–Mount incremental lower bound (per-dimension offsets): a
  /// true lower bound, guarantees exact results.
  Exact,
  /// The update printed in Algorithm 1 (d' = sqrt(d^2 + off^2) with no
  /// same-dimension replacement). When a root-to-node path splits twice
  /// on one dimension the bound counts that dimension twice, so it can
  /// exceed the true distance and over-prune; bench_ablation [4]
  /// measures its recall and nodes per query against Exact (DESIGN.md
  /// §5).
  PaperFormula,
};

// QueryStats lives in core/query_workspace.hpp (the workspace carries
// the per-thread accumulator); it is re-exported here for callers.

/// Batches at or below these sizes run inline on the caller, in the
/// tree kernels and the forest alike (parallel::for_chunks'
/// inline_max): a pool fan-out (wake + join of every worker) costs
/// more than the queries themselves at serving micro-batch sizes.
/// Radius queries get the lower cutoff: a fixed-radius scan visits
/// many buckets and returns unbounded rows, so a micro-batch of them
/// is heavy enough to be worth the fan-out.
inline constexpr std::uint64_t kInlineKnnBatch = 64;
inline constexpr std::uint64_t kInlineRadiusBatch = 16;
/// KNN batches of at least this many queries run in the Morton order
/// of their own bounding box (core/batch_order.hpp); smaller ones keep
/// the caller's order.
inline constexpr std::uint64_t kOrderedKnnBatch = 1024;

class KdTree {
 public:
  KdTree() = default;

  // The query kernels read through span views into this tree's own
  // arrays (or its mapping); copying would alias the source's buffers,
  // so the tree is move-only. Moves keep the views valid: vector moves
  // preserve the heap buffers the spans point into.
  KdTree(const KdTree&) = delete;
  KdTree& operator=(const KdTree&) = delete;
  KdTree(KdTree&&) = default;
  KdTree& operator=(KdTree&&) = default;

  /// Builds from resident `points` using all threads of `pool`. The
  /// points are copied into packed storage; the original may be
  /// discarded. Throws panda::Error when `points` is not resident
  /// (use build_external for spill-backed storage).
  static KdTree build(const data::PointStorage& points,
                      const BuildConfig& config, parallel::ThreadPool& pool,
                      BuildBreakdown* breakdown = nullptr);

  /// Compatibility shim: builds from a PointSet through a stack view.
  static KdTree build(const data::PointSet& points, const BuildConfig& config,
                      parallel::ThreadPool& pool,
                      BuildBreakdown* breakdown = nullptr);

  /// Out-of-core build (DESIGN.md §11): routes `points` through a
  /// sampled top-level splitter into on-disk chunks sized to
  /// options.memory_budget_bytes, builds one in-RAM subtree per chunk,
  /// and stitches the results directly into the v4 on-disk layout at
  /// options.out_path. Returns the memory-mapped view of that file.
  /// Exact queries on the result are id-identical to an in-RAM build
  /// of the same points. `points` may be any storage backend; only
  /// the chunk protocol is used.
  static KdTree build_external(const data::PointStorage& points,
                               const BuildConfig& config,
                               parallel::ThreadPool& pool,
                               const ExternalBuildOptions& options);

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return stats_.points; }
  bool empty() const { return stats_.points == 0; }
  const TreeStats& stats() const { return stats_; }
  const BuildConfig& config() const { return config_; }

  // -------------------------------------------------------------------
  // Native (allocation-free) entry points. Results land in caller
  // memory; scratch lives in a caller-owned workspace.
  // -------------------------------------------------------------------

  /// k nearest neighbors of `query` under the squared-distance bound
  /// `radius2`, written sorted ascending by (dist², id) into `out`
  /// (which must hold at least k slots). Returns the result count.
  ///
  /// `radius_bound_id` resolves candidates exactly *at* the bound: a
  /// point is admitted iff (dist², id) < (radius2, radius_bound_id)
  /// under the deterministic tie order (DESIGN.md §5). The default of
  /// 0 keeps the classical strict dist² < radius2 semantics; the
  /// distributed engines pass the owner's k-th neighbor id so remote
  /// ranks return equal-distance candidates with smaller ids.
  std::size_t query_sq_into(std::span<const float> query, std::size_t k,
                            float radius2, QueryWorkspace& ws,
                            std::span<Neighbor> out,
                            TraversalPolicy policy = TraversalPolicy::Exact,
                            QueryStats* stats = nullptr,
                            std::uint64_t radius_bound_id = 0) const;

  /// Feeds the caller's heap with this tree's candidates for `query`,
  /// pruning by the heap's current k-th best (dist², id) bound, and
  /// skips every id in `dead` (sorted ascending) at admission, so dead
  /// ids never tighten the bound. The heap is neither reset nor
  /// drained: the live forest (core::MutableIndex) runs one heap
  /// through its write buffer and every tree. `ws` lends only its
  /// offsets, stacks and distance buffer, so `heap` may be ws.heap.
  void offer_knn(std::span<const float> query, KnnHeap& heap,
                 QueryWorkspace& ws,
                 std::span<const std::uint64_t> dead = {},
                 TraversalPolicy policy = TraversalPolicy::Exact,
                 QueryStats* stats = nullptr) const;

  /// Batched KNN over `queries` into a flat NeighborTable (top-k mode,
  /// stride k), the bulk entry point of the all-KNN engine and the
  /// serving backend: one parallel::for_chunks fan-out answers query i
  /// with query_sq_into into row i (DESIGN.md §9.2). A batch of at
  /// least kOrderedKnnBatch queries runs in the Morton order of its
  /// bounding box (core/batch_order.hpp), so consecutive descents share
  /// hot nodes and buckets; every query still runs on its own reset
  /// heap and writes row i, so rows and stats are identical to
  /// per-query query_sq whatever the order of `queries`. Warm calls
  /// allocate nothing: the order's keys and sort scratch live in `ws`
  /// (16 bytes per query of the largest ordered batch).
  ///
  /// radius2s/radius_bound_ids give per-query pruning bounds with the
  /// query_sq_into semantics above (both empty = unbounded; when
  /// radius2s is non-empty both spans must have queries.size()
  /// entries).
  void query_sq_batch(const data::PointSet& queries, std::size_t k,
                      parallel::ThreadPool& pool, NeighborTable& results,
                      BatchWorkspace& ws,
                      std::span<const float> radius2s = {},
                      std::span<const std::uint64_t> radius_bound_ids = {},
                      TraversalPolicy policy = TraversalPolicy::Exact,
                      QueryStats* stats = nullptr) const;

  /// Bulk self-KNN over the indexed points themselves: row i of
  /// `results` holds the k nearest indexed neighbors of build-time
  /// point i (the point itself included as its own 0-distance
  /// neighbor). Results are id-identical to query_sq_batch over the
  /// original build PointSet, but the schedule is the packed leaves
  /// themselves: queries run leaf by leaf through offer_self, so
  /// consecutive queries are spatial neighbours whose descents share
  /// hot nodes and buckets. Rows land scattered (slot order is not
  /// build order), so the loop prefetches the next query's row one
  /// query ahead. This is stage 2 of the bulk all-KNN engine
  /// (DESIGN.md §7, §9).
  void query_self_batch(std::size_t k, parallel::ThreadPool& pool,
                        NeighborTable& results, BatchWorkspace& ws,
                        QueryStats* stats = nullptr) const;

  /// Packed slot range of one leaf: its points occupy slots
  /// [begin, begin + count) of packed_ids(); padding follows them.
  struct LeafSlots {
    std::uint64_t begin = 0;
    std::uint32_t count = 0;
  };

  /// The packed leaves as the self-join schedule (query_self_batch and
  /// the live forest's MutableIndex::self_knn_batch) and the live
  /// forest's gather: leaves in packed order, their slot ranges, and
  /// the global id of every packed slot (padding slots included).
  std::size_t leaf_count() const { return leaves_.size(); }
  LeafSlots leaf_slots(std::size_t leaf) const {
    return {leaves_[leaf].packed_begin, leaves_[leaf].count};
  }
  std::span<const std::uint64_t> packed_ids() const { return packed_ids_; }

  /// Copies the coordinates of slot `j` (below its count) of `leaf`
  /// from the packed block into out[0..dims()).
  void copy_slot(std::size_t leaf, std::uint32_t j, float* out) const;

  /// The per-slot self query of both self-joins: copies the point in
  /// slot `j` of `leaf` into ws.query (copy_slot), primes `heap` with
  /// that (L1-hot) home bucket, then descends from the root skipping
  /// it. Ids in `dead` (sorted ascending) are skipped at admission, as
  /// in offer_knn. The heap is neither reset nor drained, and ws.query
  /// keeps the query for the caller's other containers.
  void offer_self(std::size_t leaf, std::uint32_t j, KnnHeap& heap,
                  QueryWorkspace& ws,
                  std::span<const std::uint64_t> dead = {},
                  QueryStats* stats = nullptr) const;

  /// Batched metric-radius KNN into a flat NeighborTable: row i holds
  /// the k nearest neighbors of queries[i] within `radius`. A
  /// query_sq_batch with a uniform bound: large batches run in Morton
  /// order with the same rows.
  void query_batch(const data::PointSet& queries, std::size_t k,
                   parallel::ThreadPool& pool, NeighborTable& results,
                   BatchWorkspace& ws,
                   float radius = std::numeric_limits<float>::infinity(),
                   TraversalPolicy policy = TraversalPolicy::Exact,
                   QueryStats* stats = nullptr) const;

  /// Appends every neighbor within metric `radius` (squared distance
  /// strictly less than radius²) whose id is not in `dead` (sorted
  /// ascending) to `out`, after the rows already there and unsorted.
  /// With warm capacity the call makes zero allocations.
  void append_radius(std::span<const float> query, float radius,
                     QueryWorkspace& ws, std::vector<Neighbor>& out,
                     std::span<const std::uint64_t> dead = {},
                     QueryStats* stats = nullptr) const;

  /// All neighbors within metric `radius` (squared distance strictly
  /// less than radius²), written to `out` sorted ascending, unbounded
  /// count. `out` is cleared first; with warm capacity the call makes
  /// zero allocations.
  void query_radius_into(std::span<const float> query, float radius,
                         QueryWorkspace& ws, std::vector<Neighbor>& out,
                         QueryStats* stats = nullptr) const;

  /// Batched fixed-radius search into a flat NeighborTable (rows
  /// mode): row i holds all neighbors of queries[i] with dist² <
  /// radii[i]², ascending (dist², id). radii must have queries.size()
  /// entries.
  void query_radius_batch(const data::PointSet& queries,
                          std::span<const float> radii,
                          parallel::ThreadPool& pool, NeighborTable& results,
                          BatchWorkspace& ws,
                          QueryStats* stats = nullptr) const;

  // -------------------------------------------------------------------
  // Single-query convenience: same semantics, results materialized as
  // std::vector (scratch comes from an internal per-thread workspace).
  // -------------------------------------------------------------------

  /// k nearest neighbors of `query` (dims() floats) within metric
  /// radius `radius` (default unbounded). Results are sorted ascending
  /// by squared distance and carry the global ids of the indexed
  /// points. Fewer than k results are returned when the tree holds
  /// fewer than k points within the radius.
  std::vector<Neighbor> query(std::span<const float> query, std::size_t k,
                              float radius =
                                  std::numeric_limits<float>::infinity(),
                              TraversalPolicy policy = TraversalPolicy::Exact,
                              QueryStats* stats = nullptr) const;

  /// As query(), but the bound is given as a squared distance (see
  /// query_sq_into for the radius_bound_id tie semantics).
  std::vector<Neighbor> query_sq(std::span<const float> query, std::size_t k,
                                 float radius2,
                                 TraversalPolicy policy =
                                     TraversalPolicy::Exact,
                                 QueryStats* stats = nullptr,
                                 std::uint64_t radius_bound_id = 0) const;

  /// FLANN-style approximate query: the traversal stops opening new
  /// leaves after `max_leaf_visits` buckets have been scanned, trading
  /// recall for bounded latency (the mode FLANN calls "checks"). The
  /// near-child-first descent order of Algorithm 1 makes the first
  /// buckets the most promising, so recall degrades gracefully; with a
  /// large enough budget results equal the exact search. Results are
  /// sorted ascending and come with no exactness guarantee.
  std::vector<Neighbor> query_approx(std::span<const float> query,
                                     std::size_t k,
                                     std::uint64_t max_leaf_visits,
                                     QueryStats* stats = nullptr) const;

  /// Vector shim over query_radius_into. This is the fixed-radius
  /// primitive of BD-CATS-style clustering ([11] in the paper) — an
  /// easier problem than KNN because the pruning bound is known up
  /// front.
  std::vector<Neighbor> query_radius(std::span<const float> query,
                                     float radius,
                                     QueryStats* stats = nullptr) const;

  /// Number of tree nodes a root-to-leaf descent would visit for this
  /// query point (the tree depth along the query's path).
  std::uint32_t path_depth(std::span<const float> query) const;

  /// Leaf-scan scratch slots a query on this tree needs (the
  /// leaf_stride of QueryWorkspace::prepare): the padded bucket
  /// capacity, bounded by the slot count so a loaded header's config
  /// cannot size it past the index itself.
  std::size_t leaf_stride() const;

  /// Appends every indexed point's global id to `out`, leaf-contiguous
  /// order — read straight from the packed id array, no coordinates
  /// copied. This is how every tree entering a MutableIndex forest
  /// (seed, recovery, seal, merge, compaction) lists its ids
  /// (DESIGN.md §12.6).
  void export_ids(std::vector<std::uint64_t>& out) const;

  /// Persists the built tree (hot/cold node arrays + packed leaf
  /// storage) so that a reused index — the common case the paper
  /// designs for — need not be rebuilt across process runs. Writes
  /// format v4: every section at a 64-byte-aligned offset recorded in
  /// the header, so open_mmap can serve the file zero-copy, plus a
  /// CRC32C per section and over the header (DESIGN.md §13). The file
  /// is replaced atomically (tmp + fsync + rename): a crash mid-save
  /// leaves the previous index intact. Throws panda::Error with path,
  /// syscall, and errno text on I/O failure.
  void save(const std::string& path) const;

  /// Loads a tree written by save() into owned memory: a copy out of
  /// a fully verified open_mmap() mapping (header + every section
  /// checksum), so queries on the loaded tree return bit-identical
  /// results. Throws panda::Error on I/O or format errors, including
  /// every version other than 4 ("rebuild and re-save the index").
  static KdTree load(const std::string& path);

  /// Opens a v4 index zero-copy: maps the file, validates the header
  /// (magic, version, dims, section offsets/alignment against the
  /// file size, header CRC), and binds the query views straight into
  /// the map. With verify_sections (the default) every section CRC is
  /// checked too, and one linear pass checks the records a CRC cannot
  /// vouch for (verify_records) — a full sequential read; pass false
  /// to keep open cost independent of index size and trust the
  /// mapping (the header CRC is always checked). Throws panda::Error
  /// on any mismatch, naming the offending header field, section or
  /// record.
  static KdTree open_mmap(const std::string& path,
                          bool verify_sections = true);

  /// True when the tree's arrays live in a mapped file rather than
  /// owned memory.
  bool mapped() const { return mapping_ != nullptr; }

 private:
  friend class KdTreeBuilder;
  friend class ExternalBuilder;

  /// Hot traversal record: everything the descent loop reads. Sibling
  /// children occupy adjacent slots (left = child, right = child + 1)
  /// so one index names both and a line fetch covers the pair.
  struct HotNode {
    float split = 0.0f;
    std::uint32_t dim = kLeafMarker;  // kLeafMarker => leaf
    /// Internal node: left child index (right child = child + 1).
    /// Leaf: index into leaves_.
    std::uint32_t child = 0;
  };
  static_assert(sizeof(HotNode) == 12);

  /// Cold leaf metadata, read only when a bucket is scanned. `pad`
  /// names what would be tail padding and is always 0, so the v4
  /// record stays 16 bytes and a saved leaves section holds no
  /// indeterminate bytes.
  struct LeafInfo {
    std::uint64_t packed_begin = 0;  // first slot in packed_
    std::uint32_t count = 0;         // number of live points
    std::uint32_t pad = 0;
  };

  static constexpr std::uint32_t kLeafMarker = 0xffffffffu;

  bool is_leaf(const HotNode& n) const { return n.dim == kLeafMarker; }

  /// "No node" sentinel for skip_node below (never a valid index:
  /// nodes_ is bounded well under 2^32 - 1 entries).
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  // The descent and its leaf scan, templated on the sink that decides
  // what a leaf keeps, which bound prunes and when to stop (the sinks
  // and every instantiation live in kdtree_query.cpp).

  /// The one exact descent: iterative explicit-stack traversal from
  /// the root with a branch-free far-child push; visit order, pruning
  /// decisions and stats are identical to the classic recursion.
  template <typename Sink>
  void search_exact(const float* query, Sink& sink, QueryWorkspace& ws,
                    QueryStats& stats, std::uint32_t skip_node = kNoNode) const;
  /// Algorithm 1 as printed (TraversalPolicy::PaperFormula).
  template <typename Sink>
  void search_paper(const float* query, Sink& sink, QueryWorkspace& ws,
                    QueryStats& stats) const;
  template <typename Sink>
  void scan_leaf(const LeafInfo& leaf, const float* query, Sink& sink,
                 QueryWorkspace& ws, QueryStats& stats) const;

  /// The verified open's record pass (DESIGN.md §11.2): child links,
  /// split dimensions, leaf references, bucket counts and slot ranges,
  /// the point total and every build row, in one linear pass. Throws
  /// panda::Error naming `path` and the first bad record.
  void verify_records(const std::string& path) const;

  /// Owned backing arrays — populated by build()/load(), empty on a
  /// mapped tree. Only rebind_owned() and the builders touch these;
  /// everything else reads the span views below.
  struct OwnedArrays {
    std::vector<HotNode> nodes;
    std::vector<LeafInfo> leaves;
    std::vector<std::uint32_t> leaf_nodes;
    AlignedVector<float> packed;
    std::vector<std::uint64_t> packed_ids;
    std::vector<std::uint64_t> packed_local_idx;
  };

  /// Points the query views at the owned arrays. Builders and load()
  /// call this once after filling own_.
  void rebind_owned() {
    nodes_ = own_.nodes;
    leaves_ = own_.leaves;
    leaf_nodes_ = own_.leaf_nodes;
    packed_ = std::span<const float>(own_.packed.data(), own_.packed.size());
    packed_ids_ = own_.packed_ids;
    packed_local_idx_ = own_.packed_local_idx;
  }

  std::size_t dims_ = 0;
  BuildConfig config_;
  OwnedArrays own_;
  /// Keeps a mapped index file alive for the views below; null on an
  /// owned tree.
  std::shared_ptr<common::MmapFile> mapping_;
  // Query views — into own_ or into mapping_. Packed leaf storage:
  // leaf with packed_begin s0 and padded stride
  // st = simd::padded_count(count) occupies floats
  // [s0*dims, (s0+st)*dims), coordinate d of bucket point i at
  // packed_[s0*dims + d*st + i]; packed_ids_[s0+i] is its global id.
  std::span<const HotNode> nodes_;
  std::span<const LeafInfo> leaves_;
  /// Hot node index of each leaf record (leaf_nodes_[leaves index]).
  std::span<const std::uint32_t> leaf_nodes_;
  std::span<const float> packed_;
  std::span<const std::uint64_t> packed_ids_;
  /// Build-time point index of each packed slot (padding slots hold
  /// ~0): query_self_batch writes its result rows through this map.
  std::span<const std::uint64_t> packed_local_idx_;
  TreeStats stats_;
};

}  // namespace panda::core
