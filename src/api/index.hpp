// The one front door: panda::Index (DESIGN.md §10).
//
// Every search engine in this repository — the single-node
// core::KdTree, the distributed engines over an in-process cluster
// session, and the reference baselines — answers the same three
// questions: k nearest neighbors of a query batch, all neighbors
// within a radius, and the bulk self-KNN of the indexed set. Before
// this facade each engine exposed those questions through its own
// construction path and signature style, so every consumer (examples,
// ml, serve, bench) was written once per engine. panda::Index is the
// single abstract interface they all plug into: engine choice is a
// runtime IndexOptions field, not a compile-time rewrite.
//
// Construction is builder-style:
//
//   IndexOptions opts;                   // engine = Local by default
//   opts.cluster.ranks = 4;              // only read by Engine::Dist
//   auto index = panda::Index::build(points, opts);
//   auto saved = panda::Index::open("tree.panda");  // Local only
//
// The native entry points are NeighborTable-native with caller-owned
// workspaces, exactly like the engines underneath (DESIGN.md §9):
// results land in a reusable flat arena, scratch lives in a reusable
// SearchWorkspace, and warm steady-state calls on the Local adapter
// make zero allocator calls. Convenience shims materialize
// std::vector results for casual callers.
//
// Result contract (identical across every adapter, pinned by
// tests/test_index.cpp): rows are ascending (dist², id) with the
// deterministic tie order of DESIGN.md §5, id-exact against the
// brute-force oracle.
//
// Thread safety: concurrent search calls from multiple threads are
// safe on every adapter provided each caller passes its own
// SearchWorkspace and NeighborTable (the Local adapter's tree is
// immutable and a shared pool hands its worker team to one caller at
// a time — ThreadPool::try_run lets a caller that loses the claim run
// the chunk-self-scheduling batch body inline instead of blocking;
// the Dist adapter serializes its collective session rounds
// internally). The serving layer (serve::IndexBackend +
// serve::QueryService) builds on exactly this contract, one pooled
// scratch per concurrent batch.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/simple_tree.hpp"
#include "core/kdtree.hpp"
#include "core/mutable_index.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "data/storage.hpp"
#include "dist/dist_kdtree.hpp"
#include "net/cluster.hpp"
#include "parallel/thread_pool.hpp"

namespace panda {

/// How Index::build constructs the index and which engine answers.
struct IndexOptions {
  enum class Engine {
    /// Single node: the three-phase parallel core::KdTree build and
    /// the batch query kernels — one pool fan-out of per-query
    /// traversals, and the packed-leaf schedule for self-KNN
    /// (DESIGN.md §3, §9).
    Local,
    /// Distributed: a persistent in-process cluster session
    /// (net::Cluster) builds a dist::DistKdTree once and then answers
    /// every call through the five-stage / coalesced engines
    /// (DESIGN.md §4, §7). `cluster` configures ranks and threads.
    Dist,
    /// Exhaustive linear scan — the correctness oracle. O(n) per
    /// query; intended for tests and small reference runs.
    BruteForce,
    /// Serial reference kd-tree with the FLANN/ANN-style split
    /// policies of the paper's Figure 7 (`simple` selects the
    /// policy). Exact results, baseline-grade performance.
    SimpleTree,
    /// Live-updatable single node: core::MutableIndex, the
    /// logarithmic-method forest of packed kd-trees (DESIGN.md §12).
    /// The only engine whose insert()/erase() succeed — streaming
    /// writes absorb into a buffer and background merges, queries
    /// stay exact and never block on writers. `mutable_config`
    /// shapes the forest.
    Mutable,
  };
  Engine engine = Engine::Local;

  /// Local tree build parameters (Local; also the per-rank local
  /// build of Dist via dist_build.local).
  core::BuildConfig build;

  /// Threads for the engine-owned pool when `pool` is null
  /// (0 = hardware concurrency). Local adapter only: Dist ranks size
  /// their pools from cluster.threads_per_rank, and the baseline
  /// adapters are deliberately serial.
  int threads = 0;
  /// Optional shared thread pool (Local adapter). Successive indexes
  /// built over one pool share a single thread team — the
  /// rebuild-behind-traffic pattern of the serving layer.
  std::shared_ptr<parallel::ThreadPool> pool;

  /// Engine::Dist: cluster shape (ranks, threads per rank, cost
  /// model) of the persistent session.
  net::ClusterConfig cluster;
  /// Engine::Dist: distributed build parameters.
  dist::DistBuildConfig dist_build;
  /// Engine::Dist: queries per pipeline step of the KNN engines.
  std::size_t dist_batch_size = 256;

  /// Engine::SimpleTree: split policy and bucket size.
  baselines::SimpleBuildConfig simple;

  /// Engine::Mutable: write-buffer capacity and merge fan-in of the
  /// logarithmic-method forest; its durable_dir / wal_flush_* fields
  /// switch on crash-safe persistence (DESIGN.md §13).
  core::MutableConfig mutable_config;

  /// Index::open: verify the per-section CRC32C checksums of a v4
  /// index file at open time (detects any on-disk corruption before
  /// the first query, at the cost of streaming the whole file once).
  /// false keeps the zero-copy open O(1) in index size — the header
  /// checksum is still verified, and corruption then surfaces only if
  /// the damaged pages are touched. Checksum mismatches throw
  /// panda::Error naming the corrupt section.
  bool verify_on_open = true;

  /// Engine::Local: approximate RAM the build may use (0 = unlimited).
  /// When the estimated in-RAM build footprint exceeds this budget,
  /// Index::build switches to core::KdTree::build_external — the
  /// out-of-core chunked build streaming into a v4 index file at
  /// `external_index_path` (required then), served memory-mapped.
  std::uint64_t memory_budget_bytes = 0;
  /// Where the external build writes its v4 index file. The file must
  /// outlive the index (its storage is the mapped file).
  std::string external_index_path;
  /// Spill-chunk scratch directory of the external build (removed
  /// when the build finishes). Empty: external_index_path + ".spill".
  std::string external_scratch_dir;
};

/// Per-call search parameters, shared by every adapter.
struct SearchParams {
  /// Neighbors per query (knn_into / self_knn_into). Must be >= 1.
  std::size_t k = 1;
  /// Metric bound for KNN (neighbors satisfy dist² < radius², the
  /// strict convention of DESIGN.md §5); also the uniform radius of
  /// the radius_into convenience overload. Default unbounded.
  float radius = std::numeric_limits<float>::infinity();
  /// Traversal pruning policy, honored by the kd-tree engines (Local,
  /// Dist and Mutable forward it; the baseline adapters are always
  /// exact). The default is the only policy with an exactness
  /// guarantee.
  core::TraversalPolicy policy = core::TraversalPolicy::Exact;
};

/// Facade-level counters of one bulk self-KNN run, aggregated across
/// ranks by the Dist adapter (zero where an engine has no such
/// stage — the Local adapter never sends a message).
struct SearchStats {
  std::uint64_t queries = 0;
  /// Queries whose pruning ball crossed a rank-region boundary.
  std::uint64_t remote_queries = 0;
  /// Coalesced stage-3/4 request messages (DESIGN.md §7).
  std::uint64_t request_messages = 0;
  std::uint64_t request_bytes = 0;
  /// Alpha–beta model cost of the coalesced traffic.
  double model_comm_seconds = 0.0;

  // Mutation counters, filled by the Mutable adapter (lifetime totals
  // of the index at the time of the call; zero on immutable
  // adapters).
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t compactions = 0;
};

/// Caller-owned, reusable scratch for Index searches: grow-only, so a
/// warm workspace makes repeated Local-adapter calls allocation-free.
/// Never share one workspace between concurrent calls.
struct SearchWorkspace {
  core::BatchWorkspace batch;
  /// Uniform-radius staging of the radius_into convenience overload.
  std::vector<float> radii;
  /// Forest-query scratch of the Mutable adapter (per-thread query
  /// workspaces and row-merge buffers). Untouched by other adapters.
  core::ForestWorkspace forest;
};

class Index {
 public:
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  virtual std::size_t dims() const = 0;
  /// Total indexed points (across all ranks for Dist).
  virtual std::uint64_t size() const = 0;
  /// Short adapter name ("local", "dist", "brute-force", ...).
  virtual const char* engine_name() const = 0;

  // -------------------------------------------------------------------
  // Native entry points: flat NeighborTable results, caller-owned
  // workspace (DESIGN.md §9). Tables and workspaces are reusable
  // across calls and adapters.
  // -------------------------------------------------------------------

  /// K nearest indexed neighbors of every query: results row i =
  /// ascending (dist², id) top-k of queries[i] (top-k mode, stride
  /// params.k). queries.dims() must equal dims(); params.k >= 1.
  virtual void knn_into(const data::PointSet& queries,
                        const SearchParams& params,
                        core::NeighborTable& results,
                        SearchWorkspace& ws) = 0;

  /// All indexed neighbors with dist² < radii[i]² of every query:
  /// results row i ascending (dist², id), unbounded count (rows
  /// mode). radii.size() must equal queries.size().
  virtual void radius_into(const data::PointSet& queries,
                           std::span<const float> radii,
                           core::NeighborTable& results,
                           SearchWorkspace& ws) = 0;

  /// Bulk self-KNN of the indexed set: results row i = the k nearest
  /// indexed neighbors of the i-th point of the build PointSet (the
  /// point itself included as its own 0-distance neighbor — pass
  /// k + 1 and drop the first entry when self-matches are unwanted).
  /// Rows are keyed by build position on every adapter; the Dist
  /// adapter routes redistributed answers back by global id.
  virtual void self_knn_into(const SearchParams& params,
                             core::NeighborTable& results,
                             SearchWorkspace& ws,
                             SearchStats* stats = nullptr) = 0;

  /// Persists the index for Index::open. The Local adapter writes its
  /// tree; the Mutable adapter compacts its forest (buffer + trees,
  /// tombstones dropped) into one packed v4 tree first, so the file
  /// round-trips through Index::open under either engine. The other
  /// adapters throw panda::Error.
  virtual void save(const std::string& path) const;

  // -------------------------------------------------------------------
  // Mutations (Engine::Mutable only — DESIGN.md §12).
  // -------------------------------------------------------------------

  /// True when this index accepts insert()/erase() (the Mutable
  /// adapter).
  virtual bool mutable_index() const { return false; }

  /// Inserts a batch of new points. Ids must be unique among the live
  /// set (an erased id may be re-inserted); on a collision the whole
  /// batch is rejected with panda::Error and nothing is inserted.
  /// Visible to every search that starts after insert() returns;
  /// concurrent searches never block. Immutable adapters throw a
  /// typed panda::Error.
  virtual void insert(const data::PointSet& points);

  /// Erases points by global id (unknown ids are ignored); returns
  /// how many were live. Invisible to every search that starts after
  /// erase() returns. Immutable adapters throw a typed panda::Error.
  virtual std::size_t erase(std::span<const std::uint64_t> ids);

  // -------------------------------------------------------------------
  // Convenience shims: internal staging, std::vector results.
  // -------------------------------------------------------------------

  /// Uniform-radius overload of radius_into: every query runs at
  /// params.radius.
  void radius_into(const data::PointSet& queries, const SearchParams& params,
                   core::NeighborTable& results, SearchWorkspace& ws);

  /// Single-query KNN: ascending (dist², id), at most k entries.
  std::vector<core::Neighbor> knn(std::span<const float> query,
                                  std::size_t k);

  /// Single-query fixed-radius search: all neighbors with
  /// dist² < radius², ascending (dist², id).
  std::vector<core::Neighbor> radius_search(std::span<const float> query,
                                            float radius);

  // -------------------------------------------------------------------
  // Construction.
  // -------------------------------------------------------------------

  /// Builds an index over `points` with the engine selected by
  /// `options`. Validates options (throws panda::Error on nonsense —
  /// empty dims, ranks < 1, negative threads) and refuses a NaN or
  /// infinite coordinate with a panda::Error naming the point id and
  /// dimension.
  static std::unique_ptr<Index> build(const data::PointSet& points,
                                      const IndexOptions& options = {});

  /// Storage-view overload: builds over any data::PointStorage
  /// backend — owned, memory-mapped, or spill-chunked. The Local
  /// engine consumes the view directly (and honors
  /// options.memory_budget_bytes, switching to the out-of-core build
  /// when the points exceed it); the other engines materialize a
  /// PointSet first, so they require the collection to fit in RAM.
  /// Coordinates are checked as above.
  static std::unique_ptr<Index> build(const data::PointStorage& points,
                                      const IndexOptions& options = {});

  /// Opens an index saved by save(). The on-disk format is the
  /// core::KdTree format, so `options.engine` must be Local (the
  /// default) or Mutable — a Mutable open seeds the forest's largest
  /// level with the saved tree, ready to absorb new writes on top;
  /// `options.pool` / `options.threads` configure the query pool.
  ///
  /// The file is opened zero-copy (memory-mapped; with
  /// options.verify_on_open = false the open cost is independent of
  /// index size). I/O and format failures throw panda::Error with
  /// KdTree::open_mmap's diagnostic verbatim — a file of any version
  /// other than 4 is refused with "rebuild and re-save the index".
  ///
  /// When `path` is a *directory*, it is opened as a durable
  /// MutableIndex directory (requires options.engine == Mutable):
  /// the committed trees are mapped, the ingest WAL is replayed, and
  /// every acknowledged write from the previous process is back
  /// (DESIGN.md §13).
  static std::unique_ptr<Index> open(const std::string& path,
                                     const IndexOptions& options = {});

 protected:
  Index() = default;
};

}  // namespace panda
