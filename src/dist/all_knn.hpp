// Bulk all-points KNN: the k nearest indexed neighbors of *every*
// point in the distributed dataset (DESIGN.md §7).
//
// The paper's science workloads (Daya Bay outliers, cosmology halo
// density, plasma energetic regions) query the dataset against itself,
// and for that workload the five-stage protocol over-pays twice:
//
//   * stage 1 (find owner) vanishes — after redistribution every rank
//     already holds exactly the points of its own region, so each
//     rank's queries are its local points and never move;
//   * stages 3/4 coalesce — instead of one remote request per
//     (query, rank) pair, every ball from one source rank that
//     overlaps one destination ships inside a single packed message
//     (dist/wire.hpp KnnRequest records), answered by one batched
//     radius-limited pass, so the per-round stage-3/4 message count is
//     O(ranks²) rather than O(queries × fanout).
//
// Local KNN runs through the self-join batch kernel
// (core::KdTree::query_self_batch): the packed leaves are the
// bucket-contiguous schedule, so co-located queries share descent
// state and SIMD leaf scans with no descent or ordering phase at all.
// Results live in a flat core::NeighborTable (one arena, per-query
// spans — DESIGN.md §9); remote responses fold into the owner's table
// row with a streaming core::merge_topk_into_row as they arrive. All
// scratch (workspaces, tables, request staging) is engine-owned and
// reused, so repeated runs make no steady-state allocations in the
// local stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/kdtree.hpp"
#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "dist/dist_kdtree.hpp"
#include "net/comm.hpp"

namespace panda::dist {

struct AllKnnConfig {
  /// Neighbors per point. The query point itself is indexed and is
  /// returned as its own 0-distance neighbor — pass k + 1 and drop the
  /// first entry when self-matches are unwanted.
  std::size_t k = 5;
  /// Queries per coalescing round (Pipelined transport): each round
  /// sends at most one packed request message per destination rank.
  std::size_t batch_size = 1024;
  enum class Mode { Collective, Pipelined };
  Mode mode = Mode::Pipelined;
  core::TraversalPolicy policy = core::TraversalPolicy::Exact;
};

/// Phase timings and protocol counters for one run. find_owner has no
/// entry — the stage does not exist in the bulk engine.
struct AllKnnStats {
  double local_knn = 0.0;
  double identify_remote = 0.0;
  double remote_knn = 0.0;
  double merge = 0.0;
  double non_overlapped_comm = 0.0;

  /// Queries this rank answered (= its local point count).
  std::uint64_t queries_total = 0;
  /// Queries whose r' ball stayed inside this rank's region.
  std::uint64_t queries_local_only = 0;
  /// Queries that needed at least one remote rank.
  std::uint64_t queries_remote = 0;
  /// (query, remote rank) ball overlaps — the per-query engine would
  /// have sent one request message per overlap.
  std::uint64_t ball_overlaps = 0;
  /// Coalesced stage-3/4 request messages actually sent.
  std::uint64_t request_messages = 0;
  /// Coalesced stage-4/5 response messages actually sent.
  std::uint64_t response_messages = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  /// Alpha–beta model time of the coalesced exchanges
  /// (net::CostParams): what the traffic would cost on the wire.
  double model_comm_seconds = 0.0;
};

class AllKnnEngine {
 public:
  AllKnnEngine(net::Comm& comm, const DistKdTree& tree)
      : comm_(comm), tree_(tree) {}

  /// Collective. Answers the bulk self-KNN query into the flat
  /// `results` table: row i holds the k nearest indexed neighbors of
  /// tree.local_points()[i] (global ids, ascending by (dist², id)),
  /// exact against the full distributed dataset. All ranks must call.
  /// The table is caller-owned and reusable — repeated runs at steady
  /// sizes reuse its arena.
  void run_into(const AllKnnConfig& config, core::NeighborTable& results,
                AllKnnStats* stats = nullptr);

 private:
  /// Stages 2-3 for every local point: self-join batched local KNN
  /// (results land in the run_into table), then per-query (r'², k-th
  /// id) bounds and coalesced per-rank remote overlap lists.
  struct LocalPass {
    std::vector<float> radius2;
    std::vector<std::uint64_t> bound_id;
    /// remote_queries[r] — indices of local queries whose ball
    /// overlaps rank r's region (empty for r == rank()).
    std::vector<std::vector<std::uint64_t>> remote_queries;
  };
  void local_pass(const AllKnnConfig& config, core::NeighborTable& results,
                  LocalPass& pass, AllKnnStats& st);

  /// Packs the KnnRequest records of the given local query indices
  /// into one coalesced message payload.
  std::vector<std::byte> pack_requests(
      const LocalPass& pass, std::span<const std::uint64_t> indices) const;

  /// Answers one packed request payload with one batched
  /// radius-limited pass; returns the packed response.
  std::vector<std::byte> answer_requests(std::span<const std::byte> payload,
                                         const AllKnnConfig& config,
                                         AllKnnStats& st);

  /// Folds one packed response payload into the local result rows with
  /// the streaming stage-5 merge.
  void merge_responses(std::span<const std::byte> payload,
                       core::NeighborTable& results, std::size_t k,
                       AllKnnStats& st);

  void run_collective(const AllKnnConfig& config,
                      core::NeighborTable& results, LocalPass& pass,
                      AllKnnStats& st);
  void run_pipelined(const AllKnnConfig& config, core::NeighborTable& results,
                     LocalPass& pass, AllKnnStats& st);

  net::Comm& comm_;
  const DistKdTree& tree_;

  // Reusable cross-run scratch: batch workspaces for the local and
  // remote passes, the remote-answer staging (query set + result
  // table), the stage-3 pass state, and the stage-5 merge buffer.
  core::BatchWorkspace local_ws_;
  core::BatchWorkspace remote_ws_;
  core::NeighborTable remote_found_;
  LocalPass pass_;
  std::vector<core::Neighbor> merge_scratch_;
};

}  // namespace panda::dist
