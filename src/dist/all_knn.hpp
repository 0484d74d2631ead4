// Bulk all-points KNN: the k nearest indexed neighbors of *every*
// point in the distributed dataset (DESIGN.md §7), and the stages 2-5
// core that the routed per-query engine (dist/dist_query.hpp) answers
// each round's owned block with.
//
// Stages 2-5 run on a block of queries this rank answers as owner:
//
//   * stage 2 — batched local KNN into a flat core::NeighborTable (one
//     arena, per-query spans — DESIGN.md §9). When the block is the
//     local points themselves, the self-join kernel
//     (core::KdTree::query_self_batch) runs: the packed leaves are the
//     bucket-contiguous schedule, so co-located queries share descent
//     state and SIMD leaf scans. Every other block runs one
//     query_sq_batch fan-out;
//   * stage 3 — the per-query (r'², k-th id) bound and coalesced
//     per-rank overlap lists;
//   * stages 4/5 — the paper's software pipelining: the block's
//     requests go out in coalescing rounds of batch_size queries, one
//     counted point-to-point message per destination per round, each
//     packing every overlapping ball of the round (dist/wire.hpp
//     KnnRequest records); between rounds the rank answers whatever
//     requests have arrived with one batched radius-limited pass per
//     message and folds each response into its row with a streaming
//     core::merge_topk_into_row. The per-round stage-3/4 message count
//     is O(ranks²), not O(queries × fanout).
//
// For the bulk self-KNN workload stage 1 vanishes: after redistribution
// every rank already holds exactly the points of its own region, so
// each rank's queries are its local points and never move. All scratch
// (workspaces, tables, request and response staging, returned lists) is
// engine-owned and reused, so repeated runs make no per-query
// allocations in the local stages, and stages 4-5 allocate per message
// and per round, never per query or per returned list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/wire.hpp"
#include "net/comm.hpp"

namespace panda::dist {

struct AllKnnConfig {
  /// Neighbors per point. The query point itself is indexed and is
  /// returned as its own 0-distance neighbor — pass k + 1 and drop the
  /// first entry when self-matches are unwanted.
  std::size_t k = 5;
  /// Queries per coalescing round of stages 3-5: each round sends at
  /// most one packed request message per destination rank. A value at
  /// least the block size (SIZE_MAX, say) sends the whole block in one
  /// round.
  std::size_t batch_size = 1024;
};

/// Phase timings and protocol counters for one run of stages 2-5.
/// find_owner has no entry — the stage does not exist in the bulk
/// engine.
struct AllKnnStats {
  double local_knn = 0.0;
  double identify_remote = 0.0;
  double remote_knn = 0.0;
  double merge = 0.0;
  double non_overlapped_comm = 0.0;

  /// Queries this rank answered (the bulk engine: its local point
  /// count).
  std::uint64_t queries_total = 0;
  /// Queries whose r' ball stayed inside this rank's region.
  std::uint64_t queries_local_only = 0;
  /// Queries that needed at least one remote rank.
  std::uint64_t queries_remote = 0;
  /// (query, remote rank) ball overlaps: the KnnRequest records sent,
  /// one per overlap, coalesced into the messages below.
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
  // The routed per-query engine answers each round's owned block
  // through answer_block.
  friend class DistQueryEngine;

  /// Collective: stages 2-5 for `queries`, a block this rank answers
  /// as owner (may be empty; all ranks must call). Row i of `results`
  /// ends as the k nearest indexed neighbors of queries[i] across the
  /// whole distributed dataset. `self` marks the block as
  /// tree.local_points(), whose stage 2 is the self-join kernel.
  /// Timings and counters accumulate into `st`.
  void answer_block(const data::PointSet& queries, bool self,
                    const AllKnnConfig& config, core::NeighborTable& results,
                    AllKnnStats& st);

  /// Stages 2-3 for every query of the block: batched local KNN
  /// (results land in the answer_block table), then per-query (r'²,
  /// k-th id) bounds and coalesced per-rank remote overlap lists.
  struct LocalPass {
    std::vector<float> radius2;
    std::vector<std::uint64_t> bound_id;
    /// remote_queries[r] — indices of block queries whose ball
    /// overlaps rank r's region (empty for r == rank()).
    std::vector<std::vector<std::uint64_t>> remote_queries;
  };
  void local_pass(const data::PointSet& queries, bool self,
                  const AllKnnConfig& config, core::NeighborTable& results,
                  LocalPass& pass, AllKnnStats& st);

  /// Packs the KnnRequest records of the given block query indices
  /// into one coalesced message payload (a view of request_, valid
  /// until the next pack).
  std::span<const std::byte> pack_requests(
      const data::PointSet& queries, const LocalPass& pass,
      std::span<const std::uint64_t> indices);

  /// Answers one packed request payload with one batched
  /// radius-limited pass; returns the packed response (a view of
  /// response_, valid until the next answer).
  std::span<const std::byte> answer_requests(
      std::span<const std::byte> payload, const AllKnnConfig& config,
      AllKnnStats& st);

  /// Folds one packed response payload into the block's result rows
  /// with the streaming stage-5 merge.
  void merge_responses(std::span<const std::byte> payload,
                       core::NeighborTable& results, std::size_t k,
                       AllKnnStats& st);

  /// Stages 3-5 after the local pass: the pipelined coalescing
  /// rounds of counted point-to-point requests and responses.
  void run_pipelined(const data::PointSet& queries,
                     const AllKnnConfig& config, core::NeighborTable& results,
                     LocalPass& pass, AllKnnStats& st);

  net::Comm& comm_;
  const DistKdTree& tree_;

  // Reusable cross-message and cross-run scratch, so stages 4-5
  // allocate per message at most, never per query or per returned
  // list: batch workspaces for the local and remote passes, one
  // request message staged as a query set with its bounds and answered
  // into a result table, one query's coordinates, the packed request
  // and response payloads, the stage-3 pass state, one returned list
  // and the stage-5 merge buffer.
  core::BatchWorkspace local_ws_;
  core::BatchWorkspace remote_ws_;
  data::PointSet remote_queries_;
  std::vector<float> remote_radius2_;
  std::vector<std::uint64_t> remote_bound_id_;
  core::NeighborTable remote_found_;
  std::vector<float> coords_;
  detail::WireWriter request_;
  detail::WireWriter response_;
  LocalPass pass_;
  std::vector<core::Neighbor> returned_;
  std::vector<core::Neighbor> merge_scratch_;
};

}  // namespace panda::dist
