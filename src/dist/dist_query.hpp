// The five-stage distributed KNN query protocol (paper Section III-C):
//   1. find owner        — route each query to the rank owning its
//                          region via the replicated global tree;
//   2. local KNN         — the owner answers from its local tree; the
//                          k-th squared distance becomes the radius r';
//   3. identify remote   — ranks whose region intersects ball(q, r')
//                          (all ranks while fewer than k candidates);
//   4. remote KNN        — radius-limited KNN on each such rank;
//   5. merge             — the owner merges candidate lists to the
//                          final top-k and returns them to the origin.
//
// The engine runs in bounded exchange rounds: each rank forwards at
// most kRoundQueries of its queries per round ({seq, coords} to their
// owners in one alltoallv), the owners answer the round's owned block
// with stages 2-5 of the bulk all-KNN engine (dist/all_knn.hpp: one
// batched local pass, coalesced per-rank-pair remote traffic, a
// streaming merge), and each finished row goes back to its origin in
// one more alltoallv. Stages 3-5 are the paper's software pipelining:
// counted point-to-point messages through net::Mailbox, one per
// destination per coalescing round of batch_size queries, drained
// while the next round is packed, so communication overlaps
// computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/neighbor_table.hpp"
#include "data/point_set.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_kdtree.hpp"
#include "net/comm.hpp"

namespace panda::dist {

struct DistQueryConfig {
  std::size_t k = 5;
  /// Queries per coalescing round of stages 3-5; a value at least the
  /// owned block (SIZE_MAX, say) sends each block in one round.
  std::size_t batch_size = 256;
};

/// Query-phase wall-clock seconds and protocol counters, the querying
/// side of Figure 5(c). Counter semantics: queries_owned counts the
/// queries this rank processed as owner (each query has exactly one
/// owner); queries_sent_remote those whose ball crossed >= 1 region
/// boundary; remote_requests the (query, remote rank) pairs contacted.
struct DistQueryBreakdown {
  double find_owner = 0.0;
  double local_knn = 0.0;
  double identify_remote = 0.0;
  double remote_knn = 0.0;
  double merge = 0.0;
  double non_overlapped_comm = 0.0;
  std::uint64_t queries_owned = 0;
  std::uint64_t queries_sent_remote = 0;
  std::uint64_t remote_requests = 0;
};

class DistQueryEngine {
 public:
  /// Queries each rank forwards per exchange round: bounds the round's
  /// staging (forward rows, owned block, returned rows) whatever the
  /// query count.
  static constexpr std::size_t kRoundQueries = 16384;

  DistQueryEngine(net::Comm& comm, const DistKdTree& tree)
      : comm_(comm), tree_(tree), stages_(comm, tree) {}

  /// Collective. Answers this rank's `queries` (may be empty; all
  /// ranks must still call) into the flat `results` table (top-k mode,
  /// row i = query i, ascending (dist², id)), exact against the full
  /// distributed dataset. The caller-owned table is reusable across
  /// runs; the engine may be reused with different configurations over
  /// the same tree.
  void run_into(const data::PointSet& queries, const DistQueryConfig& config,
                core::NeighborTable& results,
                DistQueryBreakdown* breakdown = nullptr);

 private:
  net::Comm& comm_;
  const DistKdTree& tree_;
  /// Stages 2-5 of every owned block, with their reusable scratch.
  AllKnnEngine stages_;
  /// Reusable round staging: the owned block (each point's id is its
  /// sequence number at its origin), its rows, and each row's origin
  /// rank.
  data::PointSet block_;
  core::NeighborTable block_rows_;
  std::vector<int> origins_;
};

}  // namespace panda::dist
