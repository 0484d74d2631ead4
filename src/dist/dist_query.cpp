// Five-stage distributed KNN: stage 1 and the return trip in bounded
// exchange rounds around the all-KNN engine's stages 2-5.
#include "dist/dist_query.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/wire.hpp"

namespace panda::dist {

void DistQueryEngine::run_into(const data::PointSet& queries,
                               const DistQueryConfig& config,
                               core::NeighborTable& results,
                               DistQueryBreakdown* breakdown) {
  PANDA_CHECK_MSG(config.k >= 1, "k must be >= 1");
  if (!queries.empty()) {
    PANDA_CHECK_MSG(queries.dims() == tree_.dims(),
                    "query dimensionality mismatch");
  }
  const auto ranks = static_cast<std::size_t>(comm_.size());
  const std::size_t dims = tree_.dims();
  const std::size_t n = queries.size();
  const AllKnnConfig stages{.k = config.k, .batch_size = config.batch_size};
  AllKnnStats st;
  double find_owner = 0.0;
  WallTimer watch;

  std::vector<detail::WireWriter> writers(ranks);
  auto exchange = [&] {
    std::vector<std::vector<std::byte>> rows(ranks);
    for (std::size_t r = 0; r < ranks; ++r) rows[r] = writers[r].take();
    watch.reset();
    auto received = comm_.alltoallv(rows);
    st.non_overlapped_comm += watch.seconds();
    return received;
  };

  // The round count must agree across ranks (every exchange is a
  // collective), so ranks with fewer queries ride along empty.
  watch.reset();
  const std::uint64_t rounds = comm_.allreduce<std::uint64_t>(
      (n + kRoundQueries - 1) / kRoundQueries, net::ReduceOp::Max);
  st.non_overlapped_comm += watch.seconds();

  results.reset_topk(n, config.k);
  if (block_.dims() != dims) block_ = data::PointSet(dims);
  std::vector<float> q(dims);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::size_t begin = std::min<std::size_t>(n, round * kRoundQueries);
    const std::size_t end = std::min<std::size_t>(n, begin + kRoundQueries);

    // Stage 1: forward {seq, coords} to each query's owner; self-owned
    // queries ride the same exchange.
    watch.reset();
    for (std::size_t i = begin; i < end; ++i) {
      queries.copy_point(i, q.data());
      auto& writer = writers[static_cast<std::size_t>(
          tree_.global_tree().owner_of(q))];
      writer.put<std::uint64_t>(i);
      writer.put_span(std::span<const float>(q));
    }
    find_owner += watch.seconds();
    const auto forwarded = exchange();

    // The owned block: every query forwarded here this round, its id
    // the sequence number at its origin.
    block_.clear();
    origins_.clear();
    for (std::size_t s = 0; s < ranks; ++s) {
      detail::WireReader reader(forwarded[s]);
      while (!reader.done()) {
        const auto seq = reader.get<std::uint64_t>();
        reader.get_into(std::span<float>(q));
        block_.push_point(q, seq);
        origins_.push_back(static_cast<int>(s));
      }
    }

    stages_.answer_block(block_, /*self=*/false, stages, block_rows_, st);

    // Return each finished row to its origin.
    for (std::size_t j = 0; j < block_.size(); ++j) {
      auto& writer = writers[static_cast<std::size_t>(origins_[j])];
      writer.put<std::uint64_t>(block_.id(j));
      detail::append_neighbors(writer, block_rows_[j]);
    }
    const auto returned = exchange();
    for (std::size_t s = 0; s < ranks; ++s) {
      detail::WireReader reader(returned[s]);
      while (!reader.done()) {
        const auto seq = reader.get<std::uint64_t>();
        results.set_count(seq,
                          detail::read_neighbors_into(reader,
                                                      results.slot(seq)));
      }
    }
  }

  if (breakdown != nullptr) {
    *breakdown = {.find_owner = find_owner,
                  .local_knn = st.local_knn,
                  .identify_remote = st.identify_remote,
                  .remote_knn = st.remote_knn,
                  .merge = st.merge,
                  .non_overlapped_comm = st.non_overlapped_comm,
                  .queries_owned = st.queries_total,
                  .queries_sent_remote = st.queries_remote,
                  .remote_requests = st.ball_overlaps};
  }
}

}  // namespace panda::dist
