// Distributed fixed-radius search: prune by ball, scatter, scan,
// gather, merge — in batch_size-bounded exchange rounds. Local scans
// run through the batched flat-table radius kernel
// (core::KdTree::query_radius_batch): one pass per incoming payload
// instead of one traversal call per request, with engine-owned
// reusable staging (DESIGN.md §9). Results land in a rows-mode
// core::NeighborTable, appended in query order as rounds complete.
#include "dist/radius_query.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/wire.hpp"

namespace panda::dist {

using core::Neighbor;

void DistRadiusEngine::run_into(const data::PointSet& queries,
                                const RadiusQueryConfig& config,
                                core::NeighborTable& results,
                                RadiusQueryBreakdown* breakdown) {
  PANDA_CHECK_MSG(config.radius >= 0.0f, "radius must be non-negative");
  if (!queries.empty()) {
    PANDA_CHECK_MSG(queries.dims() == tree_.dims(),
                    "query dimensionality mismatch");
  }
  const int ranks = comm_.size();
  const std::size_t dims = tree_.dims();
  const float radius2 = config.radius * config.radius;
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  RadiusQueryBreakdown bd;
  WallTimer watch;

  results.reset_rows(queries.size());
  if (scan_queries_.dims() != dims) {
    scan_queries_ = data::PointSet(dims);
  }

  auto exchange = [&](std::vector<detail::WireWriter>& writers) {
    std::vector<std::vector<std::byte>> rows(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      rows[static_cast<std::size_t>(r)] =
          writers[static_cast<std::size_t>(r)].take();
    }
    watch.reset();
    auto received = comm_.alltoallv(rows);
    bd.non_overlapped_comm += watch.seconds();
    return received;
  };

  // Round count must agree across ranks (the exchanges are
  // collectives), so ranks with fewer queries ride along empty; a batch
  // near SIZE_MAX (one round) must not wrap it to zero.
  const std::uint64_t my_rounds =
      queries.size() / batch + (queries.size() % batch != 0 ? 1 : 0);
  watch.reset();
  const std::uint64_t rounds =
      comm_.allreduce<std::uint64_t>(my_rounds, net::ReduceOp::Max);
  bd.non_overlapped_comm += watch.seconds();

  std::vector<std::size_t> fanout(queries.size(), 0);
  std::vector<std::uint64_t> scan_seqs;
  std::vector<float> q(dims);
  // Ball-pruning scratch, reused by every query of the call.
  std::vector<int> targets;
  std::vector<float> offsets;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::size_t begin =
        std::min<std::size_t>(queries.size(), round * batch);
    const std::size_t end =
        std::min<std::size_t>(queries.size(), begin + batch);

    // Prune with the known radius, then ship {seq, coords} to every
    // intersecting rank (self rows ride the same exchange).
    watch.reset();
    std::vector<detail::WireWriter> outgoing(
        static_cast<std::size_t>(ranks));
    for (std::size_t i = begin; i < end; ++i) {
      queries.copy_point(i, q.data());
      tree_.global_tree().ranks_in_ball(q, radius2, targets, offsets);
      fanout[i] = targets.size();
      bd.requests_sent += targets.size();
      for (const int target : targets) {
        auto& writer = outgoing[static_cast<std::size_t>(target)];
        writer.put<std::uint64_t>(i);
        writer.put_span(std::span<const float>(q));
      }
    }
    bd.find_ranks += watch.seconds();
    const auto requests_in = exchange(outgoing);

    // Scan the local tree once per incoming payload: the whole request
    // block runs through the batched radius kernel.
    std::vector<detail::WireWriter> responses(
        static_cast<std::size_t>(ranks));
    for (int s = 0; s < ranks; ++s) {
      detail::WireReader reader(requests_in[static_cast<std::size_t>(s)]);
      scan_queries_.clear();
      scan_seqs.clear();
      while (!reader.done()) {
        const auto seq = reader.get<std::uint64_t>();
        reader.get_into(std::span<float>(q));
        scan_queries_.push_point(q, seq);
        scan_seqs.push_back(seq);
      }
      if (scan_seqs.empty()) continue;
      if (scan_radii_.size() < scan_seqs.size()) {
        scan_radii_.resize(scan_seqs.size());
      }
      std::fill(scan_radii_.begin(),
                scan_radii_.begin() +
                    static_cast<std::ptrdiff_t>(scan_seqs.size()),
                config.radius);
      watch.reset();
      tree_.local_tree().query_radius_batch(
          scan_queries_,
          std::span<const float>(scan_radii_.data(), scan_seqs.size()),
          comm_.pool(), scan_found_, scan_ws_);
      bd.local_scan += watch.seconds();
      bd.queries_owned += scan_seqs.size();
      auto& writer = responses[static_cast<std::size_t>(s)];
      for (std::size_t j = 0; j < scan_seqs.size(); ++j) {
        writer.put<std::uint64_t>(scan_seqs[j]);
        detail::append_neighbors(writer, scan_found_[j]);
      }
    }
    const auto responses_in = exchange(responses);

    // Merge: per query, responses from all contacted ranks arrive as
    // sorted runs within this round; concatenate, sort, and append the
    // finished rows to the flat table in query order.
    watch.reset();
    if (round_rows_.size() < end - begin) round_rows_.resize(end - begin);
    for (std::size_t j = 0; j < end - begin; ++j) round_rows_[j].clear();
    for (int s = 0; s < ranks; ++s) {
      detail::WireReader reader(responses_in[static_cast<std::size_t>(s)]);
      while (!reader.done()) {
        const auto seq = reader.get<std::uint64_t>();
        const auto found = detail::read_neighbors(reader);
        auto& out = round_rows_[seq - begin];
        out.insert(out.end(), found.begin(), found.end());
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      auto& out = round_rows_[i - begin];
      // Establish the full (dist², id) order: concatenation order is
      // per-round arrival order, which varies with rank count and
      // batch size.
      if (fanout[i] > 1) {
        std::sort(out.begin(), out.end());
      }
      results.append_row(i, out);
    }
    bd.merge += watch.seconds();
  }

  if (breakdown != nullptr) *breakdown = bd;
}

}  // namespace panda::dist
