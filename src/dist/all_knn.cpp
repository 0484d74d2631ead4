// Stages 2-5 on a query block: batched local pass, coalesced remote
// rounds (DESIGN.md §7). The bulk all-KNN engine runs them on the local
// points; DistQueryEngine on each round's owned block.
#include "dist/all_knn.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/wire.hpp"
#include "net/cost_model.hpp"
#include "parallel/parallel_for.hpp"

namespace panda::dist {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Tags of the coalesced request and response messages.
constexpr int kTagBulkRequest = 0x5A20;
constexpr int kTagBulkResponse = 0x5A21;

using core::Neighbor;

}  // namespace

void AllKnnEngine::local_pass(const data::PointSet& queries, bool self,
                              const AllKnnConfig& config,
                              core::NeighborTable& results, LocalPass& pass,
                              AllKnnStats& st) {
  const std::size_t n = queries.size();
  WallTimer watch;

  // Stage 2. The self-join kernel needs the block to be the local
  // points (the packed leaves are the schedule); every other block
  // takes the generic batched path.
  watch.reset();
  if (self) {
    tree_.local_tree().query_self_batch(config.k, comm_.pool(), results,
                                        local_ws_);
  } else {
    tree_.local_tree().query_sq_batch(queries, config.k, comm_.pool(),
                                      results, local_ws_);
  }
  st.local_knn += watch.seconds();

  // Stage 3: the (r'², k-th id) bound and the coalesced overlap
  // lists. Per-thread scratch with *static* (contiguous, ascending)
  // ranges: concatenating the scratch lists in thread order keeps
  // every remote_queries[r] ascending by query index, which the
  // pipelined round slicing relies on. Each range reuses one rank list
  // and one offsets buffer for all its queries.
  watch.reset();
  const auto ranks = static_cast<std::size_t>(comm_.size());
  pass.radius2.assign(n, kInf);
  pass.bound_id.assign(n, ~std::uint64_t{0});
  pass.remote_queries.resize(ranks);
  for (auto& list : pass.remote_queries) list.clear();
  struct Scratch {
    std::vector<std::vector<std::uint64_t>> per_rank;
    std::vector<int> remotes;
    std::vector<float> offsets;
    std::uint64_t overlaps = 0;
    std::uint64_t local_only = 0;
    std::uint64_t remote = 0;
  };
  std::vector<Scratch> scratch(
      static_cast<std::size_t>(comm_.pool().size()));
  for (auto& s : scratch) s.per_rank.assign(ranks, {});
  parallel::parallel_for_static(
      comm_.pool(), 0, n, [&](int tid, std::uint64_t a, std::uint64_t b) {
        Scratch& mine = scratch[static_cast<std::size_t>(tid)];
        std::vector<float> q(tree_.dims());
        for (std::uint64_t i = a; i < b; ++i) {
          const auto candidates = results[i];
          if (candidates.size() == config.k) {
            pass.radius2[i] = candidates.back().dist2;
            pass.bound_id[i] = candidates.back().id;
          }
          if (comm_.size() == 1) continue;
          queries.copy_point(i, q.data());
          auto& remotes = mine.remotes;
          tree_.global_tree().ranks_in_closed_ball(q, pass.radius2[i],
                                                   remotes, mine.offsets);
          std::erase(remotes, comm_.rank());
          mine.overlaps += remotes.size();
          if (remotes.empty()) {
            mine.local_only += 1;
          } else {
            mine.remote += 1;
          }
          for (const int r : remotes) {
            mine.per_rank[static_cast<std::size_t>(r)].push_back(i);
          }
        }
      });
  for (std::size_t r = 0; r < ranks; ++r) {
    for (const Scratch& s : scratch) {
      pass.remote_queries[r].insert(pass.remote_queries[r].end(),
                                    s.per_rank[r].begin(),
                                    s.per_rank[r].end());
    }
  }
  for (const Scratch& s : scratch) {
    st.ball_overlaps += s.overlaps;
    st.queries_local_only += s.local_only;
    st.queries_remote += s.remote;
  }
  if (comm_.size() == 1) st.queries_local_only += n;
  st.identify_remote += watch.seconds();
  st.queries_total += n;
}

std::span<const std::byte> AllKnnEngine::pack_requests(
    const data::PointSet& queries, const LocalPass& pass,
    std::span<const std::uint64_t> indices) {
  coords_.resize(tree_.dims());
  request_.clear();
  for (const std::uint64_t i : indices) {
    queries.copy_point(i, coords_.data());
    detail::append_knn_request(request_,
                               {i, pass.radius2[i], pass.bound_id[i]},
                               std::span<const float>(coords_));
  }
  return request_.bytes();
}

void AllKnnEngine::merge_responses(std::span<const std::byte> payload,
                                   core::NeighborTable& results,
                                   std::size_t k, AllKnnStats& st) {
  WallTimer watch;
  detail::WireReader reader(payload);
  // A returned list is a remote top-k: at most k entries.
  if (returned_.size() < k) returned_.resize(k);
  while (!reader.done()) {
    const auto seq = reader.get<std::uint64_t>();
    const std::size_t count = detail::read_neighbors_into(reader, returned_);
    const std::size_t merged = core::merge_topk_into_row(
        results.slot(seq), results.count(seq),
        std::span<const Neighbor>(returned_.data(), count), k,
        merge_scratch_);
    results.set_count(seq, merged);
  }
  st.merge += watch.seconds();
}

std::span<const std::byte> AllKnnEngine::answer_requests(
    std::span<const std::byte> payload, const AllKnnConfig& config,
    AllKnnStats& st) {
  const std::size_t dims = tree_.dims();
  detail::WireReader reader(payload);
  // The message's queries, each under its origin's sequence number.
  if (remote_queries_.dims() != dims) remote_queries_ = data::PointSet(dims);
  remote_queries_.clear();
  remote_radius2_.clear();
  remote_bound_id_.clear();
  coords_.resize(dims);
  while (!reader.done()) {
    const auto request =
        detail::read_knn_request(reader, std::span<float>(coords_));
    remote_queries_.push_point(coords_, request.seq);
    remote_radius2_.push_back(request.radius2);
    remote_bound_id_.push_back(request.bound_id);
  }

  // Stage 4 for the whole message at once: one batched radius-limited
  // pass over the coalesced query block, straight into the reusable
  // flat table.
  WallTimer watch;
  tree_.local_tree().query_sq_batch(remote_queries_, config.k, comm_.pool(),
                                    remote_found_, remote_ws_, remote_radius2_,
                                    remote_bound_id_);
  st.remote_knn += watch.seconds();

  response_.clear();
  for (std::size_t i = 0; i < remote_queries_.size(); ++i) {
    response_.put<std::uint64_t>(remote_queries_.id(i));
    detail::append_neighbors(response_, remote_found_[i]);
  }
  return response_.bytes();
}

void AllKnnEngine::run_pipelined(const data::PointSet& queries,
                                 const AllKnnConfig& config,
                                 core::NeighborTable& results,
                                 LocalPass& pass, AllKnnStats& st) {
  const int ranks = comm_.size();
  const int me = comm_.rank();
  const std::size_t n = queries.size();
  const std::size_t batch = std::max<std::size_t>(1, config.batch_size);
  // A batch near SIZE_MAX (one round) must not wrap the count to zero.
  const std::uint64_t rounds = n / batch + (n % batch != 0 ? 1 : 0);
  WallTimer watch;

  // Tiny counts prologue: how many coalesced request messages each
  // peer should expect from us — one per round whose slice of that
  // peer's overlap list is non-empty.
  std::vector<std::vector<std::uint64_t>> count_rows(
      static_cast<std::size_t>(ranks));
  std::vector<std::uint64_t> messages_to(static_cast<std::size_t>(ranks), 0);
  for (int r = 0; r < ranks; ++r) {
    const auto& indices = pass.remote_queries[static_cast<std::size_t>(r)];
    std::uint64_t count = 0;
    std::size_t cursor = 0;
    for (std::uint64_t round = 0; round < rounds && cursor < indices.size();
         ++round) {
      const std::uint64_t qend = std::min<std::uint64_t>(n, (round + 1) * batch);
      const std::size_t before = cursor;
      while (cursor < indices.size() && indices[cursor] < qend) ++cursor;
      if (cursor > before) ++count;
    }
    messages_to[static_cast<std::size_t>(r)] = count;
    count_rows[static_cast<std::size_t>(r)].assign(1, count);
  }
  watch.reset();
  const auto counts_in = comm_.alltoallv(count_rows);
  st.non_overlapped_comm += watch.seconds();

  std::vector<std::uint64_t> expected_requests(static_cast<std::size_t>(ranks),
                                               0);
  std::vector<std::uint64_t> awaiting_responses = messages_to;
  std::uint64_t expected_total = 0;
  std::uint64_t awaiting_total = 0;
  for (int s = 0; s < ranks; ++s) {
    if (s == me) continue;
    expected_requests[static_cast<std::size_t>(s)] =
        counts_in[static_cast<std::size_t>(s)].empty()
            ? 0
            : counts_in[static_cast<std::size_t>(s)][0];
    expected_total += expected_requests[static_cast<std::size_t>(s)];
    awaiting_total += awaiting_responses[static_cast<std::size_t>(s)];
  }

  // Drains whatever is ready without blocking; returns whether any
  // message was consumed. Requests are answered with one batched pass
  // per message; responses stream-merge into the local candidates.
  auto drain = [&]() {
    bool progress = false;
    for (int s = 0; s < ranks; ++s) {
      if (s == me) continue;
      auto& expected = expected_requests[static_cast<std::size_t>(s)];
      while (expected > 0 && comm_.poll(s, kTagBulkRequest)) {
        const auto payload = comm_.recv<std::byte>(s, kTagBulkRequest);
        const auto response = answer_requests(payload, config, st);
        st.response_messages += 1;
        st.response_bytes += response.size();
        st.model_comm_seconds +=
            net::p2p_cost(comm_.cost_params(), response.size());
        comm_.send<std::byte>(s, kTagBulkResponse, response);
        expected -= 1;
        expected_total -= 1;
        progress = true;
      }
      auto& awaiting = awaiting_responses[static_cast<std::size_t>(s)];
      while (awaiting > 0 && comm_.poll(s, kTagBulkResponse)) {
        const auto payload = comm_.recv<std::byte>(s, kTagBulkResponse);
        merge_responses(payload, results, config.k, st);
        awaiting -= 1;
        awaiting_total -= 1;
        progress = true;
      }
    }
    return progress;
  };

  // Coalescing rounds: one packed request message per destination per
  // round, interleaved with draining so remote answering overlaps the
  // sending side's packing.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(ranks), 0);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::uint64_t qend = std::min<std::uint64_t>(n, (round + 1) * batch);
    for (int r = 0; r < ranks; ++r) {
      if (r == me) continue;
      const auto& indices = pass.remote_queries[static_cast<std::size_t>(r)];
      auto& at = cursor[static_cast<std::size_t>(r)];
      const std::size_t begin = at;
      while (at < indices.size() && indices[at] < qend) ++at;
      if (at == begin) continue;
      const auto payload = pack_requests(
          queries, pass,
          std::span<const std::uint64_t>(indices).subspan(begin,
                                                          at - begin));
      st.request_messages += 1;
      st.request_bytes += payload.size();
      st.model_comm_seconds +=
          net::p2p_cost(comm_.cost_params(), payload.size());
      comm_.send<std::byte>(r, kTagBulkRequest, payload);
    }
    drain();
  }

  // Tail: answer the remaining peers and collect the remaining
  // responses. Everything expected is counted, so this terminates.
  while (expected_total > 0 || awaiting_total > 0) {
    if (!drain()) {
      PANDA_CHECK_MSG(!comm_.aborted(),
                      "cluster aborted during bulk all-KNN query");
      watch.reset();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      st.non_overlapped_comm += watch.seconds();
    }
  }
}

void AllKnnEngine::answer_block(const data::PointSet& queries, bool self,
                                const AllKnnConfig& config,
                                core::NeighborTable& results,
                                AllKnnStats& st) {
  local_pass(queries, self, config, results, pass_, st);
  if (comm_.size() == 1) return;
  run_pipelined(queries, config, results, pass_, st);
}

void AllKnnEngine::run_into(const AllKnnConfig& config,
                            core::NeighborTable& results,
                            AllKnnStats* stats) {
  PANDA_CHECK_MSG(config.k >= 1, "k must be >= 1");
  AllKnnStats st;
  answer_block(tree_.local_points(), /*self=*/true, config, results, st);
  if (stats != nullptr) *stats = st;
}

}  // namespace panda::dist
