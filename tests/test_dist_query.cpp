// End-to-end integration tests: distributed KNN must equal the
// single-node brute-force oracle for every query, across datasets,
// rank counts, k, and batch sizes (one coalescing round included).
// Also covers the breakdown counters, remote-pruning behaviour, query
// sets spanning several exchange rounds, and the exact traffic of a
// fixed run of both KNN engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <ostream>
#include <tuple>
#include <utility>

#include "baselines/brute_force.hpp"
#include "data/generators.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::dist {
namespace {

using core::Neighbor;

void expect_same_distances(const std::vector<Neighbor>& actual,
                           const std::vector<Neighbor>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].dist2, expected[i].dist2) << context << " rank " << i;
  }
}

struct DistRun {
  /// results indexed by global query id.
  std::vector<std::vector<Neighbor>> results;
  std::vector<DistQueryBreakdown> breakdowns;
};

DistRun run_distributed(const std::string& dataset, std::uint64_t n_points,
                        std::uint64_t n_queries, int ranks, std::size_t k,
                        std::size_t batch_size, int threads_per_rank = 1) {
  net::ClusterConfig config;
  config.ranks = ranks;
  config.threads_per_rank = threads_per_rank;
  net::Cluster cluster(config);

  DistRun run;
  run.results.resize(n_queries);
  run.breakdowns.resize(static_cast<std::size_t>(ranks));
  std::mutex mutex;

  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator(dataset, 999);
    const data::PointSet slice =
        gen->generate_slice(n_points, comm.rank(), comm.size());
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});

    // Queries: a deterministic slice of a second generated set, offset
    // into the same distribution.
    const std::uint64_t q_begin =
        static_cast<std::uint64_t>(comm.rank()) * n_queries /
        static_cast<std::uint64_t>(comm.size());
    const std::uint64_t q_end =
        static_cast<std::uint64_t>(comm.rank() + 1) * n_queries /
        static_cast<std::uint64_t>(comm.size());
    const auto qgen = data::make_generator(dataset, 31337);
    data::PointSet my_queries(tree.dims());
    qgen->generate(q_begin, q_end, my_queries);

    DistQueryEngine engine(comm, tree);
    DistQueryConfig qconfig;
    qconfig.k = k;
    qconfig.batch_size = batch_size;
    DistQueryBreakdown breakdown;
    core::NeighborTable local_results;
    engine.run_into(my_queries, qconfig, local_results, &breakdown);

    std::lock_guard<std::mutex> lock(mutex);
    run.breakdowns[static_cast<std::size_t>(comm.rank())] = breakdown;
    for (std::uint64_t i = 0; i < local_results.size(); ++i) {
      const auto row = local_results[i];
      run.results[q_begin + i].assign(row.begin(), row.end());
    }
  });
  return run;
}

std::vector<std::vector<Neighbor>> oracle(const std::string& dataset,
                                          std::uint64_t n_points,
                                          std::uint64_t n_queries,
                                          std::size_t k) {
  const auto gen = data::make_generator(dataset, 999);
  const data::PointSet points = gen->generate_all(n_points);
  const auto qgen = data::make_generator(dataset, 31337);
  const data::PointSet queries = qgen->generate_all(n_queries);
  parallel::ThreadPool pool(8);
  std::vector<std::vector<Neighbor>> expected;
  baselines::brute_force_batch(points, queries, k, pool, expected);
  return expected;
}

class DistQuerySweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(DistQuerySweep, MatchesBruteForceOracle) {
  const auto [dataset, ranks] = GetParam();
  const std::uint64_t n_points = 4000;
  const std::uint64_t n_queries = 300;
  const std::size_t k = 5;

  const DistRun run = run_distributed(dataset, n_points, n_queries, ranks, k,
                                      64);
  const auto expected = oracle(dataset, n_points, n_queries, k);
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    expect_same_distances(run.results[i], expected[i],
                          std::string(dataset) + " query " +
                              std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsRanks, DistQuerySweep,
    ::testing::Combine(::testing::Values("uniform", "cosmo", "dayabay"),
                       ::testing::Values(1, 2, 3, 4, 8)));

class DistQueryKBatchSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DistQueryKBatchSweep, ExactForKAndBatchSize) {
  const auto [k, batch_size] = GetParam();
  const std::uint64_t n_points = 3000;
  const std::uint64_t n_queries = 200;
  const DistRun run = run_distributed("gmm", n_points, n_queries, 4, k,
                                      batch_size);
  const auto expected = oracle("gmm", n_points, n_queries, k);
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    expect_same_distances(run.results[i], expected[i],
                          "k=" + std::to_string(k) +
                              " batch=" + std::to_string(batch_size));
  }
}

// SIZE_MAX is the one-round schedule: each owned block's requests go
// out in a single coalescing round.
INSTANTIATE_TEST_SUITE_P(
    KsAndBatches, DistQueryKBatchSweep,
    ::testing::Combine(::testing::Values(1, 5, 17),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64}, std::size_t{10000},
                                         SIZE_MAX)));

TEST(DistQuery, MultiThreadedRanksProduceSameAnswers) {
  const std::uint64_t n_points = 5000;
  const std::uint64_t n_queries = 200;
  const DistRun run = run_distributed("plasma", n_points, n_queries, 3, 5, 64,
                                      /*threads_per_rank=*/3);
  const auto expected = oracle("plasma", n_points, n_queries, 5);
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    expect_same_distances(run.results[i], expected[i],
                          "threaded query " + std::to_string(i));
  }
}

TEST(DistQuery, KLargerThanTotalPointsReturnsEverything) {
  const std::uint64_t n_points = 40;
  const std::uint64_t n_queries = 10;
  const std::size_t k = 100;
  const DistRun run = run_distributed("uniform", n_points, n_queries, 4, k, 4);
  for (const auto& result : run.results) {
    EXPECT_EQ(result.size(), n_points);
  }
}

TEST(DistQuery, BreakdownCountersAreConsistent) {
  const std::uint64_t n_queries = 400;
  const DistRun run = run_distributed("cosmo", 6000, n_queries, 4, 5, 64);
  std::uint64_t owned_total = 0;
  std::uint64_t sent_remote = 0;
  std::uint64_t remote_requests = 0;
  for (const auto& bd : run.breakdowns) {
    owned_total += bd.queries_owned;
    sent_remote += bd.queries_sent_remote;
    remote_requests += bd.remote_requests;
    EXPECT_GE(bd.find_owner, 0.0);
    EXPECT_GE(bd.local_knn, 0.0);
    EXPECT_GE(bd.non_overlapped_comm, 0.0);
  }
  EXPECT_EQ(owned_total, n_queries);
  EXPECT_LE(sent_remote, owned_total);
  EXPECT_GE(remote_requests, sent_remote);
}

TEST(DistQuery, RemotePruningKeepsFanoutLow) {
  // On smooth low-dimensional data most queries resolve locally —
  // the paper reports 5-9 % of queries contacting any remote node.
  // Allow a loose bound (small datasets have proportionally more
  // boundary).
  const std::uint64_t n_queries = 500;
  const DistRun run = run_distributed("uniform", 20000, n_queries, 4, 5, 128);
  std::uint64_t sent_remote = 0;
  for (const auto& bd : run.breakdowns) sent_remote += bd.queries_sent_remote;
  EXPECT_LT(static_cast<double>(sent_remote) /
                static_cast<double>(n_queries),
            0.6);
}

TEST(DistQuery, QueriesBeyondOneRoundOnOneRankMatchOracle) {
  // Rank 1 holds more than two rounds' worth of queries and the other
  // ranks none: three exchange rounds, two of the ranks riding along
  // empty in every one.
  const std::uint64_t n_points = 1500;
  const std::uint64_t n_queries = 2 * DistQueryEngine::kRoundQueries + 123;
  const std::size_t k = 4;
  const auto expected = oracle("uniform", n_points, n_queries, k);
  net::ClusterConfig config;
  config.ranks = 3;
  net::Cluster cluster(config);
  std::vector<std::vector<Neighbor>> rows;
  std::vector<DistQueryBreakdown> breakdowns(3);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("uniform", 999);
    const DistKdTree tree = DistKdTree::build(
        comm, gen->generate_slice(n_points, comm.rank(), comm.size()),
        DistBuildConfig{});
    data::PointSet queries(tree.dims());
    if (comm.rank() == 1) {
      data::make_generator("uniform", 31337)->generate(0, n_queries, queries);
    }
    DistQueryEngine engine(comm, tree);
    DistQueryConfig qconfig;
    qconfig.k = k;
    core::NeighborTable results;
    engine.run_into(queries, qconfig, results,
                    &breakdowns[static_cast<std::size_t>(comm.rank())]);
    if (comm.rank() == 1) {
      rows = results.to_vectors();
    } else {
      EXPECT_TRUE(results.empty());
    }
  });
  ASSERT_EQ(rows.size(), n_queries);
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    ASSERT_EQ(rows[i], expected[i]) << "query " << i;
  }
  std::uint64_t owned = 0;
  for (const auto& bd : breakdowns) owned += bd.queries_owned;
  EXPECT_EQ(owned, n_queries);
}

TEST(DistQuery, EmptyQuerySetOnSomeRanks) {
  net::ClusterConfig config;
  config.ranks = 3;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("uniform", 999);
    const data::PointSet slice = gen->generate_slice(900, comm.rank(),
                                                     comm.size());
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    DistQueryEngine engine(comm, tree);
    data::PointSet queries(3);
    if (comm.rank() == 1) {
      const auto qgen = data::make_generator("uniform", 31337);
      qgen->generate(0, 50, queries);
    }
    DistQueryConfig qconfig;
    qconfig.k = 3;
    qconfig.batch_size = 8;
    core::NeighborTable results;
    engine.run_into(queries, qconfig, results);
    if (comm.rank() == 1) {
      EXPECT_EQ(results.size(), 50u);
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].size(), 3u);
      }
    } else {
      EXPECT_TRUE(results.empty());
    }
  });
}

TEST(DistQuery, CommunicatesLessThanScatterBaseline) {
  // The headline claim: the global-tree protocol moves less data than
  // query-everywhere. Compare alltoallv bytes for the same workload.
  const std::uint64_t n_points = 20000;
  const std::uint64_t n_queries = 400;

  auto run_bytes = [&](bool use_panda) {
    net::ClusterConfig config;
    config.ranks = 4;
    net::Cluster cluster(config);
    std::vector<std::uint64_t> query_bytes(4, 0);
    cluster.run([&](net::Comm& comm) {
      const auto gen = data::make_generator("uniform", 999);
      const data::PointSet slice =
          gen->generate_slice(n_points, comm.rank(), comm.size());
      const auto qgen = data::make_generator("uniform", 31337);
      data::PointSet my_queries(3);
      const std::uint64_t q_begin = static_cast<std::uint64_t>(comm.rank()) *
                                    n_queries / 4;
      const std::uint64_t q_end =
          static_cast<std::uint64_t>(comm.rank() + 1) * n_queries / 4;
      qgen->generate(q_begin, q_end, my_queries);
      // Only count query-time traffic: snapshot bytes after any build.
      if (use_panda) {
        const DistKdTree tree =
            DistKdTree::build(comm, slice, DistBuildConfig{});
        const std::uint64_t before = comm.stats().bytes_sent;
        DistQueryEngine engine(comm, tree);
        DistQueryConfig qconfig;
        qconfig.k = 5;
        core::NeighborTable results;
        engine.run_into(my_queries, qconfig, results);
        query_bytes[static_cast<std::size_t>(comm.rank())] =
            comm.stats().bytes_sent - before;
      } else {
        const std::uint64_t before = comm.stats().bytes_sent;
        baselines::distributed_exhaustive_knn(comm, slice, my_queries, 5);
        query_bytes[static_cast<std::size_t>(comm.rank())] =
            comm.stats().bytes_sent - before;
      }
    });
    std::uint64_t total = 0;
    for (const auto& b : query_bytes) total += b;
    return total;
  };

  const std::uint64_t panda_bytes = run_bytes(true);
  const std::uint64_t scatter_bytes = run_bytes(false);
  EXPECT_LT(panda_bytes, scatter_bytes);
}

/// What one engine run adds to comm.stats(), summed over the ranks.
struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t collective_ops = 0;
  bool operator==(const Traffic&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Traffic& t) {
  return os << t.messages << " messages / " << t.bytes << " bytes / "
            << t.collective_ops << " collectives";
}

/// Both KNN engines on one fixed 4-rank workload (plasma, seed 7, 20k
/// points): the routed engine answers 5k queries held by rank 0 (k = 5,
/// default batch), then the bulk engine runs (k = 6, batch 256).
/// Returns {routed, bulk}.
std::pair<Traffic, Traffic> fixed_run_traffic(int threads_per_rank) {
  const std::uint64_t n_points = 20000;
  net::ClusterConfig config;
  config.ranks = 4;
  config.threads_per_rank = threads_per_rank;
  net::Cluster cluster(config);
  Traffic routed;
  Traffic bulk;
  std::mutex mutex;
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("plasma", 7);
    const DistKdTree tree = DistKdTree::build(
        comm, gen->generate_slice(n_points, comm.rank(), comm.size()),
        DistBuildConfig{});
    data::PointSet queries(tree.dims());
    if (comm.rank() == 0) gen->generate(n_points, n_points + 5000, queries);
    auto add_delta = [&](const net::CommStats& before, Traffic& into) {
      const net::CommStats& after = comm.stats();
      std::lock_guard<std::mutex> lock(mutex);
      into.messages += after.messages_sent - before.messages_sent;
      into.bytes += after.bytes_sent - before.bytes_sent;
      into.collective_ops += after.collective_ops - before.collective_ops;
    };
    core::NeighborTable rows;
    DistQueryEngine routed_engine(comm, tree);
    net::CommStats before = comm.stats();
    routed_engine.run_into(queries, {.k = 5}, rows);
    add_delta(before, routed);
    AllKnnEngine bulk_engine(comm, tree);
    before = comm.stats();
    bulk_engine.run_into({.k = 6, .batch_size = 256}, rows);
    add_delta(before, bulk);
  });
  return {routed, bulk};
}

TEST(DistQuery, FixedRunTrafficIsPinnedAndThreadIndependent) {
  // Messages, bytes and collectives depend only on the data and the
  // configuration: the per-round message schedule is fixed by the
  // overlap lists, not by which thread answers a request or when a
  // response arrives. Pinned values change only with the protocol.
  const auto [routed, bulk] = fixed_run_traffic(1);
  EXPECT_EQ(routed, (Traffic{138, 463808, 16}));
  EXPECT_EQ(bulk, (Traffic{486, 110576, 4}));
  for (const int threads : {2, 3}) {
    const auto [r, b] = fixed_run_traffic(threads);
    EXPECT_EQ(r, routed) << threads << " threads per rank";
    EXPECT_EQ(b, bulk) << threads << " threads per rank";
  }
}

}  // namespace
}  // namespace panda::dist
