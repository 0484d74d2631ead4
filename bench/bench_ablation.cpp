// Ablation benches for the design choices the paper claims in prose
// (Section III-A1, III-B) but does not plot:
//   1. bucket size          — "bucket size of 32 gave the best performance"
//   2. split-dimension rule — "max variance ... adds up to 18 % to
//                              construction, improves query by up to 43 %"
//   3. sub-interval search  — "gains of up to 42 % during local kd-tree
//                              construction over binary search"
//   4. traversal bound      — printed Algorithm 1 formula vs the exact
//                              per-dimension incremental bound (speed and
//                              recall; see DESIGN.md section 5)
//   5. pipelining depth     — stages 3-5 as software pipelining:
//                              coalescing rounds of batch_size queries
//                              (counted p2p messages drained between
//                              rounds), from many rounds down to one
//   6. global kd-tree       — PANDA's redistributed tree vs strategy (1)
//                              local-trees-everywhere (query cost and
//                              bytes moved)
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "baselines/local_trees.hpp"
#include "core/kdtree.hpp"
#include "data/generators.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace panda;

void ablate_bucket_size() {
  std::printf("\n[1] bucket size (paper: 32 best)\n");
  const bench::DatasetSpec spec = bench::thin_spec("cosmo");
  const auto generator = data::make_generator(spec.name, bench::kDataSeed);
  const data::PointSet points = generator->generate_all(spec.points);
  const data::PointSet queries =
      bench::make_queries(*generator, spec.points, spec.queries);
  parallel::ThreadPool pool(8);
  std::printf("%8s %12s %12s %14s\n", "bucket", "construct(s)", "query(s)",
              "points/query");
  for (const std::uint32_t bucket : {4u, 8u, 16u, 32u, 64u, 128u, 512u}) {
    core::BuildConfig config;
    config.bucket_size = bucket;
    WallTimer build_watch;
    const core::KdTree tree = core::KdTree::build(points, config, pool);
    const double build_seconds = build_watch.seconds();
    core::NeighborTable results;
    core::BatchWorkspace ws;
    core::QueryStats stats;
    WallTimer query_watch;
    tree.query_batch(queries, spec.k, pool, results, ws,
                     std::numeric_limits<float>::infinity(),
                     core::TraversalPolicy::Exact, &stats);
    std::printf("%8u %12.3f %12.3f %14.1f\n", bucket, build_seconds,
                query_watch.seconds(),
                static_cast<double>(stats.points_scanned) /
                    static_cast<double>(queries.size()));
  }
}

void ablate_dim_policy() {
  std::printf("\n[2] split-dimension rule (paper: variance +18%% build, "
              "-43%% query)\n");
  std::printf("%-12s %-12s %12s %12s\n", "dataset", "policy", "construct(s)",
              "query(s)");
  for (const char* name : {"cosmo", "dayabay", "sdss15"}) {
    const bench::DatasetSpec spec = bench::thin_spec(
        std::string(name) == "sdss15" ? "dayabay" : name);
    const auto generator = data::make_generator(name, bench::kDataSeed);
    const data::PointSet points = generator->generate_all(spec.points);
    const data::PointSet queries =
        bench::make_queries(*generator, spec.points, spec.queries);
    parallel::ThreadPool pool(8);
    for (const bool variance : {false, true}) {
      core::BuildConfig config;
      config.dim_policy = variance
                              ? core::BuildConfig::DimensionPolicy::MaxVariance
                              : core::BuildConfig::DimensionPolicy::RoundRobin;
      WallTimer build_watch;
      const core::KdTree tree = core::KdTree::build(points, config, pool);
      const double build_seconds = build_watch.seconds();
      core::NeighborTable results;
      core::BatchWorkspace ws;
      WallTimer query_watch;
      tree.query_batch(queries, spec.k, pool, results, ws);
      std::printf("%-12s %-12s %12.3f %12.3f\n", name,
                  variance ? "variance" : "round-robin", build_seconds,
                  query_watch.seconds());
    }
  }
}

void ablate_subinterval() {
  std::printf("\n[3] sub-interval SIMD histogram search (paper: up to 42%% "
              "construction gain)\n");
  const auto generator = data::make_generator("cosmo", bench::kDataSeed);
  const data::PointSet points = generator->generate_all(2000000);
  std::printf("%-16s %12s\n", "binning", "construct(s)");
  for (const bool fast : {false, true}) {
    core::BuildConfig config;
    config.use_subinterval_search = fast;
    // Low switch factor keeps more work in the histogram-based
    // data-parallel phase, where the binning method matters.
    config.thread_switch_factor = 64;
    parallel::ThreadPool pool(8);
    WallTimer watch;
    const core::KdTree tree = core::KdTree::build(points, config, pool);
    (void)tree;
    std::printf("%-16s %12.3f\n", fast ? "sub-interval" : "binary-search",
                watch.seconds());
  }
}

void ablate_traversal_policy() {
  std::printf("\n[4] traversal bound: exact vs printed Algorithm 1 "
              "(DESIGN.md section 5)\n");
  std::printf("%-12s %-14s %12s %14s %8s\n", "dataset", "policy", "query(s)",
              "nodes/query", "recall");
  for (const char* name : {"cosmo", "dayabay"}) {
    const bench::DatasetSpec spec = bench::thin_spec(name);
    const auto generator = data::make_generator(spec.name, bench::kDataSeed);
    const data::PointSet points = generator->generate_all(spec.points);
    const data::PointSet queries =
        bench::make_queries(*generator, spec.points, spec.queries);
    parallel::ThreadPool pool(8);
    const core::KdTree tree =
        core::KdTree::build(points, core::BuildConfig{}, pool);

    std::vector<std::vector<core::Neighbor>> exact;
    core::NeighborTable table;
    core::BatchWorkspace ws;
    for (const auto policy : {core::TraversalPolicy::Exact,
                              core::TraversalPolicy::PaperFormula}) {
      core::QueryStats stats;
      WallTimer watch;
      tree.query_batch(queries, spec.k, pool, table, ws,
                       std::numeric_limits<float>::infinity(), policy,
                       &stats);
      const double seconds = watch.seconds();
      const auto results = table.to_vectors();
      double recall = 1.0;
      if (policy == core::TraversalPolicy::Exact) {
        exact = results;
      } else {
        std::uint64_t hits = 0;
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
          std::multiset<float> truth;
          for (const auto& n : exact[i]) truth.insert(n.dist2);
          for (const auto& n : results[i]) {
            const auto it = truth.find(n.dist2);
            if (it != truth.end()) {
              truth.erase(it);
              ++hits;
            }
          }
          total += exact[i].size();
        }
        recall = static_cast<double>(hits) / static_cast<double>(total);
      }
      std::printf("%-12s %-14s %12.3f %14.1f %8.4f\n", name,
                  policy == core::TraversalPolicy::Exact ? "exact"
                                                         : "paper-formula",
                  seconds,
                  static_cast<double>(stats.nodes_visited) /
                      static_cast<double>(queries.size()),
                  recall);
    }
  }
}

void ablate_approximate() {
  std::printf("\n[7] approximate mode: leaf-visit budget vs recall "
              "(FLANN-style 'checks'; not in the paper, which is exact)\n");
  const bench::DatasetSpec spec = bench::thin_spec("dayabay");
  const auto generator = data::make_generator(spec.name, bench::kDataSeed);
  const data::PointSet points = generator->generate_all(spec.points);
  data::PointSet queries(generator->dims());
  generator->generate(spec.points, spec.points + 2000, queries);
  parallel::ThreadPool pool(8);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);

  // Exact ground truth once.
  core::NeighborTable exact_table;
  core::BatchWorkspace exact_ws;
  tree.query_batch(queries, 5, pool, exact_table, exact_ws);
  const auto exact = exact_table.to_vectors();

  std::printf("%8s %12s %8s\n", "budget", "query(s)", "recall");
  for (const std::uint64_t budget : {1ull, 2ull, 4ull, 16ull, 64ull}) {
    std::vector<float> q(tree.dims());
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    WallTimer watch;
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      queries.copy_point(i, q.data());
      const auto approx = tree.query_approx(q, 5, budget);
      std::multiset<float> truth;
      for (const auto& n : exact[i]) truth.insert(n.dist2);
      for (const auto& n : approx) {
        const auto it = truth.find(n.dist2);
        if (it != truth.end()) {
          truth.erase(it);
          ++hits;
        }
      }
      total += exact[i].size();
    }
    std::printf("%8llu %12.3f %7.1f%%\n",
                static_cast<unsigned long long>(budget), watch.seconds(),
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(total));
  }
}

void ablate_pipelining_depth() {
  std::printf("\n[5] pipelining depth of stages 3-5: queries per "
              "coalescing round (paper's software pipelining)\n");
  const bench::DatasetSpec spec = bench::large_spec("cosmo");
  const auto generator = data::make_generator(spec.name, bench::kDataSeed);
  std::printf("%-12s %10s %20s\n", "batch", "query(s)", "max wait/rank (s)");
  for (const std::size_t batch :
       {std::size_t{256}, std::size_t{2048}, SIZE_MAX}) {
    net::ClusterConfig config;
    config.ranks = 8;
    config.threads_per_rank = 1;
    net::Cluster cluster(config);
    double elapsed = 0.0;
    double max_wait = 0.0;
    std::mutex mutex;
    cluster.run([&](net::Comm& comm) {
      const data::PointSet slice =
          generator->generate_slice(spec.points, comm.rank(), comm.size());
      const dist::DistKdTree tree =
          dist::DistKdTree::build(comm, slice, dist::DistBuildConfig{});
      const data::PointSet my_queries = bench::make_query_slice(
          *generator, spec.points, spec.queries, comm.rank(), comm.size());
      dist::DistQueryEngine engine(comm, tree);
      dist::DistQueryConfig qconfig;
      qconfig.k = spec.k;
      qconfig.batch_size = batch;
      dist::DistQueryBreakdown bd;
      core::NeighborTable results;
      comm.barrier();
      WallTimer watch;
      engine.run_into(my_queries, qconfig, results, &bd);
      comm.barrier();
      std::lock_guard<std::mutex> lock(mutex);
      if (comm.rank() == 0) elapsed = watch.seconds();
      max_wait = std::max(max_wait, bd.non_overlapped_comm);
    });
    const std::string label =
        batch == SIZE_MAX ? "one round" : std::to_string(batch);
    std::printf("%-12s %10.3f %20.3f\n", label.c_str(), elapsed, max_wait);
  }
}

void ablate_global_tree() {
  std::printf("\n[6] global kd-tree vs local-trees-everywhere "
              "(Section III-A strategy choice)\n");
  const std::uint64_t n = 1000000;
  const std::uint64_t n_queries = 50000;
  const auto generator = data::make_generator("cosmo", bench::kDataSeed);
  std::printf("%-14s %10s %16s\n", "strategy", "query(s)", "query bytes");
  for (const bool global_tree : {false, true}) {
    net::ClusterConfig config;
    config.ranks = 8;
    config.threads_per_rank = 1;
    net::Cluster cluster(config);
    double elapsed = 0.0;
    std::vector<std::uint64_t> bytes(8, 0);
    std::mutex mutex;
    cluster.run([&](net::Comm& comm) {
      const data::PointSet slice =
          generator->generate_slice(n, comm.rank(), comm.size());
      const data::PointSet my_queries = bench::make_query_slice(
          *generator, n, n_queries, comm.rank(), comm.size());
      if (global_tree) {
        const dist::DistKdTree tree =
            dist::DistKdTree::build(comm, slice, dist::DistBuildConfig{});
        dist::DistQueryEngine engine(comm, tree);
        dist::DistQueryConfig qconfig;
        qconfig.k = 5;
        core::NeighborTable results;
        const std::uint64_t before = comm.stats().bytes_sent;
        comm.barrier();
        WallTimer watch;
        engine.run_into(my_queries, qconfig, results);
        comm.barrier();
        std::lock_guard<std::mutex> lock(mutex);
        if (comm.rank() == 0) elapsed = watch.seconds();
        bytes[static_cast<std::size_t>(comm.rank())] =
            comm.stats().bytes_sent - before;
      } else {
        const auto strategy = baselines::LocalTreesStrategy::build(
            comm, slice, core::BuildConfig{});
        const std::uint64_t before = comm.stats().bytes_sent;
        comm.barrier();
        WallTimer watch;
        strategy.query(comm, my_queries, 5);
        comm.barrier();
        std::lock_guard<std::mutex> lock(mutex);
        if (comm.rank() == 0) elapsed = watch.seconds();
        bytes[static_cast<std::size_t>(comm.rank())] =
            comm.stats().bytes_sent - before;
      }
    });
    std::uint64_t total_bytes = 0;
    for (const auto b : bytes) total_bytes += b;
    std::printf("%-14s %10.3f %16s\n",
                global_tree ? "global-tree" : "local-trees", elapsed,
                bench::human_count(total_bytes).c_str());
  }
  std::printf("expected: the global tree cuts query-phase traffic by ~an\n"
              "order of magnitude (P*k candidates per query vs per-query\n"
              "routing + radius-pruned forwards).\n");
}

}  // namespace

int main() {
  bench::print_header("Ablations — the paper's prose claims",
                      "Patwary et al. 2016, Sections III-A1 and III-B");
  ablate_bucket_size();
  ablate_dim_policy();
  ablate_subinterval();
  ablate_traversal_policy();
  ablate_pipelining_depth();
  ablate_global_tree();
  ablate_approximate();
  return 0;
}
