// Bulk all-points KNN vs the routed five-stage engine over the same
// points.
//
// The paper's science workloads query the dataset against itself.
// Both engines answer stages 2-5 with the same code (DESIGN.md §7);
// dist::AllKnnEngine drops what DistQueryEngine adds around them for a
// self-query — stage 1 and the return trip, since each rank's queries
// are its own local points — and runs the packed-leaf self-join as its
// local pass. This harness runs DistQueryEngine over every rank's local
// points and the bulk engine on the same cosmo_thin-style workload,
// and reports wall time plus the messages,
// bytes and alpha–beta model time each run_into adds to comm.stats(),
// summed over ranks.
//
// Run:  ./bench_allknn [points] [ranks]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "net/cluster.hpp"

namespace {

struct RunTotals {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double model_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace panda;
  const bench::DatasetSpec spec = bench::thin_spec("cosmo");
  // The thin dataset scaled 1:10 keeps both in-process runs quick.
  const std::uint64_t n = argc > 1
                              ? std::strtoull(argv[1], nullptr, 10)
                              : spec.points / 10;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;
  if (n == 0 || ranks < 1) {
    std::fprintf(stderr, "usage: bench_allknn [points>0] [ranks>=1]\n");
    return 1;
  }
  const std::size_t k = spec.k + 1;  // self included in a self-KNN

  bench::print_header(
      "bench_allknn — bulk self-KNN vs the routed engine",
      "engine ablation: no stage 1 or return, self-join local pass");
  std::printf("workload: %s x %s points (all queried), k=%zu, %d ranks\n",
              spec.paper_name.c_str(), bench::human_count(n).c_str(), k,
              ranks);

  const auto generator = data::make_generator(spec.name, bench::kDataSeed);
  net::ClusterConfig config;
  config.ranks = ranks;
  config.threads_per_rank = 2;

  // Builds the tree on a fresh cluster, then times `query` on every
  // rank and reads what it adds to the rank's comm counters.
  using Query = std::function<void(net::Comm&, const dist::DistKdTree&)>;
  auto measure = [&](const Query& query) {
    RunTotals totals;
    std::mutex mutex;
    net::Cluster cluster(config);
    cluster.run([&](net::Comm& comm) {
      const data::PointSet slice =
          generator->generate_slice(n, comm.rank(), comm.size());
      const dist::DistKdTree tree =
          dist::DistKdTree::build(comm, slice, dist::DistBuildConfig{});
      const net::CommStats before = comm.stats();
      WallTimer watch;
      query(comm, tree);
      const double seconds = watch.seconds();
      const net::CommStats& after = comm.stats();
      std::lock_guard<std::mutex> lock(mutex);
      totals.seconds = std::max(totals.seconds, seconds);
      totals.messages += after.messages_sent - before.messages_sent;
      totals.bytes += after.bytes_sent - before.bytes_sent;
      totals.model_seconds += after.model_seconds - before.model_seconds;
    });
    return totals;
  };

  const RunTotals routed =
      measure([&](net::Comm& comm, const dist::DistKdTree& tree) {
        dist::DistQueryEngine engine(comm, tree);
        dist::DistQueryConfig qconfig;
        qconfig.k = k;
        core::NeighborTable results;
        engine.run_into(tree.local_points(), qconfig, results);
      });
  const RunTotals bulk =
      measure([&](net::Comm& comm, const dist::DistKdTree& tree) {
        dist::AllKnnEngine engine(comm, tree);
        core::NeighborTable results;
        engine.run_into({.k = k}, results);
      });

  bench::print_rule();
  std::printf("%-38s %10s %10s %12s %12s\n", "engine", "query(s)",
              "messages", "KiB sent", "model(s)");
  auto row = [](const char* name, const RunTotals& t) {
    std::printf("%-38s %10.3f %10llu %12.1f %12.3g\n", name, t.seconds,
                static_cast<unsigned long long>(t.messages),
                static_cast<double>(t.bytes) / 1024.0, t.model_seconds);
  };
  row("DistQueryEngine over the local points", routed);
  row("AllKnnEngine", bulk);
  bench::print_rule();
  const double time_ratio = bulk.seconds / std::max(routed.seconds, 1e-12);
  if (routed.messages == 0) {
    std::printf("bulk vs routed: %.2fx the query time; no cross-rank "
                "traffic at this scale\n",
                time_ratio);
  } else {
    std::printf("bulk vs routed, default configs: %.2fx the query time, "
                "%.2fx the messages, %.2fx the bytes\n",
                time_ratio,
                static_cast<double>(bulk.messages) /
                    static_cast<double>(routed.messages),
                static_cast<double>(bulk.bytes) /
                    static_cast<double>(routed.bytes));
  }
  return 0;
}
