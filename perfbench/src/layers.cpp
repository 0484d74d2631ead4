#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "common/aligned.hpp"
#include "core/kdtree.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/query_service.hpp"
#include "serve_load.hpp"
#include "simd/distance.hpp"

namespace perfbench {

namespace core = panda::core;
namespace pdata = panda::data;
using panda::Index;
using panda::IndexOptions;

std::string Info::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ",";
    out += json_str(items_[i].first) + ":" + items_[i].second;
  }
  return out + "}";
}

std::vector<std::uint64_t> sample_rows(std::size_t n, std::size_t count) {
  std::vector<std::uint64_t> rows;
  count = std::min(count, n);
  for (std::size_t j = 0; j < count; ++j) rows.push_back(j * n / count);
  return rows;
}

void check_knn_rows(const pdata::PointSet& indexed,
                    const pdata::PointSet& queries,
                    const core::NeighborTable& table, std::size_t k,
                    const std::string& what, Outcome& outcome) {
  const std::vector<std::uint64_t> rows = sample_rows(queries.size(),
                                                      kOracleRows);
  IndexOptions o;
  o.engine = IndexOptions::Engine::BruteForce;
  const auto oracle = Index::build(indexed, o);
  const pdata::PointSet sample = queries.extract(rows);
  core::NeighborTable expect;
  panda::SearchWorkspace ws;
  panda::SearchParams p;
  p.k = k;
  oracle->knn_into(sample, p, expect, ws);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto got = table[rows[j]];
    const auto want = expect[j];
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      outcome.mismatch(what + ": row " + std::to_string(rows[j]) +
                       " differs from brute force");
      return;
    }
  }
}

float serve_radius(Index& index, const pdata::PointSet& queries) {
  const pdata::PointSet sample =
      queries.extract(sample_rows(queries.size(), 256));
  core::NeighborTable t;
  panda::SearchWorkspace ws;
  panda::SearchParams p;
  p.k = kKnnK;
  index.knn_into(sample, p, t, ws);
  std::vector<double> r;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.count(i) == kKnnK) r.push_back(std::sqrt(t[i].back().dist2));
  }
  return static_cast<float>(median(r));
}

namespace {

std::string path_json(const std::string& workload_path, double e2e_untraced_s,
                      const std::vector<std::pair<std::string, std::string>>&
                          span_layers,
                      const std::string& value_layer, double value_s) {
  // {"name": ..., "e2e_untraced_s": x, "layers": [[layer, span], ...,
  //  [layer, seconds]]} — a span name is timed from the trace, a number
  // is a computed per-pass time for a layer with no call of its own.
  std::string out = "{\"name\":";
  out += json_str(workload_path);
  out += ",\"e2e_untraced_s\":";
  out += json_num(e2e_untraced_s);
  out += ",\"layers\":[";
  for (const auto& [layer, span] : span_layers) {
    out += "[";
    out += json_str(layer);
    out += ",";
    out += json_str(span);
    out += "],";
  }
  out += "[";
  out += json_str(value_layer);
  out += ",";
  out += json_num(value_s);
  out += "]]}";
  return out;
}

/// ns per (point x dim) of the inline padded kernel over 32-point SoA
/// blocks cut from the dataset's own points.
double kernel_ns_per_point_dim(const pdata::PointSet& points,
                               const pdata::PointSet& queries, bool smoke) {
  constexpr std::size_t kBlock = 32;
  const std::size_t dims = points.dims();
  const std::size_t blocks =
      std::max<std::size_t>(1, std::min<std::size_t>(2048, points.size() / kBlock));
  panda::AlignedVector<float> soa(blocks * kBlock * dims, panda::simd::kPadSentinel);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < kBlock && b * kBlock + i < points.size(); ++i) {
      for (std::size_t d = 0; d < dims; ++d) {
        soa[b * kBlock * dims + d * kBlock + i] = points.at(b * kBlock + i, d);
      }
    }
  }
  const std::size_t nq = std::min<std::size_t>(smoke ? 2 : 16, queries.size());
  std::vector<float> q(nq * dims);
  for (std::size_t j = 0; j < nq; ++j) queries.copy_point(j, q.data() + j * dims);
  panda::AlignedVector<float> out(kBlock);
  float sink = 0.0f;
  std::vector<double> reps;
  for (int rep = 0; rep < (smoke ? 2 : 7); ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < nq; ++j) {
      for (std::size_t b = 0; b < blocks; ++b) {
        panda::simd::squared_distances_padded_inline(
            q.data() + j * dims, soa.data() + b * kBlock * dims, kBlock, dims,
            out.data());
        asm volatile("" : : "r"(out.data()) : "memory");
        sink += out[b % kBlock];
      }
    }
    reps.push_back(seconds_since(t0));
  }
  asm volatile("" : : "r"(&sink) : "memory");
  return median(reps) * 1e9 /
         static_cast<double>(nq * blocks * kBlock * dims);
}

}  // namespace

// ---------------------------------------------------------------------
// simd, core, parallel, api (Local).
// ---------------------------------------------------------------------

void probe_local(const Dataset& ds, double budget_s, Metrics& m, Info& info,
                 Outcome& outcome) {
  Scoped root("probe.local");
  const int min_passes = ds.smoke ? 2 : 5;
  // Every workload's own engine runs on a pool of 1; the parallel layer
  // is the same core calls on a pool as wide as the host.
  const auto pool = std::make_shared<panda::parallel::ThreadPool>(1);
  const auto wide = std::make_shared<panda::parallel::ThreadPool>(kWideThreads);
  const core::BuildConfig cfg;
  const double q = static_cast<double>(ds.queries.size());
  const double n = static_cast<double>(ds.points.size());

  { core::KdTree warm = core::KdTree::build(ds.points, cfg, *pool); }
  core::BuildBreakdown bd;
  double build_s = 0.0;
  core::KdTree tree;
  {
    Scoped s("core.build", root.id());
    const auto t0 = Clock::now();
    tree = core::KdTree::build(ds.points, cfg, *pool, &bd);
    build_s = seconds_since(t0);
  }
  IndexOptions opts;
  opts.pool = pool;
  std::unique_ptr<Index> index;
  {
    Scoped s("api.build", root.id());
    index = Index::build(ds.points, opts);
  }

  // Exact traversal counts, then timed passes: the facade untraced (the
  // ledger's end-to-end reference), then facade and core alternating.
  core::NeighborTable core_t, api_t;
  core::BatchWorkspace bws;
  panda::SearchWorkspace sws;
  panda::SearchParams kp;
  kp.k = kKnnK;
  core::QueryStats qs;
  tree.query_sq_batch(ds.queries, kKnnK, *pool, core_t, bws, {}, {},
                      core::TraversalPolicy::Exact, &qs);
  index->knn_into(ds.queries, kp, api_t, sws);
  Tracer& tr = tracer();
  const bool traced = tr.on();
  tr.set_on(false);
  const std::vector<double> untraced = timed_passes(
      [&] { index->knn_into(ds.queries, kp, api_t, sws); }, min_passes,
      budget_s * 0.1);
  tr.set_on(traced);
  std::vector<double> api_knn, core_knn;
  const auto knn_start = Clock::now();
  while (static_cast<int>(api_knn.size()) < min_passes ||
         seconds_since(knn_start) < budget_s * 0.2) {
    {
      Scoped s("api.knn_into", root.id());
      const auto t0 = Clock::now();
      index->knn_into(ds.queries, kp, api_t, sws);
      api_knn.push_back(seconds_since(t0));
    }
    {
      Scoped s("core.query_sq_batch", root.id());
      const auto t0 = Clock::now();
      tree.query_sq_batch(ds.queries, kKnnK, *pool, core_t, bws);
      core_knn.push_back(seconds_since(t0));
    }
  }
  Digest dc, da;
  dc.table(core_t);
  da.table(api_t);
  if (dc.get() != da.get()) outcome.mismatch("local: facade and core KNN differ");
  check_knn_rows(ds.points, ds.queries, core_t, kKnnK, "local knn", outcome);

  core::QueryStats qs_self;
  core::NeighborTable self_core, self_api;
  tree.query_self_batch(kSelfK, *pool, self_core, bws, &qs_self);
  panda::SearchParams sp;
  sp.k = kSelfK;
  std::vector<double> api_self, core_self;
  const auto self_start = Clock::now();
  while (static_cast<int>(api_self.size()) < (ds.smoke ? 1 : 3) ||
         seconds_since(self_start) < budget_s * 0.2) {
    {
      Scoped s("api.self_knn_into", root.id());
      const auto t0 = Clock::now();
      index->self_knn_into(sp, self_api, sws);
      api_self.push_back(seconds_since(t0));
    }
    {
      Scoped s("core.query_self_batch", root.id());
      const auto t0 = Clock::now();
      tree.query_self_batch(kSelfK, *pool, self_core, bws);
      core_self.push_back(seconds_since(t0));
    }
  }
  Digest dsc, dsa;
  dsc.table(self_core);
  dsa.table(self_api);
  if (dsc.get() != dsa.get()) {
    outcome.mismatch("local: facade and core self-KNN differ");
  }
  check_knn_rows(ds.points, ds.points, self_core, kSelfK, "local self-knn",
                 outcome);
  outcome.attempted += static_cast<std::uint64_t>(
      q * static_cast<double>(api_knn.size() + core_knn.size() +
                              untraced.size()) +
      n * static_cast<double>(api_self.size() + core_self.size()));

  double ns_ppd = 0.0;
  {
    Scoped s("simd.kernel", root.id());
    ns_ppd = kernel_ns_per_point_dim(ds.points, ds.queries, ds.smoke);
  }

  double build_wide_s = 0.0;
  core::KdTree tree_wide;
  {
    Scoped s("parallel.build", root.id());
    const auto t0 = Clock::now();
    tree_wide = core::KdTree::build(ds.points, cfg, *wide);
    build_wide_s = seconds_since(t0);
  }
  core::NeighborTable tw;
  core::BatchWorkspace bws_wide;
  tree_wide.query_sq_batch(ds.queries, kKnnK, *wide, tw, bws_wide);
  std::vector<double> knn_wide;
  {
    Scoped s("parallel.knn", root.id());
    knn_wide = timed_passes(
        [&] { tree_wide.query_sq_batch(ds.queries, kKnnK, *wide, tw, bws_wide); },
        min_passes, budget_s * 0.15);
  }

  const double core_knn_s = median(core_knn);
  const double core_self_s = median(core_self);
  const double ppq = static_cast<double>(qs.points_scanned) / q;
  const double dims = static_cast<double>(ds.dims());
  m.set("simd.ns_per_point_dim", ns_ppd, "ns");
  m.set("simd.kernel_share", ppq * dims * ns_ppd / (core_knn_s / q * 1e9),
        "ratio");
  m.set("simd.bytes_per_query", ppq * dims * 4.0, "B");
  m.set("core.build_s", build_s, "s");
  m.set("core.build.data_parallel_s", bd.data_parallel, "s");
  m.set("core.build.thread_parallel_s", bd.thread_parallel, "s");
  m.set("core.build.simd_packing_s", bd.simd_packing, "s");
  m.set("core.knn_s", core_knn_s, "s");
  m.set("core.self_s", core_self_s, "s");
  m.set("core.nodes_per_query", static_cast<double>(qs.nodes_visited) / q,
        "count");
  m.set("core.leaves_per_query", static_cast<double>(qs.leaves_visited) / q,
        "count");
  m.set("core.points_per_query", ppq, "count");
  m.set("core.self.points_per_query",
        static_cast<double>(qs_self.points_scanned) / n, "count");
  const double knn_speedup = core_knn_s / median(knn_wide);
  m.set("parallel.knn_speedup", knn_speedup, "x");
  m.set("parallel.knn_efficiency", knn_speedup / kWideThreads, "ratio");
  m.set("parallel.build_speedup", build_s / build_wide_s, "x");
  m.set("api.knn_overhead", median(api_knn) / core_knn_s, "x");
  m.set("api.self_overhead", median(api_self) / core_self_s, "x");

  // Kernel seconds per pass: the simd layer has no call of its own on
  // the query path, so the ledger uses this.
  const double simd_pass_s = ppq * q * dims * ns_ppd * 1e-9;
  info.raw("path.local",
           path_json("local", median(untraced),
                     {{"api", "api.knn_into"}, {"core", "core.query_sq_batch"}},
                     "simd", std::min(simd_pass_s, core_knn_s)));
  info.str("local.knn_digest", dc.hex());
  info.str("local.self_digest", dsc.hex());
}

// ---------------------------------------------------------------------
// dist, net, api (Dist).
// ---------------------------------------------------------------------

namespace {

panda::net::CommStats diff(const panda::net::CommStats& a,
                           const panda::net::CommStats& b) {
  panda::net::CommStats d;
  d.messages_sent = b.messages_sent - a.messages_sent;
  d.bytes_sent = b.bytes_sent - a.bytes_sent;
  d.messages_received = b.messages_received - a.messages_received;
  d.bytes_received = b.bytes_received - a.bytes_received;
  d.collective_ops = b.collective_ops - a.collective_ops;
  d.wait_seconds = b.wait_seconds - a.wait_seconds;
  d.model_seconds = b.model_seconds - a.model_seconds;
  return d;
}

}  // namespace

void probe_dist(const Dataset& ds, double budget_s, Metrics& m, Info& info,
                Outcome& outcome) {
  Scoped root("probe.dist");
  const int knn_passes = ds.smoke ? 2 : 7;
  const int self_passes = ds.smoke ? 1 : 3;
  panda::net::ClusterConfig cc;
  cc.ranks = kRanks;
  cc.threads_per_rank = 1;
  panda::net::Cluster cluster(cc);
  const auto ranks = static_cast<std::size_t>(kRanks);

  std::vector<panda::dist::DistBuildBreakdown> bd(ranks);
  std::vector<std::size_t> local_points(ranks);
  std::vector<panda::dist::DistQueryBreakdown> qb(ranks);
  std::vector<panda::dist::AllKnnStats> as(ranks);
  std::vector<std::vector<panda::net::CommStats>> snap(
      ranks, std::vector<panda::net::CommStats>(6));
  std::vector<double> run_into_s;
  core::NeighborTable rank0_table;
  const pdata::PointSet no_queries(ds.dims());
  const std::uint64_t root_id = root.id();

  cluster.run([&](panda::net::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const std::uint64_t n = ds.points.size();
    std::vector<std::uint64_t> idx;
    for (std::uint64_t i = r * n / ranks; i < (r + 1) * n / ranks; ++i) {
      idx.push_back(i);
    }
    const pdata::PointSet slice = ds.points.extract(idx);
    snap[r][0] = comm.stats();
    comm.barrier();
    std::uint64_t span = r == 0 ? tracer().begin("dist.build", root_id) : 0;
    const panda::dist::DistKdTree tree = panda::dist::DistKdTree::build(
        comm, slice, panda::dist::DistBuildConfig{}, &bd[r]);
    tracer().end(span);
    local_points[r] = tree.local_points().size();
    snap[r][1] = comm.stats();

    panda::dist::DistQueryEngine engine(comm, tree);
    panda::dist::DistQueryConfig qc;
    qc.k = kKnnK;
    core::NeighborTable table;
    const pdata::PointSet& mine = r == 0 ? ds.queries : no_queries;
    engine.run_into(mine, qc, table);
    snap[r][2] = comm.stats();
    for (int p = 0; p < knn_passes; ++p) {
      comm.barrier();
      span = r == 0 ? tracer().begin("dist.query.run_into", root_id) : 0;
      panda::dist::DistQueryBreakdown b;
      const auto t0 = Clock::now();
      engine.run_into(mine, qc, table, &b);
      if (r == 0) run_into_s.push_back(seconds_since(t0));
      tracer().end(span);
      qb[r].find_owner += b.find_owner;
      qb[r].local_knn += b.local_knn;
      qb[r].identify_remote += b.identify_remote;
      qb[r].remote_knn += b.remote_knn;
      qb[r].merge += b.merge;
      qb[r].non_overlapped_comm += b.non_overlapped_comm;
      qb[r].queries_owned += b.queries_owned;
      qb[r].queries_sent_remote += b.queries_sent_remote;
      qb[r].remote_requests += b.remote_requests;
    }
    snap[r][3] = comm.stats();
    if (r == 0) rank0_table = table;

    panda::dist::AllKnnEngine all(comm, tree);
    panda::dist::AllKnnConfig ac;
    ac.k = kSelfK;
    ac.batch_size = 256;
    core::NeighborTable self_table;
    all.run_into(ac, self_table);
    snap[r][4] = comm.stats();
    for (int p = 0; p < self_passes; ++p) {
      comm.barrier();
      span = r == 0 ? tracer().begin("dist.allknn.run_into", root_id) : 0;
      panda::dist::AllKnnStats st;
      all.run_into(ac, self_table, &st);
      tracer().end(span);
      as[r].local_knn += st.local_knn;
      as[r].remote_knn += st.remote_knn;
      as[r].merge += st.merge;
      as[r].non_overlapped_comm += st.non_overlapped_comm;
      as[r].queries_total += st.queries_total;
      as[r].queries_remote += st.queries_remote;
      as[r].request_messages += st.request_messages;
      as[r].request_bytes += st.request_bytes;
    }
    snap[r][5] = comm.stats();
  });
  check_knn_rows(ds.points, ds.queries, rank0_table, kKnnK, "dist engine knn",
                 outcome);

  // The same question through the Dist facade, untraced then traced.
  IndexOptions opts;
  opts.engine = IndexOptions::Engine::Dist;
  opts.cluster = cc;
  std::unique_ptr<Index> index;
  {
    Scoped s("api.dist.build", root.id());
    index = Index::build(ds.points, opts);
  }
  core::NeighborTable api_t;
  panda::SearchWorkspace sws;
  panda::SearchParams kp;
  kp.k = kKnnK;
  index->knn_into(ds.queries, kp, api_t, sws);
  Tracer& tr = tracer();
  const bool traced = tr.on();
  tr.set_on(false);
  const std::vector<double> untraced = timed_passes(
      [&] { index->knn_into(ds.queries, kp, api_t, sws); }, knn_passes,
      budget_s * 0.1);
  tr.set_on(traced);
  std::vector<double> api_knn;
  for (int p = 0; p < knn_passes; ++p) {
    Scoped s("api.dist.knn_into", root.id());
    const auto t0 = Clock::now();
    index->knn_into(ds.queries, kp, api_t, sws);
    api_knn.push_back(seconds_since(t0));
  }
  Digest de, da;
  de.table(rank0_table);
  da.table(api_t);
  if (de.get() != da.get()) outcome.mismatch("dist: facade and engine KNN differ");
  outcome.attempted += ds.queries.size() *
                           static_cast<std::uint64_t>(2 * knn_passes + 1 +
                                                      untraced.size()) +
                       ds.points.size() *
                           static_cast<std::uint64_t>(self_passes + 1);

  auto max_over = [&](auto f) {
    double v = 0.0;
    for (std::size_t r = 0; r < ranks; ++r) v = std::max(v, f(r));
    return v;
  };
  auto sum_over = [&](auto f) {
    double v = 0.0;
    for (std::size_t r = 0; r < ranks; ++r) v += f(r);
    return v;
  };
  const double kp_n = knn_passes;
  const double sp_n = self_passes;
  const double q = static_cast<double>(ds.queries.size());
  m.set("dist.build.global_tree_s", max_over([&](std::size_t r) { return bd[r].global_tree; }), "s");
  m.set("dist.build.redistribute_s", max_over([&](std::size_t r) { return bd[r].redistribute; }), "s");
  m.set("dist.build.local_s",
        max_over([&](std::size_t r) {
          return bd[r].local_data_parallel + bd[r].local_thread_parallel +
                 bd[r].simd_packing;
        }),
        "s");
  const double mean_pts =
      sum_over([&](std::size_t r) { return static_cast<double>(local_points[r]); }) /
      static_cast<double>(ranks);
  m.set("dist.rank_imbalance",
        max_over([&](std::size_t r) { return static_cast<double>(local_points[r]); }) /
            mean_pts,
        "ratio");
  m.set("dist.query.find_owner_s", max_over([&](std::size_t r) { return qb[r].find_owner; }) / kp_n, "s");
  m.set("dist.query.local_knn_s", max_over([&](std::size_t r) { return qb[r].local_knn; }) / kp_n, "s");
  m.set("dist.query.identify_remote_s", max_over([&](std::size_t r) { return qb[r].identify_remote; }) / kp_n, "s");
  m.set("dist.query.remote_knn_s", max_over([&](std::size_t r) { return qb[r].remote_knn; }) / kp_n, "s");
  m.set("dist.query.merge_s", max_over([&](std::size_t r) { return qb[r].merge; }) / kp_n, "s");
  m.set("dist.query.non_overlapped_comm_s", max_over([&](std::size_t r) { return qb[r].non_overlapped_comm; }) / kp_n, "s");
  const double owned = sum_over([&](std::size_t r) { return static_cast<double>(qb[r].queries_owned); });
  m.set("dist.query.remote_frac",
        sum_over([&](std::size_t r) { return static_cast<double>(qb[r].queries_sent_remote); }) / owned,
        "ratio");
  m.set("dist.query.remote_requests_per_query",
        sum_over([&](std::size_t r) { return static_cast<double>(qb[r].remote_requests); }) / (q * kp_n),
        "count");
  m.set("dist.allknn.local_knn_s", max_over([&](std::size_t r) { return as[r].local_knn; }) / sp_n, "s");
  m.set("dist.allknn.remote_knn_s", max_over([&](std::size_t r) { return as[r].remote_knn; }) / sp_n, "s");
  m.set("dist.allknn.merge_s", max_over([&](std::size_t r) { return as[r].merge; }) / sp_n, "s");
  m.set("dist.allknn.non_overlapped_comm_s", max_over([&](std::size_t r) { return as[r].non_overlapped_comm; }) / sp_n, "s");
  m.set("dist.allknn.remote_frac",
        sum_over([&](std::size_t r) { return static_cast<double>(as[r].queries_remote); }) /
            sum_over([&](std::size_t r) { return static_cast<double>(as[r].queries_total); }),
        "ratio");
  m.set("dist.allknn.request_messages",
        sum_over([&](std::size_t r) { return static_cast<double>(as[r].request_messages); }) / sp_n,
        "count");
  m.set("dist.allknn.request_bytes",
        sum_over([&](std::size_t r) { return static_cast<double>(as[r].request_bytes); }) / sp_n,
        "B");
  const struct {
    const char* phase;
    int from;
    double passes;
  } phases[] = {{"build", 0, 1.0}, {"knn", 2, kp_n}, {"self", 4, sp_n}};
  for (const auto& ph : phases) {
    const std::string p = std::string("net.") + ph.phase + ".";
    auto d = [&](std::size_t r) {
      return diff(snap[r][static_cast<std::size_t>(ph.from)],
                  snap[r][static_cast<std::size_t>(ph.from + 1)]);
    };
    m.set(p + "messages", sum_over([&](std::size_t r) { return static_cast<double>(d(r).messages_sent); }) / ph.passes, "count");
    m.set(p + "bytes", sum_over([&](std::size_t r) { return static_cast<double>(d(r).bytes_sent); }) / ph.passes, "B");
    m.set(p + "collective_ops", sum_over([&](std::size_t r) { return static_cast<double>(d(r).collective_ops); }) / ph.passes, "count");
    m.set(p + "wait_s", max_over([&](std::size_t r) { return d(r).wait_seconds; }) / ph.passes, "s");
    m.set(p + "model_comm_s", max_over([&](std::size_t r) { return d(r).model_seconds; }) / ph.passes, "s");
  }
  m.set("api.dist_overhead", median(api_knn) / median(run_into_s), "x");

  info.raw("path.dist",
           path_json("dist", median(untraced),
                     {{"api", "api.dist.knn_into"},
                      {"dist", "dist.query.run_into"}},
                     "core", m.get("dist.query.local_knn_s")));
  info.str("dist.knn_digest", de.hex());
}

// ---------------------------------------------------------------------
// serve and the mutable write path.
// ---------------------------------------------------------------------

namespace {

/// Pools the raw samples and counts of `part` into `into`.
void append(PhaseResult& into, const PhaseResult& part) {
  for (auto [dst, src] : {std::pair{&into.latency_ms, &part.latency_ms},
                          std::pair{&into.late_ms, &part.late_ms},
                          std::pair{&into.ingest_ms, &part.ingest_ms}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
  into.submitted += part.submitted;
  into.rejected += part.rejected;
  into.failed += part.failed;
  into.completed += part.completed;
}

}  // namespace

void probe_serve(const Dataset& ds, double budget_s, Metrics& m, Info& info,
                 Outcome& outcome) {
  Scoped root("probe.serve");
  IndexOptions opts;
  opts.engine = IndexOptions::Engine::Mutable;
  opts.threads = 1;
  std::shared_ptr<Index> index;
  {
    Scoped s("api.mutable.build", root.id());
    index = Index::build(ds.points, opts);
  }
  const float radius = serve_radius(*index, ds.queries);
  const double open_s = budget_s * 0.25;
  const double closed_s = budget_s * 0.2;
  const std::size_t max_requests = static_cast<std::size_t>(
      ds.serve_rate * (budget_s * 0.75 + 1.0) + 400000.0 * closed_s + 4096);
  auto timed = std::make_shared<TimedBackend>(
      std::make_shared<panda::serve::IndexBackend>(index), max_requests);
  panda::serve::ServeConfig sc;
  sc.overflow = panda::serve::ServeConfig::Overflow::Reject;
  panda::serve::QueryService service(timed, sc);
  WriteStream writes(ds.fresh, ds.points);
  LoadConfig lc;
  lc.radius = radius;
  lc.write_batches_per_s = ds.write_batches_per_s;
  LoadGenerator gen(service, ds.queries, lc, &writes);

  Tracer& tr = tracer();
  const bool traced = tr.on();
  tr.set_on(false);
  gen.open_loop(ds.serve_rate, ds.smoke ? 0.05 : 0.3, false);  // warm-up
  tr.set_on(traced);
  std::size_t b0 = timed->batches();
  const PhaseResult read_only =
      gen.open_loop(ds.serve_rate, budget_s * 0.1, false);
  const std::size_t b1 = timed->batches();
  // Only the open-loop slices with writes are traced: they are the
  // serving path the ledger accounts for.
  bool traced_all = true;
  // Untraced and traced open-loop slices alternate, so both see the
  // same forest and merge activity; the ledger compares their medians.
  PhaseResult reference, open;
  std::vector<double> open_exec_ms;
  std::int64_t rid = 0;
  constexpr int kSlices = 4;
  for (int slice = 0; slice < kSlices; ++slice) {
    tr.set_on(false);
    append(reference, gen.open_loop(ds.serve_rate, open_s / kSlices, true));
    tr.set_on(traced);
    const std::size_t b = timed->batches();
    const PhaseResult part = gen.open_loop(ds.serve_rate, open_s / kSlices, true);
    traced_all &= trace_requests(part, *timed, b, root.id(), rid);
    rid += static_cast<std::int64_t>(part.request_due_ns.size());
    for (std::size_t i = b; i < timed->batches(); ++i) {
      open_exec_ms.push_back(static_cast<double>(timed->batch(i).end_ns -
                                                 timed->batch(i).start_ns) *
                             1e-6);
    }
    append(open, part);
  }
  const PhaseResult closed = gen.closed_loop(64, closed_s, true);
  if (!traced_all) {
    outcome.mismatch("serve trace: batch log does not cover the requests");
  }
  const panda::serve::ServeStats st = service.stats();

  std::vector<double> read_only_exec_ms;
  for (std::size_t i = b0; i < b1; ++i) {
    read_only_exec_ms.push_back(
        static_cast<double>(timed->batch(i).end_ns - timed->batch(i).start_ns) *
        1e-6);
  }
  std::sort(read_only_exec_ms.begin(), read_only_exec_ms.end());
  std::sort(open_exec_ms.begin(), open_exec_ms.end());
  std::vector<double> lat = open.latency_ms;
  std::sort(lat.begin(), lat.end());
  std::vector<double> late = open.late_ms;
  std::sort(late.begin(), late.end());
  std::vector<double> ins = timed->insert_ms();
  std::sort(ins.begin(), ins.end());
  std::vector<double> ers = timed->erase_ms();
  std::sort(ers.begin(), ers.end());
  std::vector<double> visible = open.ingest_ms;
  visible.insert(visible.end(), closed.ingest_ms.begin(), closed.ingest_ms.end());

  const double exec_p50 = quantile_sorted(open_exec_ms, 0.5);
  m.set("serve.execute_ms.p50", exec_p50, "ms");
  m.set("serve.execute_ms.p99", quantile_sorted(open_exec_ms, 0.99), "ms");
  m.set("serve.batch_size.mean", st.mean_batch_size, "count");
  m.set("serve.flush_window_frac",
        st.batches > 0 ? static_cast<double>(st.flushes_on_window) /
                             static_cast<double>(st.batches)
                       : 0.0,
        "ratio");
  m.set("serve.max_queue_depth", static_cast<double>(st.max_queue_depth),
        "count");
  m.set("serve.rejected", static_cast<double>(st.rejected), "count");
  m.set("serve.closed_qps",
        static_cast<double>(closed.completed_in_window) / closed.seconds, "1/s");
  m.set("serve.ingest_ms.p50", median(visible), "ms");
  m.set("core.mutable.insert_ms.p50", quantile_sorted(ins, 0.5), "ms");
  m.set("core.mutable.insert_ms.p99", quantile_sorted(ins, 0.99), "ms");
  m.set("core.mutable.erase_ms.p50", quantile_sorted(ers, 0.5), "ms");
  m.set("core.mutable.write_cost",
        exec_p50 / quantile_sorted(read_only_exec_ms, 0.5), "x");
  m.set("serve.p50_ms", quantile_sorted(lat, 0.5), "ms");
  m.set("serve.p99_ms", quantile_sorted(lat, 0.99), "ms");
  m.set("serve.p999_ms", quantile_sorted(lat, 0.999), "ms");
  m.set("serve.samples", static_cast<double>(lat.size()), "count");
  m.set("serve.generator_late_ms", quantile_sorted(late, 0.99), "ms");

  for (const PhaseResult* p :
       {&read_only, static_cast<const PhaseResult*>(&reference),
        static_cast<const PhaseResult*>(&open), &closed}) {
    outcome.attempted += p->submitted + p->ingest_ms.size();
    outcome.failed += p->rejected + p->failed;
  }
  Digest digest;
  check_service(service, writes.live_points(), ds.queries, lc, outcome,
                digest);
  info.raw("path.serve",
           "{\"name\":\"serve\",\"e2e_untraced_s\":" +
               json_num(median(reference.latency_ms) * 1e-3) +
               ",\"layers\":[[\"serve\",\"serve.request\"],[\"backend\","
               "\"serve.execute\"]]}");
  info.num("serve.rate", ds.serve_rate);
  info.num("serve.radius", radius);
  info.str("serve.check_digest", digest.hex());
}

}  // namespace perfbench
