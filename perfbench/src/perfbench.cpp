// The benchmark program: one process runs one workload from one seed.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--spans PATH]
//
// --trace 0 measures the end-to-end metrics of the workload's own path
// with tracing off. --trace 1 runs the per-layer probes (every layer's
// public entry point, fed the workload's inputs), records a span around
// every call, and writes the spans to PATH at exit. Either way sample
// rows are checked against the brute-force oracle; the last stdout line
// is the JSON result, and any mismatch exits 1.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "data/cosmology.hpp"
#include "data/dayabay.hpp"
#include "data/plasma.hpp"
#include "serve/query_service.hpp"
#include "serve_load.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = panda::core;
namespace pdata = panda::data;
using panda::Index;
using panda::IndexOptions;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string spans = "perfbench-spans.jsonl";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload local-dayabay10|dist-plasma3|"
               "serve-cosmo3 [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke] [--spans PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value());
      } else if (k == "--smoke") {
        a.smoke = true;
      } else if (k == "--spans") {
        a.spans = value();
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload != "local-dayabay10" && a.workload != "dist-plasma3" &&
      a.workload != "serve-cosmo3") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Fresh builds per run whose passes pool into the medians.
constexpr int kLayouts = 6;
/// Window of the windowed request rates.
constexpr double kWindowS = 0.25;
/// Workload sizes. Working sets near the per-core caches keep host
/// contention from dominating run-to-run spread (see README).
constexpr std::uint64_t kLocalPoints = 20000;
constexpr std::uint64_t kLocalQueries = 20000;
constexpr std::uint64_t kDistPoints = 400000;
constexpr std::uint64_t kDistQueries = 200000;
constexpr std::uint64_t kServePoints = 100000;
constexpr std::uint64_t kServeQueryPool = 65536;

/// The generators' structure (cluster centres, hotspots, filaments,
/// halo hierarchy) comes from this fixed seed; --seed picks which sample
/// of that distribution a run gets, so every seed measures the same
/// workload on different points.
constexpr std::uint64_t kStructureSeed = 2016;
constexpr std::uint64_t kSeedStride = std::uint64_t{1} << 36;

/// Points with generator ids [begin, begin + count), relabelled to
/// global ids first_id, first_id + 1, ...
pdata::PointSet draw(const pdata::Generator& gen, std::uint64_t begin,
                     std::uint64_t count, std::uint64_t first_id) {
  pdata::PointSet out(gen.dims());
  out.reserve(count);
  gen.generate(begin, begin + count, out);
  for (std::size_t i = 0; i < out.size(); ++i) out.set_id(i, first_id + i);
  return out;
}

Dataset make_dataset(const Args& a) {
  Dataset ds;
  ds.workload = a.workload;
  ds.smoke = a.smoke;
  std::unique_ptr<pdata::Generator> gen;
  std::uint64_t n = 0, q = 0;
  if (a.workload == "local-dayabay10") {
    gen = std::make_unique<pdata::DayaBayGenerator>(pdata::DayaBayParams{},
                                                    kStructureSeed);
    n = a.smoke ? 20000 : kLocalPoints;
    q = a.smoke ? 1000 : kLocalQueries;
  } else if (a.workload == "dist-plasma3") {
    gen = std::make_unique<pdata::PlasmaGenerator>(pdata::PlasmaParams{},
                                                   kStructureSeed);
    n = a.smoke ? 40000 : kDistPoints;
    q = a.smoke ? 1000 : kDistQueries;
  } else {
    gen = std::make_unique<pdata::CosmologyGenerator>(
        pdata::CosmologyParams{}, kStructureSeed);
    n = a.smoke ? 20000 : kServePoints;
    q = a.smoke ? 4096 : kServeQueryPool;
    ds.serve_rate = a.smoke ? 2000.0 : 20000.0;
  }
  // Enough fresh points for every write phase of either run mode at
  // the highest write rate any workload uses.
  const double write_pts_per_s = a.smoke ? 2000.0 : 20000.0;
  const auto fresh = static_cast<std::uint64_t>(
      write_pts_per_s * (a.seconds + 2.0) + 4.0 * kWriteBatch);
  const std::uint64_t base = a.seed * kSeedStride;
  ds.points = draw(*gen, base, n, 0);
  ds.queries = draw(*gen, base + n, q, n);
  if (a.trace == 1 || ds.serve_rate > 0.0) {  // only serving writes
    ds.fresh = draw(*gen, base + n + q, fresh, n + q);
  }
  ds.write_batches_per_s = ds.serve_rate / kWriteBatch;
  return ds;
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_num(v[i]);
  }
  return out + "]";
}

/// Median over consecutive `window_s` windows, from `start_ns` for
/// `seconds`, of completions per second: a stall (a merge burst, a
/// descheduled thread) slows one window, not the figure.
double windowed_qps(const std::vector<std::int64_t>& done_ns,
                    std::int64_t start_ns, double seconds, double window_s) {
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  const auto windows = static_cast<std::size_t>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(seconds * 1e9) / width));
  std::vector<double> counts(windows, 0.0);
  for (const std::int64_t done : done_ns) {
    const std::int64_t w = (done - start_ns) / width;
    if (w >= 0 && static_cast<std::size_t>(w) < windows) {
      counts[static_cast<std::size_t>(w)] += 1.0;
    }
  }
  return median(counts) / window_s;
}

// ---------------------------------------------------------------------
// End-to-end: Local and Dist.
// ---------------------------------------------------------------------

void e2e_index(const Dataset& ds, const Args& a, Metrics& m, Info& info,
               Outcome& out) {
  IndexOptions opts;
  if (ds.workload == "local-dayabay10") {
    opts.engine = IndexOptions::Engine::Local;
    // A pool of 1: on a 4-vCPU VM whose vCPU pairs share physical cores,
    // where a 2- or 4-thread pool landed decided its speed per process
    // (see README), so the fork-join is measured by the traced run.
    opts.threads = 1;
    info.str("threads", "caller only (a pool of 1 runs inline)");
  } else {
    opts.engine = IndexOptions::Engine::Dist;
    opts.cluster.ranks = kRanks;
    opts.cluster.threads_per_rank = 1;
    info.str("threads",
             "4 ranks x 1 pool thread; caller and Dist session thread "
             "blocked");
  }
  // Each layout is a fresh build: the same points land in newly
  // allocated memory, and pass times depend on that placement, so the
  // medians pool passes over several builds.
  const int layouts = a.smoke ? 1 : kLayouts;
  const double slice = a.seconds / layouts;
  { const auto warm = Index::build(ds.points, opts); }
  std::vector<double> setup, knn_s, self_s, lat, window_qps;
  core::NeighborTable knn, self, one_t;
  panda::SearchWorkspace ws;
  panda::SearchParams kp;
  kp.k = kKnnK;
  panda::SearchParams sp;
  sp.k = kSelfK;
  Digest knn_digest, self_digest;
  for (int layout = 0; layout < layouts; ++layout) {
    // Fresh pages for this layout: hand freed memory back to the
    // kernel, then copy the queries and build anew.
    malloc_trim(0);
    pdata::PointSet queries(ds.dims());
    queries.append(ds.queries);
    std::unique_ptr<Index> index;
    const auto t0 = Clock::now();
    index = Index::build(ds.points, opts);
    setup.push_back(seconds_since(t0));

    index->knn_into(queries, kp, knn, ws);
    for (const double t :
         timed_passes([&] { index->knn_into(queries, kp, knn, ws); },
                      a.smoke ? 1 : 2, 0.45 * slice)) {
      knn_s.push_back(t);
    }
    if (layout == 0) index->self_knn_into(sp, self, ws);
    for (const double t :
         timed_passes([&] { index->self_knn_into(sp, self, ws); }, 1,
                      0.4 * slice)) {
      self_s.push_back(t);
    }
    Digest dk, dsf;
    dk.table(knn);
    dsf.table(self);
    if (layout == 0) {
      knn_digest = dk;
      self_digest = dsf;
    } else if (dk.get() != knn_digest.get() ||
               dsf.get() != self_digest.get()) {
      out.mismatch("results differ between builds of the same points");
    }

    // One query per call, back to back: request-in to result-out with
    // one request outstanding. Every answer must equal its batch row.
    pdata::PointSet one(ds.dims(), 1);
    std::vector<std::int64_t> done;
    const std::int64_t loop_start = now_ns();
    const double loop_s = std::max(kWindowS, 0.1 * slice);
    for (std::size_t i = 0;
         now_ns() - loop_start < static_cast<std::int64_t>(loop_s * 1e9);
         ++i) {
      const std::size_t j = i % queries.size();
      for (std::size_t d = 0; d < ds.dims(); ++d) {
        one.set(0, d, queries.at(j, d));
      }
      one.set_id(0, queries.id(j));
      const std::int64_t q0 = now_ns();
      index->knn_into(one, kp, one_t, ws);
      done.push_back(now_ns());
      lat.push_back(static_cast<double>(done.back() - q0) * 1e-9);
      const auto got = one_t[0];
      const auto want = knn[j];
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
        out.mismatch("single-query answer differs from its batch row");
        break;
      }
    }
    window_qps.push_back(windowed_qps(done, loop_start, loop_s, kWindowS));
  }
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("setup_s", median(setup), "s");
  m.set("knn_qps", static_cast<double>(ds.queries.size()) / median(knn_s),
        "1/s");
  m.set("selfknn_qps", static_cast<double>(ds.points.size()) / median(self_s),
        "1/s");

  check_knn_rows(ds.points, ds.queries, knn, kKnnK, "knn", out);
  check_knn_rows(ds.points, ds.points, self, kSelfK, "self-knn", out);
  out.attempted += ds.queries.size() * (knn_s.size() + layouts) +
                   ds.points.size() * (self_s.size() + layouts) + lat.size();

  std::vector<double> sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  const double tail = tail_level(sorted.size());
  info.num("request_p50_ms", quantile_sorted(sorted, 0.5) * 1e3);
  info.num("request_qps", median(window_qps));
  info.num("request_tail_quantile", tail);
  info.num("request_tail_ms", quantile_sorted(sorted, tail) * 1e3);
  info.num("request_samples", static_cast<double>(lat.size()));
  info.num("layouts", layouts);
  info.raw("knn_pass_s", samples_json(knn_s));
  info.raw("self_pass_s", samples_json(self_s));
  info.raw("setup_samples_s", samples_json(setup));
  info.str("knn_digest", knn_digest.hex());
  info.str("self_digest", self_digest.hex());
}

// ---------------------------------------------------------------------
// End-to-end: serving.
// ---------------------------------------------------------------------

void e2e_serve(Dataset& ds, const Args& a, Metrics& m, Info& info,
               Outcome& out) {
  info.str("threads",
           "generator + collector + 1 service worker (index pool of 1 runs "
           "inline on it); the mutable index's seal and merge threads run "
           "in the background");
  IndexOptions opts;
  opts.engine = IndexOptions::Engine::Mutable;
  opts.threads = 1;
  panda::serve::ServeConfig sc;
  sc.overflow = panda::serve::ServeConfig::Overflow::Reject;
  const double s = a.seconds;
  const int layouts = a.smoke ? 1 : kLayouts;
  std::shared_ptr<Index> index;
  std::unique_ptr<panda::serve::QueryService> service;
  std::vector<double> setup, knn_s, self_s;
  core::NeighborTable knn, self;
  panda::SearchWorkspace ws;
  panda::SearchParams kp;
  kp.k = kKnnK;
  panda::SearchParams sp;
  sp.k = kSelfK;
  Digest knn_digest, self_digest;
  pdata::PointSet queries(ds.dims());
  for (int i = 0; i <= layouts; ++i) {  // build 0 is the warm-up
    service.reset();
    index.reset();
    // Fresh pages for each layout, as in e2e_index.
    queries = pdata::PointSet(ds.dims());
    malloc_trim(0);
    queries.append(ds.queries);
    const auto t0 = Clock::now();
    index = Index::build(ds.points, opts);
    service = std::make_unique<panda::serve::QueryService>(
        std::make_shared<panda::serve::IndexBackend>(index), sc);
    if (i == 0) continue;
    setup.push_back(seconds_since(t0));
    // Batch calls on the live index before the write stream starts (the
    // forest is the seed tree alone, so its shape is the same every run).
    index->knn_into(queries, kp, knn, ws);
    for (const double t :
         timed_passes([&] { index->knn_into(queries, kp, knn, ws); },
                      a.smoke ? 1 : 2, 0.15 * s / layouts)) {
      knn_s.push_back(t);
    }
    if (i == 1) index->self_knn_into(sp, self, ws);
    for (const double t :
         timed_passes([&] { index->self_knn_into(sp, self, ws); }, 1,
                      0.2 * s / layouts)) {
      self_s.push_back(t);
    }
    Digest dk, dsf;
    dk.table(knn);
    dsf.table(self);
    if (i == 1) {
      knn_digest = dk;
      self_digest = dsf;
    } else if (dk.get() != knn_digest.get() ||
               dsf.get() != self_digest.get()) {
      out.mismatch("results differ between builds of the same points");
    }
  }
  ds.radius = serve_radius(*index, ds.queries);
  check_knn_rows(ds.points, ds.queries, knn, kKnnK, "mutable knn", out);
  check_knn_rows(ds.points, ds.points, self, kSelfK, "mutable self-knn", out);

  WriteStream writes(ds.fresh, ds.points);
  LoadConfig lc;
  lc.radius = ds.radius;
  lc.write_batches_per_s = ds.write_batches_per_s;
  LoadGenerator gen(*service, ds.queries, lc, &writes);
  gen.open_loop(ds.serve_rate, a.smoke ? 0.05 : 0.5, false);  // warm-up
  const PhaseResult open = gen.open_loop(ds.serve_rate, 0.25 * s, true);
  const PhaseResult closed = gen.closed_loop(64, 0.15 * s, true);
  m.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<double> lat = open.latency_ms;
  std::sort(lat.begin(), lat.end());
  std::vector<double> late = open.late_ms;
  std::sort(late.begin(), late.end());
  m.set("setup_s", median(setup), "s");
  m.set("knn_qps", static_cast<double>(ds.queries.size()) / median(knn_s),
        "1/s");
  m.set("selfknn_qps", static_cast<double>(ds.points.size()) / median(self_s),
        "1/s");

  Digest check_digest;
  const pdata::PointSet live = writes.live_points();
  check_service(*service, live, ds.queries, lc, out, check_digest);
  Digest live_digest;
  for (std::size_t i = 0; i < live.size(); ++i) live_digest.value(live.id(i));
  for (const PhaseResult* p : {&open, &closed}) {
    out.attempted += p->submitted + p->ingest_ms.size();
    out.failed += p->rejected + p->failed;
  }
  out.attempted += ds.queries.size() * (knn_s.size() + layouts) +
                   ds.points.size() * (self_s.size() + layouts);

  const double tail = tail_level(lat.size());
  info.num("request_p50_ms", quantile_sorted(lat, 0.5));
  info.num("request_qps",
           closed.request_done_ns.empty()
               ? 0.0
               : windowed_qps(closed.request_done_ns,
                              closed.request_due_ns.front(), closed.seconds,
                              kWindowS));
  info.num("request_tail_quantile", tail);
  info.num("request_tail_ms", quantile_sorted(lat, tail));
  info.num("request_samples", static_cast<double>(lat.size()));
  info.num("generator_late_p50_ms", quantile_sorted(late, 0.5));
  info.num("generator_late_max_ms", late.empty() ? 0.0 : late.back());
  std::vector<double> ingest = open.ingest_ms;
  ingest.insert(ingest.end(), closed.ingest_ms.begin(),
                closed.ingest_ms.end());
  info.num("ingest_p50_ms", median(ingest));
  info.num("ingest_batches", static_cast<double>(ingest.size()));
  info.num("open_rate", ds.serve_rate);
  info.num("closed_outstanding", 64);
  info.num("closed_completed", static_cast<double>(closed.completed));
  info.num("rejected", static_cast<double>(open.rejected + closed.rejected));
  info.num("radius", ds.radius);
  info.num("layouts", layouts);
  info.raw("knn_pass_s", samples_json(knn_s));
  info.raw("self_pass_s", samples_json(self_s));
  info.raw("setup_samples_s", samples_json(setup));
  info.str("knn_digest", knn_digest.hex());
  info.str("self_digest", self_digest.hex());
  info.str("live_digest", live_digest.hex());
  info.str("check_digest", check_digest.hex());
}

// ---------------------------------------------------------------------

void traced_run(Dataset& ds, const Args& a, Metrics& m, Info& info,
                Outcome& out) {
  info.str("threads",
           "probes run one at a time: local = caller (pool of 1), then a "
           "pool of 4 for the parallel layer; dist = 4 ranks x 1 thread; "
           "serve = generator + collector + 1 worker + the index's "
           "background seal/merge");
  tracer().set_on(true);
  const double budget = a.seconds / 3.0;
  probe_local(ds, budget, m, info, out);
  if (ds.serve_rate == 0.0) {
    // Workloads without their own serving load: a fifth of the
    // single-thread batch throughput keeps the service well below
    // capacity, capped at the serving workload's rate.
    const double knn1_s =
        m.get("parallel.knn_speedup") * m.get("core.knn_s");
    ds.serve_rate = std::min(a.smoke ? 2000.0 : 20000.0,
                             0.2 * static_cast<double>(ds.queries.size()) /
                                 knn1_s);
    // One inserted point per request, as on the serving workload.
    ds.write_batches_per_s = ds.serve_rate / kWriteBatch;
  }
  probe_dist(ds, budget, m, info, out);
  probe_serve(ds, budget, m, info, out);
  tracer().write(a.spans);
  info.str("spans", a.spans);
  info.num("span_count", static_cast<double>(tracer().size()));
  const char* own = ds.workload == "local-dayabay10" ? "local"
                    : ds.workload == "dist-plasma3"  ? "dist"
                                                     : "serve";
  info.str("own_path", own);
}

std::string isa() {
  std::string s;
#ifdef __SSE2__
  s += "sse2 ";
#endif
#ifdef __AVX2__
  s += "avx2 ";
#endif
#ifdef __AVX512F__
  s += "avx512f ";
#endif
#ifdef __FMA__
  s += "fma ";
#endif
  return s.empty() ? "generic" : s.substr(0, s.size() - 1);
}

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimized build\n";
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing build type " << PERFBENCH_BUILD_TYPE
              << "\n";
    return 3;
  }
  const std::uint64_t steal0 = steal_jiffies();
  const double load0 = load_average();
  const auto start = Clock::now();
  Dataset ds = make_dataset(a);
  Metrics m;
  Info info;
  Outcome out;
  info.str("workload", a.workload);
  info.num("seed", static_cast<double>(a.seed));
  info.num("seconds", a.seconds);
  info.num("trace", a.trace);
  info.num("smoke", a.smoke ? 1 : 0);
  info.str("build_type", PERFBENCH_BUILD_TYPE);
  info.str("compiled_isa", isa());
  info.num("nproc", std::thread::hardware_concurrency());
  info.num("points", static_cast<double>(ds.points.size()));
  info.num("queries", static_cast<double>(ds.queries.size()));
  info.num("dims", static_cast<double>(ds.dims()));
  try {
    if (a.trace == 1) {
      traced_run(ds, a, m, info, out);
    } else if (a.workload == "serve-cosmo3") {
      e2e_serve(ds, a, m, info, out);
    } else {
      e2e_index(ds, a, m, info, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  info.num("wall_s", seconds_since(start));
  info.num("steal_jiffies", static_cast<double>(steal_jiffies() - steal0));
  info.num("loadavg_start", load0);
  info.num("loadavg_end", load_average());
  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += json_str(out.errors[i]);
  }
  info.raw("errors", errors + "]");

  std::string metrics = "{";
  for (std::size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    if (i > 0) metrics += ",";
    metrics += json_str(x.name);
    metrics += ":{\"value\":" + json_num(x.value);
    metrics += ",\"unit\":" + json_str(x.unit) + "}";
  }
  metrics += "}";
  std::cout << "{\"correct\":" << (out.correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":" << metrics
            << ",\"info\":" << info.json() << "}" << std::endl;
  return out.correct && out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
