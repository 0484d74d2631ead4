// bench_mutable: live updates without the full-rebuild stall.
//
// Before Engine::Mutable the only way to absorb new points was a full
// rebuild plus a serving snapshot swap — every insert potentially paid
// an O(n log n) stall. The logarithmic method (DESIGN.md §12) bounds
// the write path to buffer appends and background merges; this harness
// measures what that buys and digest-gates what it must not cost:
//
//   1. sustained insert throughput while queries could run (points/s
//      through MutableIndex::insert, background merges churning);
//   2. the stall profile: max/mean insert() call latency vs the
//      baseline stall of the strategy it replaces (one full
//      KdTree::build over the final live set — what rebuild+swap pays
//      on every refresh). "Zero full-rebuild stalls" = no insert call
//      ever took as long as that rebuild;
//   3. query latency during background merges vs quiesced — the
//      interference bound (gate: p99 during <= 2x quiesced p99);
//   4. exactness: after the stream settles, forest answers must be
//      digest-identical to a fresh from-scratch build over the same
//      live points (the bit-identical contract of the mutable tier).
//
//   5. what durability costs: WAL-off against group-commit ingest, the
//      median ratio of 9 alternating pairs on fresh indexes (gate:
//      >= 0.5x).
//
// Emits BENCH_mutable.json next to the binary. Exit status is the
// gate: 0 iff digests match AND no insert stalled a full-rebuild's
// worth AND p99-during stays within 2x quiesced p99 AND the median
// group-commit ratio is at least 0.5x.
//
// Usage: bench_mutable [--smoke] [points] [queries]
//   default 400,000 streamed points / 20,000 digest queries; --smoke
//   20,000 / 2,000 (the mode ci.sh bench-smoke runs from build/).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/kdtree.hpp"
#include "core/mutable_index.hpp"
#include "data/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace panda;
using core::Neighbor;

std::uint64_t fold_row(std::uint64_t qid, std::span<const Neighbor> row) {
  std::uint64_t h = 1469598103934665603ull ^ qid;
  for (const Neighbor& nb : row) {
    h = (h ^ nb.id) * 1099511628211ull;
    std::uint32_t bits;
    std::memcpy(&bits, &nb.dist2, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

std::uint64_t digest_table(const core::NeighborTable& table) {
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    digest += fold_row(i, table[i]);
  }
  return digest;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest-rank: smallest value with at least q of the mass at or
  // below it. A floor-based index degenerates to the literal maximum
  // at q=0.99 with ~100 samples, which hands the latency gate to a
  // single scheduler hiccup instead of the distribution's tail.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t idx = std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1;
  return samples[idx];
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n = 400000;
  std::uint64_t n_queries = 20000;
  bool sized = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      n = 20000;
      n_queries = 2000;
    } else if (!sized) {
      n = std::strtoull(argv[a], nullptr, 10);
      sized = true;
    } else {
      n_queries = std::strtoull(argv[a], nullptr, 10);
    }
  }
  const std::size_t k = 5;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, n / 200);
  auto pool = std::make_shared<parallel::ThreadPool>(8);
  const auto gen = data::make_generator("cosmo", bench::kDataSeed);
  const data::PointSet queries = bench::make_queries(*gen, n, n_queries);
  // Probe batches sized like a busy server's admission window — and,
  // as a measurement, long enough (tens of ms) to average over many
  // scheduler timeslices. A batch whose quiesced duration is one or
  // two timeslices measures timeslice beats against the background
  // merge thread, not steady interference.
  const std::uint64_t probe_count = 1024;
  data::PointSet probes(gen->dims());
  gen->generate(n + n_queries, n + n_queries + probe_count, probes);

  core::MutableConfig config;
  config.buffer_capacity = 4096;
  config.merge_fan_in = 4;
  core::MutableIndex index(gen->dims(), config, core::BuildConfig{}, pool);
  core::NeighborTable table;
  core::ForestWorkspace ws;

  bench::print_header(
      "bench_mutable: streaming inserts vs the full-rebuild stall",
      "DESIGN.md §12 (the logarithmic method over packed kd-trees)");
  std::printf("streaming %s points in %s-point chunks (buffer %zu, "
              "fan-in %" PRIu32 "), erasing 1/16 of every 4th chunk\n",
              bench::human_count(n).c_str(),
              bench::human_count(chunk).c_str(), config.buffer_capacity,
              config.merge_fan_in);

  // ------------------------------------------------------------------
  // Phase 1: the stream. Inserts + stripes of erases, with probe query
  // batches interleaved so their latency is measured *while* seals and
  // level merges run behind them.
  // ------------------------------------------------------------------
  std::vector<double> insert_ms;
  std::vector<double> during_batch_ms;
  std::vector<core::MutationStats> during_shape;
  double insert_seconds_total = 0.0;
  std::uint64_t streamed = 0;
  std::uint64_t erased_total = 0;
  WallTimer stream_watch;
  for (std::uint64_t begin = 0; begin < n; begin += chunk) {
    const std::uint64_t end = std::min(n, begin + chunk);
    data::PointSet fresh(gen->dims());
    gen->generate(begin, end, fresh);
    WallTimer insert_watch;
    index.insert(fresh);
    const double ms = insert_watch.seconds() * 1e3;
    insert_ms.push_back(ms);
    insert_seconds_total += insert_watch.seconds();
    streamed += end - begin;

    const std::uint64_t chunk_no = begin / chunk;
    if (chunk_no % 4 == 3) {
      std::vector<std::uint64_t> doomed;
      for (std::uint64_t id = begin; id < end; id += 16) {
        doomed.push_back(id);
      }
      erased_total += index.erase(doomed);
    }
    if (chunk_no % 2 == 1) {
      if (during_batch_ms.empty()) {
        // One untimed warmup: the first batch pays pool-thread wakeup,
        // lazy workspace allocation, and first-touch page faults —
        // one-time costs, not the steady-state interference this
        // phase measures.
        index.knn_batch(probes, k, table, ws);
      }
      WallTimer batch_watch;
      index.knn_batch(probes, k, table, ws);
      during_batch_ms.push_back(batch_watch.seconds() * 1e3);
      during_shape.push_back(index.stats());
    }
  }
  const double stream_seconds = stream_watch.seconds();
  const double insert_pps =
      static_cast<double>(streamed) / insert_seconds_total;
  const double max_insert_ms =
      *std::max_element(insert_ms.begin(), insert_ms.end());

  // ------------------------------------------------------------------
  // Phase 2: quiesce, then the same probe batches with the merge
  // machinery idle.
  // ------------------------------------------------------------------
  index.quiesce();
  // Same warmup courtesy as the during phase (pool threads may have
  // parked while quiesce() drained), and twice the sample count: the
  // quiesced p99 is the gate's denominator, so it should be at least
  // as statistically settled as the numerator.
  index.knn_batch(probes, k, table, ws);
  std::vector<double> quiesced_batch_ms;
  for (std::size_t p = 0; p < 2 * during_batch_ms.size(); ++p) {
    WallTimer batch_watch;
    index.knn_batch(probes, k, table, ws);
    quiesced_batch_ms.push_back(batch_watch.seconds() * 1e3);
  }
  // Slowest during-stream batches with the forest shape they saw —
  // the p99 diagnosis view (structural depth vs merge interference).
  {
    std::vector<std::size_t> order(during_batch_ms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return during_batch_ms[a] > during_batch_ms[b];
    });
    std::printf("slowest during-stream probe batches:\n");
    for (std::size_t r = 0; r < std::min<std::size_t>(8, order.size());
         ++r) {
      const std::size_t i = order[r];
      const core::MutationStats& s = during_shape[i];
      std::printf("  #%3zu %8.3f ms  trees=%" PRIu64 " buffered=%" PRIu64
                  " pending_groups=%" PRIu64 " merge_in_flight=%d\n",
                  i, during_batch_ms[i], s.trees, s.buffered_points,
                  s.pending_sealed_groups, s.merge_in_flight ? 1 : 0);
    }
  }
  const double p99_during = percentile(during_batch_ms, 0.99);
  const double p99_quiesced = percentile(quiesced_batch_ms, 0.99);
  const double p50_during = percentile(during_batch_ms, 0.50);
  const double p50_quiesced = percentile(quiesced_batch_ms, 0.50);

  // ------------------------------------------------------------------
  // Phase 3: the baseline this subsystem replaces — one full rebuild
  // over the final live set (the stall rebuild+swap pays per refresh)
  // — which doubles as the digest oracle: a from-scratch tree over the
  // same live points must answer the digest queries bit-identically.
  // ------------------------------------------------------------------
  const data::PointSet live = index.live_points();
  WallTimer rebuild_watch;
  const core::KdTree fresh_tree =
      core::KdTree::build(live, core::BuildConfig{}, *pool);
  const double full_rebuild_ms = rebuild_watch.seconds() * 1e3;

  core::BatchWorkspace flat_ws;
  fresh_tree.query_batch(queries, k, *pool, table, flat_ws);
  const std::uint64_t fresh_digest = digest_table(table);
  index.knn_batch(queries, k, table, ws);
  const std::uint64_t forest_digest = digest_table(table);
  const bool digests_match = forest_digest == fresh_digest;

  const std::uint64_t rebuild_stalls = static_cast<std::uint64_t>(
      std::count_if(insert_ms.begin(), insert_ms.end(),
                    [&](double ms) { return ms >= full_rebuild_ms; }));
  const bool latency_gate = p99_during <= 2.0 * p99_quiesced;

  const core::MutationStats stats = index.stats();
  bench::print_rule();
  std::printf("insert throughput: %11.0f points/s  (%s points in %.2fs "
              "wall, %" PRIu64 " erased)\n",
              insert_pps, bench::human_count(streamed).c_str(),
              stream_seconds, erased_total);
  std::printf("forest after stream: %" PRIu64 " trees, %" PRIu64
              " seals, %" PRIu64 " level merges, %" PRIu64 " tombstones\n",
              stats.trees, stats.seals, stats.merges, stats.tombstones);
  std::printf("insert stalls: max %8.3f ms/call vs %8.1f ms full rebuild "
              "— %" PRIu64 " call(s) at rebuild scale\n",
              max_insert_ms, full_rebuild_ms, rebuild_stalls);
  std::printf("probe batches (%" PRIu64 " queries, k=%zu):\n", probe_count,
              k);
  std::printf("  during merges  p50 %8.3f ms   p99 %8.3f ms\n", p50_during,
              p99_during);
  std::printf("  quiesced       p50 %8.3f ms   p99 %8.3f ms   "
              "(during/quiesced p99 ratio %.2fx, gate <= 2x)\n",
              p50_quiesced, p99_quiesced,
              p99_quiesced > 0.0 ? p99_during / p99_quiesced : 0.0);
  std::printf("digests (%s settle queries): %s\n",
              bench::human_count(n_queries).c_str(),
              digests_match ? "identical to from-scratch build"
                            : "MISMATCH");
  if (rebuild_stalls != 0) {
    std::printf("GATE FAILED: %" PRIu64 " insert call(s) stalled as long "
                "as a full rebuild\n",
                rebuild_stalls);
  }
  if (!latency_gate) {
    std::printf("GATE FAILED: p99 during merges (%.3f ms) above 2x "
                "quiesced p99 (%.3f ms)\n",
                p99_during, p99_quiesced);
  }

  // ------------------------------------------------------------------
  // Phase 4: what durability costs (DESIGN.md §13). The same ingest
  // stream three ways — no WAL, the group-committed default, and
  // fsync-per-batch — each on a fresh index, so merge state from the
  // phases above doesn't contaminate the comparison. Gate: the default
  // WAL keeps at least half the WAL-off throughput. One stream is a
  // few milliseconds at smoke size, so one host stall would decide a
  // single ratio: WAL-off and group commit instead run kWalReps
  // alternating pairs, and the gate reads the median of the per-pair
  // ratios.
  // ------------------------------------------------------------------
  const std::uint64_t wal_points = std::min<std::uint64_t>(n / 4, 100000);
  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "panda_bench_wal").string();
  const auto ingest_pps = [&](const core::MutableConfig& wal_config) {
    std::filesystem::remove_all(wal_dir);
    double seconds = 0.0;
    {
      core::MutableIndex walled(gen->dims(), wal_config, core::BuildConfig{},
                                pool);
      for (std::uint64_t begin = 0; begin < wal_points; begin += chunk) {
        const std::uint64_t end = std::min(wal_points, begin + chunk);
        data::PointSet fresh_points(gen->dims());
        gen->generate(begin, end, fresh_points);
        WallTimer watch;
        walled.insert(fresh_points);
        seconds += watch.seconds();
      }
    }
    std::filesystem::remove_all(wal_dir);
    return static_cast<double>(wal_points) / seconds;
  };
  core::MutableConfig wal_off = config;
  core::MutableConfig wal_batched = config;
  wal_batched.durable_dir = wal_dir;
  core::MutableConfig wal_every = wal_batched;
  wal_every.wal_flush_every = 1;

  constexpr int kWalReps = 9;
  std::vector<double> off_pps;
  std::vector<double> batched_pps;
  std::vector<double> pair_ratio;
  for (int rep = 0; rep < kWalReps; ++rep) {
    double off = 0.0;
    double batched = 0.0;
    if (rep % 2 == 0) {
      off = ingest_pps(wal_off);
      batched = ingest_pps(wal_batched);
    } else {
      batched = ingest_pps(wal_batched);
      off = ingest_pps(wal_off);
    }
    off_pps.push_back(off);
    batched_pps.push_back(batched);
    pair_ratio.push_back(batched / off);
  }
  const double pps_off = percentile(off_pps, 0.5);
  const double pps_batched = percentile(batched_pps, 0.5);
  const double wal_ratio = percentile(pair_ratio, 0.5);
  const double pps_every = ingest_pps(wal_every);
  const bool wal_gate = wal_ratio >= 0.5;

  std::printf("ingest with WAL (%s points, medians of %d alternating "
              "pairs on fresh indexes):\n",
              bench::human_count(wal_points).c_str(), kWalReps);
  std::printf("  off              %11.0f points/s\n", pps_off);
  std::printf("  group commit     %11.0f points/s  (median pair ratio "
              "%.2fx of off, range %.2f-%.2fx, flush_every=%zu/%" PRIu64
              "us; gate >= 0.5x)\n",
              pps_batched, wal_ratio,
              *std::min_element(pair_ratio.begin(), pair_ratio.end()),
              *std::max_element(pair_ratio.begin(), pair_ratio.end()),
              wal_batched.wal_flush_every,
              wal_batched.wal_flush_interval_us);
  std::printf("  fsync per batch  %11.0f points/s  (%.2fx of off, one run — "
              "the power-loss-durable setting)\n",
              pps_every, pps_every / pps_off);
  if (!wal_gate) {
    std::printf("GATE FAILED: group-committed WAL ingest at a median %.2fx "
                "of WAL-off (%.0f against %.0f pps), below 0.5x\n",
                wal_ratio, pps_batched, pps_off);
  }

  FILE* json = std::fopen("BENCH_mutable.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"mutable_stream\",\n");
    std::fprintf(json,
                 "  \"points\": %" PRIu64 ",\n  \"queries\": %" PRIu64
                 ",\n  \"k\": %zu,\n  \"chunk\": %" PRIu64 ",\n",
                 n, n_queries, k, chunk);
    std::fprintf(json,
                 "  \"buffer_capacity\": %zu,\n  \"merge_fan_in\": %" PRIu32
                 ",\n",
                 config.buffer_capacity, config.merge_fan_in);
    std::fprintf(json,
                 "  \"insert_points_per_s\": %.0f,\n"
                 "  \"erased\": %" PRIu64 ",\n"
                 "  \"max_insert_ms\": %.4f,\n"
                 "  \"full_rebuild_ms\": %.2f,\n"
                 "  \"full_rebuild_stalls\": %" PRIu64 ",\n",
                 insert_pps, erased_total, max_insert_ms, full_rebuild_ms,
                 rebuild_stalls);
    std::fprintf(json,
                 "  \"probe_p50_during_ms\": %.4f,\n"
                 "  \"probe_p99_during_ms\": %.4f,\n"
                 "  \"probe_p50_quiesced_ms\": %.4f,\n"
                 "  \"probe_p99_quiesced_ms\": %.4f,\n",
                 p50_during, p99_during, p50_quiesced, p99_quiesced);
    std::fprintf(json,
                 "  \"trees\": %" PRIu64 ",\n  \"seals\": %" PRIu64
                 ",\n  \"merges\": %" PRIu64 ",\n",
                 stats.trees, stats.seals, stats.merges);
    std::fprintf(json,
                 "  \"wal_points\": %" PRIu64 ",\n"
                 "  \"wal_reps\": %d,\n"
                 "  \"wal_off_points_per_s\": %.0f,\n"
                 "  \"wal_batched_points_per_s\": %.0f,\n"
                 "  \"wal_batched_ratio\": %.3f,\n"
                 "  \"wal_fsync_each_points_per_s\": %.0f,\n",
                 wal_points, kWalReps, pps_off, pps_batched, wal_ratio,
                 pps_every);
    std::fprintf(json, "  \"digests_match\": %s,\n",
                 digests_match ? "true" : "false");
    std::fprintf(json, "  \"latency_gate\": %s,\n",
                 latency_gate ? "true" : "false");
    std::fprintf(json, "  \"wal_gate\": %s\n", wal_gate ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_mutable.json\n");
  }

  return digests_match && rebuild_stalls == 0 && latency_gate && wal_gate
             ? 0
             : 1;
}
