// Workload inputs, the brute-force oracle checks, and the per-layer
// probes shared by the benchmark's workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/index.hpp"
#include "common.hpp"
#include "data/point_set.hpp"

namespace perfbench {

/// Everything a workload run measures is generated here from the seed,
/// outside every timed region; the library receives only the points.
struct Dataset {
  std::string workload;
  bool smoke = false;
  /// Indexed points, ids 0..n-1.
  panda::data::PointSet points;
  /// Query points from the same generator with ids n.., disjoint from
  /// the index (serve: the request pool).
  panda::data::PointSet queries;
  /// Fresh points for the insert stream (serving runs only).
  panda::data::PointSet fresh;
  /// Metric radius of serve radius requests (the median 5-NN distance
  /// of a query sample, so a radius request returns a handful).
  float radius = 0.0f;
  /// Serve load: open-loop requests/s and write batches/s.
  double serve_rate = 0.0;
  double write_batches_per_s = 0.0;

  std::size_t dims() const { return points.dims(); }
};

/// Ordered key -> JSON value list printed with every result.
class Info {
 public:
  void num(const std::string& key, double v) { items_.push_back({key, json_num(v)}); }
  void str(const std::string& key, const std::string& v) {
    items_.push_back({key, json_str(v)});
  }
  void raw(const std::string& key, const std::string& json) {
    items_.push_back({key, json});
  }
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

inline constexpr std::size_t kKnnK = 5;
inline constexpr std::size_t kSelfK = 6;
inline constexpr int kRanks = 4;
/// Pool width of the parallel-layer probe (nproc of a 4-vCPU host).
inline constexpr int kWideThreads = 4;
/// Rows checked against the brute-force oracle per table.
inline constexpr std::size_t kOracleRows = 64;

/// Evenly spaced sample of `count` indices below n.
std::vector<std::uint64_t> sample_rows(std::size_t n, std::size_t count);

/// Checks table rows `rows` (answers for queries.extract(rows) at k)
/// against the brute-force engine over `indexed`, id- and dist²-exact.
void check_knn_rows(const panda::data::PointSet& indexed,
                    const panda::data::PointSet& queries,
                    const panda::core::NeighborTable& table, std::size_t k,
                    const std::string& what, Outcome& outcome);

/// Median of sqrt(5-NN dist²) over a query sample: the serve radius.
float serve_radius(panda::Index& index, const panda::data::PointSet& queries);

/// Runs `body` passes until at least `min_passes` ran and `budget_s`
/// elapsed (never more than 200); returns each pass's seconds.
template <typename F>
std::vector<double> timed_passes(F&& body, int min_passes, double budget_s) {
  constexpr int kMaxPasses = 200;
  std::vector<double> out;
  const auto start = Clock::now();
  while (static_cast<int>(out.size()) < kMaxPasses &&
         (static_cast<int>(out.size()) < min_passes ||
          seconds_since(start) < budget_s)) {
    const auto t0 = Clock::now();
    body();
    out.push_back(seconds_since(t0));
  }
  return out;
}

// Per-layer probes of the traced run. Each pushes the dataset's question
// through the public entry points of its layers in turn, records a span
// around every call, fills its metrics, checks sample rows against the
// oracle, and describes its blocking path for the ledger ("path" info).

/// simd, core, parallel and the Local facade.
void probe_local(const Dataset& ds, double budget_s, Metrics& m, Info& info,
                 Outcome& outcome);
/// dist, net and the Dist facade (4 ranks x 1 thread).
void probe_dist(const Dataset& ds, double budget_s, Metrics& m, Info& info,
                Outcome& outcome);
/// serve and the core::MutableIndex write path behind the Mutable facade.
void probe_serve(const Dataset& ds, double budget_s, Metrics& m, Info& info,
                 Outcome& outcome);

}  // namespace perfbench
