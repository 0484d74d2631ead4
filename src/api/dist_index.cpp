// Distributed adapter: panda::Index over a persistent in-process
// cluster session (DESIGN.md §10).
//
// Index::build slices the build PointSet into contiguous per-rank
// blocks, spins up a net::Cluster on a driver thread, and leaves every
// rank parked in a command loop: rank 0 broadcasts one command per
// facade call and all ranks answer it collectively through the
// unchanged dist:: engines — DistQueryEngine (knn_into),
// DistRadiusEngine (radius_into), AllKnnEngine (self_knn_into). This
// session (formerly private plumbing of serve::DistBackend) is now the
// single home of distributed serving state; the serve layer adapts the
// facade instead of owning a cluster.
//
// Normalizations the adapter performs so that every facade contract
// holds verbatim on the collective engines:
//   * radius_into takes per-query radii but DistRadiusEngine runs one
//     radius per pass — the adapter runs at r_max and keeps each
//     query's strict dist² < radii[i]² prefix (exact by the ascending
//     (dist², id) row order, DESIGN.md §5);
//   * knn_into's optional metric bound keeps the top-k prefix with
//     dist² < radius² (exact for the same reason);
//   * self_knn_into rows are keyed by build position: ranks answer
//     for their redistributed points and route each row back through
//     the id → build-position map (ids survive redistribution).
//
// Concurrency: the session is one SPMD program running one collective
// round at a time; concurrent facade calls serialize on exec_mutex.
// The caller's NeighborTable is written between the command handoff
// and the done signal, both under the session mutex, so the mutex/cv
// pair orders every access.
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>  // std::call_once
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "api/adapters.hpp"
#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_query.hpp"
#include "dist/radius_query.hpp"
#include "net/comm.hpp"

namespace panda::api {

namespace {

/// Queries per coalescing round of stages 3-5 in the KNN engines, and
/// per exchange round of the radius engine.
constexpr std::size_t kBatchSize = 256;

/// The per-call command rank 0 broadcasts so every rank invokes the
/// same collective engine with the same normalized parameters. Query
/// payloads are NOT broadcast: only rank 0 holds queries, the engines
/// route them internally.
struct WireCmd {
  enum : std::uint32_t { kKnn = 0, kRadius = 1, kSelfKnn = 2, kQuit = 3 };
  std::uint32_t op = kQuit;
  std::uint64_t k = 0;
  float radius = 0.0f;
};
static_assert(std::is_trivially_copyable_v<WireCmd>);

struct Session {
  explicit Session(const net::ClusterConfig& config) : cluster(config) {}

  net::Cluster cluster;

  Mutex mutex;
  CondVar cv_cmd;   // facade -> rank 0
  CondVar cv_done;  // rank 0 / driver -> facade
  bool ready PANDA_GUARDED_BY(mutex) = false;
  bool has_cmd PANDA_GUARDED_BY(mutex) = false;
  bool done PANDA_GUARDED_BY(mutex) = false;
  bool quit PANDA_GUARDED_BY(mutex) = false;
  bool failed PANDA_GUARDED_BY(mutex) = false;
  std::exception_ptr error PANDA_GUARDED_BY(mutex);

  // Command payload; owned by the facade call frame, valid while the
  // has_cmd/done round-trips (the call blocks until done). The command
  // word is written under the mutex with the handshake flags; the
  // payload targets (queries/out/radius_scratch/self_stats) are
  // deliberately NOT guarded_by: rank 0's engines read and write them
  // OUTSIDE the lock during the round, ordered by the has_cmd/done
  // handshake itself (the facade never touches them while a round is
  // in flight — exec_mutex plus the blocked wait guarantee that).
  WireCmd cmd PANDA_GUARDED_BY(mutex);
  const data::PointSet* queries = nullptr;     // kKnn / kRadius (rank 0)
  core::NeighborTable* out = nullptr;          // caller's table
  /// kRadius: rank 0's full r_max rows before per-query prefixing.
  core::NeighborTable radius_scratch;
  /// kSelfKnn: cross-rank aggregated engine counters.
  SearchStats self_stats;

  // Build-time handoff: valid until `ready` is signaled.
  const data::PointSet* build_points = nullptr;

  /// One collective round at a time.
  Mutex exec_mutex;
  std::thread driver;
};

class DistIndex final : public Index {
 public:
  DistIndex(const data::PointSet& points, const IndexOptions& options)
      : dims_(points.dims()),
        total_(points.size()),
        session_(std::make_unique<Session>(options.cluster)) {
    // Self-KNN rows are keyed by build position; redistribution
    // scatters points across ranks, so answers route back through the
    // build ids. With identity ids (id i at position i — the common
    // generate_all shape) no mapping state is needed at all;
    // otherwise keep the id vector and build the hash map lazily on
    // the first self_knn_into, so pure knn/radius serving never pays
    // for it.
    identity_ids_ = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points.id(i) != i) {
        identity_ids_ = false;
        break;
      }
    }
    if (!identity_ids_) {
      build_ids_.resize(points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        build_ids_[i] = points.id(i);
      }
    }
    Session* session = session_.get();
    session->build_points = &points;
    const dist::DistBuildConfig build_config = options.dist_build;
    session->driver = std::thread([this, session, build_config] {
      try {
        session->cluster.run([&](net::Comm& comm) {
          serve_loop(comm, build_config);
        });
      } catch (...) {
        MutexLock lock(session->mutex);
        session->failed = true;
        session->error = std::current_exception();
        session->cv_done.notify_all();
      }
    });
    MutexLock lock(session->mutex);
    session->cv_done.wait(lock, [&]() PANDA_REQUIRES(session->mutex) {
      return session->ready || session->failed;
    });
    session->build_points = nullptr;
    if (session->failed) {
      const std::exception_ptr error = session->error;
      lock.unlock();
      session->driver.join();
      std::rethrow_exception(error);
    }
  }

  ~DistIndex() override {
    {
      MutexLock lock(session_->mutex);
      session_->quit = true;
      session_->cv_cmd.notify_all();
    }
    if (session_->driver.joinable()) session_->driver.join();
  }

  std::size_t dims() const override { return dims_; }
  std::uint64_t size() const override { return total_; }
  const char* engine_name() const override { return "dist"; }

  void knn_into(const data::PointSet& queries, const SearchParams& params,
                core::NeighborTable& results, SearchWorkspace&) override {
    PANDA_CHECK_MSG(queries.empty() || queries.dims() == dims_,
                    "query dimensionality mismatch");
    data::require_finite(data::PointSetView(queries), "Index::knn_into");
    PANDA_CHECK_MSG(params.k >= 1, "k must be >= 1");
    PANDA_CHECK_MSG(params.radius >= 0.0f, "radius must be non-negative");
    if (queries.empty()) {
      results.reset_topk(0, params.k);
      return;
    }
    WireCmd cmd;
    cmd.op = WireCmd::kKnn;
    cmd.k = params.k;
    round(cmd, &queries, &results);
    if (params.radius != std::numeric_limits<float>::infinity()) {
      // KNN under a metric bound is the strict prefix of the
      // unbounded top-k: rows ascend in (dist², id).
      for (std::size_t i = 0; i < results.size(); ++i) {
        results.set_count(i, radius_prefix(results[i], params.radius).size());
      }
    }
  }

  void radius_into(const data::PointSet& queries,
                   std::span<const float> radii, core::NeighborTable& results,
                   SearchWorkspace&) override {
    PANDA_CHECK_MSG(queries.empty() || queries.dims() == dims_,
                    "query dimensionality mismatch");
    data::require_finite(data::PointSetView(queries), "Index::radius_into");
    PANDA_CHECK_MSG(radii.size() == queries.size(),
                    "one radius per query required");
    float r_max = 0.0f;
    for (const float r : radii) {
      PANDA_CHECK_MSG(r >= 0.0f, "radius must be non-negative");
      r_max = std::max(r_max, r);
    }
    results.reset_rows(queries.size());
    if (queries.empty()) return;
    WireCmd cmd;
    cmd.op = WireCmd::kRadius;
    cmd.radius = r_max;
    round(cmd, &queries, &results, radii);
  }

  void self_knn_into(const SearchParams& params, core::NeighborTable& results,
                     SearchWorkspace&, SearchStats* stats) override {
    PANDA_CHECK_MSG(params.k >= 1, "k must be >= 1");
    if (!identity_ids_) {
      std::call_once(id_map_once_, [&] {
        id_to_pos_.reserve(build_ids_.size());
        for (std::size_t i = 0; i < build_ids_.size(); ++i) {
          id_to_pos_.emplace(build_ids_[i], i);
        }
        PANDA_CHECK_MSG(id_to_pos_.size() == total_,
                        "self_knn_into needs unique point ids to key "
                        "result rows by build position");
      });
    }
    results.reset_topk(total_, params.k);
    WireCmd cmd;
    cmd.op = WireCmd::kSelfKnn;
    cmd.k = params.k;
    round(cmd, nullptr, &results, {}, stats);
  }

 private:
  /// Hands one command to rank 0 and blocks until the collective
  /// round completes (or the session fails). Session scratch that the
  /// NEXT round would overwrite is copied out before exec_mutex is
  /// released: the kRadius per-query strict prefixes of the r_max
  /// rows, and the kSelfKnn aggregated stats.
  void round(const WireCmd& cmd, const data::PointSet* queries,
             core::NeighborTable* out, std::span<const float> radii = {},
             SearchStats* stats_out = nullptr) {
    MutexLock exec_lock(session_->exec_mutex);
    MutexLock lock(session_->mutex);
    if (session_->failed) std::rethrow_exception(session_->error);
    PANDA_CHECK_MSG(!session_->quit, "dist index session is shut down");
    session_->cmd = cmd;
    session_->queries = queries;
    session_->out = out;
    session_->done = false;
    session_->has_cmd = true;
    session_->cv_cmd.notify_all();
    session_->cv_done.wait(lock, [&]() PANDA_REQUIRES(session_->mutex) {
      return session_->done || session_->failed;
    });
    if (session_->failed) std::rethrow_exception(session_->error);
    if (cmd.op == WireCmd::kRadius) {
      for (std::size_t i = 0; i < session_->radius_scratch.size(); ++i) {
        out->append_row(
            i, radius_prefix(session_->radius_scratch[i], radii[i]));
      }
    }
    if (stats_out != nullptr) *stats_out = session_->self_stats;
  }

  void serve_loop(net::Comm& comm, const dist::DistBuildConfig& build_config);

  std::size_t dims_ = 0;
  std::uint64_t total_ = 0;
  /// True when build id i == position i: self-KNN routing needs no
  /// map state at all.
  bool identity_ids_ = false;
  /// Build ids in position order (empty when identity_ids_); the
  /// id -> position map is derived from it on first self_knn_into.
  std::vector<std::uint64_t> build_ids_;
  std::once_flag id_map_once_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_to_pos_;
  std::unique_ptr<Session> session_;
};

void DistIndex::serve_loop(net::Comm& comm,
                           const dist::DistBuildConfig& build_config) {
  Session& session = *session_;
  data::PointSet slice(dims_);
  {
    // Contiguous block slicing of the caller's points; the reference
    // is only valid until `ready`, and every rank extracts before the
    // collective build lets rank 0 get there.
    const data::PointSet& points = *session.build_points;
    const std::uint64_t n = points.size();
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    const auto ranks = static_cast<std::uint64_t>(comm.size());
    const std::uint64_t begin = rank * n / ranks;
    const std::uint64_t end = (rank + 1) * n / ranks;
    std::vector<std::uint64_t> indices(end - begin);
    for (std::uint64_t i = begin; i < end; ++i) indices[i - begin] = i;
    slice = points.extract(indices);
  }
  const dist::DistKdTree tree =
      dist::DistKdTree::build(comm, slice, build_config);
  slice = data::PointSet(dims_);  // redistributed copy lives in the tree
  if (comm.rank() == 0) {
    MutexLock lock(session.mutex);
    session.ready = true;
    session.cv_done.notify_all();
  }

  dist::DistQueryEngine knn_engine(comm, tree);
  dist::DistRadiusEngine radius_engine(comm, tree);
  dist::AllKnnEngine self_engine(comm, tree);
  const data::PointSet no_queries(tree.dims());
  // Non-root ranks answer the routed protocol into rank-local tables
  // (their own query sets are empty); self-KNN rows land directly in
  // the caller's table (top-k rows are private — concurrent rank
  // writers never touch the same row).
  core::NeighborTable local_table;
  core::NeighborTable self_table;

  for (;;) {
    WireCmd cmd;
    const bool root = comm.rank() == 0;
    if (root) {
      MutexLock lock(session.mutex);
      // Poll aborted() so a peer rank's failure wakes rank 0 out of
      // the command wait instead of deadlocking the session.
      while (!session.has_cmd && !session.quit) {
        if (comm.aborted()) throw Error("dist index session aborted");
        session.cv_cmd.wait_for(lock, std::chrono::milliseconds(20));
      }
      cmd = session.quit ? WireCmd{} : session.cmd;
      if (session.quit) cmd.op = WireCmd::kQuit;
    }
    cmd = comm.bcast(std::vector<WireCmd>{cmd}, 0).front();
    if (cmd.op == WireCmd::kQuit) break;

    switch (cmd.op) {
      case WireCmd::kKnn: {
        dist::DistQueryConfig config;
        config.k = cmd.k;
        config.batch_size = kBatchSize;
        knn_engine.run_into(root ? *session.queries : no_queries, config,
                            root ? *session.out : local_table);
        break;
      }
      case WireCmd::kRadius: {
        dist::RadiusQueryConfig config;
        config.radius = cmd.radius;
        config.batch_size = kBatchSize;
        radius_engine.run_into(root ? *session.queries : no_queries, config,
                               root ? session.radius_scratch : local_table);
        break;
      }
      case WireCmd::kSelfKnn: {
        dist::AllKnnConfig config;
        config.k = cmd.k;
        config.batch_size = kBatchSize;
        dist::AllKnnStats stats;
        self_engine.run_into(config, self_table, &stats);
        const data::PointSet& mine = tree.local_points();
        for (std::size_t i = 0; i < self_table.size(); ++i) {
          std::uint64_t pos = mine.id(i);
          if (!identity_ids_) {
            const auto it = id_to_pos_.find(pos);
            PANDA_ASSERT(it != id_to_pos_.end());
            pos = it->second;
          }
          session.out->assign_row(pos, self_table[i]);
        }
        // The allreduces below are collective: every rank's row
        // writes happen before its deposit, so rank 0 leaves them
        // only after all rows (any rank, any row) are in place.
        SearchStats agg;
        agg.queries = comm.allreduce<std::uint64_t>(stats.queries_total,
                                                    net::ReduceOp::Sum);
        agg.remote_queries = comm.allreduce<std::uint64_t>(
            stats.queries_remote, net::ReduceOp::Sum);
        agg.request_messages = comm.allreduce<std::uint64_t>(
            stats.request_messages, net::ReduceOp::Sum);
        agg.request_bytes = comm.allreduce<std::uint64_t>(
            stats.request_bytes, net::ReduceOp::Sum);
        agg.model_comm_seconds = comm.allreduce<double>(
            stats.model_comm_seconds, net::ReduceOp::Sum);
        if (root) session.self_stats = agg;
        break;
      }
      default:
        throw Error("dist index session: unknown command");
    }

    if (root) {
      MutexLock lock(session.mutex);
      session.has_cmd = false;
      session.done = true;
      session.cv_done.notify_all();
    }
  }
}

}  // namespace

std::unique_ptr<Index> make_dist_index(const data::PointSet& points,
                                       const IndexOptions& options) {
  return std::make_unique<DistIndex>(points, options);
}

}  // namespace panda::api
