#include "serve_load.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"

namespace perfbench {

namespace ps = panda::serve;

TimedBackend::TimedBackend(std::shared_ptr<ps::Backend> inner,
                           std::size_t max_batches)
    : inner_(std::move(inner)), log_(max_batches) {}

void TimedBackend::run_batch(std::span<const ps::Request> batch,
                             std::vector<ps::Result>& results) {
  const std::int64_t start = now_ns();
  inner_->run_batch(batch, results);
  const std::int64_t end = now_ns();
  // order: relaxed — run_batch has one caller (the single service
  // worker), so only this thread writes logged_.
  const std::size_t i = logged_.load(std::memory_order_relaxed);
  if (i < log_.size()) {
    log_[i] = {start, end, static_cast<std::uint32_t>(batch.size())};
    logged_.store(i + 1, std::memory_order_release);
  }
}

void TimedBackend::ingest(const panda::data::PointSet& points) {
  const std::int64_t start = now_ns();
  inner_->ingest(points);
  insert_ms_.push_back(static_cast<double>(now_ns() - start) * 1e-6);
}

std::size_t TimedBackend::erase_ids(std::span<const std::uint64_t> ids) {
  const std::int64_t start = now_ns();
  const std::size_t erased = inner_->erase_ids(ids);
  erase_ms_.push_back(static_cast<double>(now_ns() - start) * 1e-6);
  return erased;
}

// ---------------------------------------------------------------------

WriteStream::WriteStream(const panda::data::PointSet& fresh,
                         const panda::data::PointSet& seed)
    : seed_(seed) {
  constexpr std::size_t batch_points = kWriteBatch;
  const std::uint64_t n = seed.size();
  // Erase seed ids in a fixed pseudo-random order without repeats:
  // j -> (j * stride) mod n is a permutation when gcd(stride, n) == 1.
  std::uint64_t stride = 1000003;
  while (std::gcd(stride, n) != 1) stride += 2;
  const std::size_t erase_per_batch = batch_points / kEraseDivisor;
  std::uint64_t erased = 0;
  for (std::size_t begin = 0; begin + batch_points <= fresh.size();
       begin += batch_points) {
    std::vector<std::uint64_t> idx(batch_points);
    std::iota(idx.begin(), idx.end(), begin);
    inserts_.push_back(fresh.extract(idx));
    std::vector<std::uint64_t> ids;
    for (std::size_t j = 0; j < erase_per_batch && erased < n; ++j) {
      ids.push_back(seed.id((erased++ * stride) % n));
    }
    erases_.push_back(std::move(ids));
  }
}

std::int64_t WriteStream::apply_next(ps::QueryService& service) {
  PANDA_CHECK_MSG(next_ < inserts_.size(), "write stream exhausted");
  service.ingest(inserts_[next_]);
  const std::int64_t ingest_done = now_ns();
  service.erase_ids(erases_[next_]);
  ++next_;
  return ingest_done;
}

panda::data::PointSet WriteStream::live_points() const {
  // Seed ids are 0..n-1 at positions 0..n-1; fresh ids are larger and
  // ascending, so seed-minus-erased then inserts is ascending by id.
  std::vector<bool> erased(seed_.size(), false);
  for (std::size_t b = 0; b < next_; ++b) {
    for (const std::uint64_t id : erases_[b]) erased[id] = true;
  }
  std::vector<std::uint64_t> keep;
  keep.reserve(seed_.size());
  for (std::uint64_t i = 0; i < seed_.size(); ++i) {
    if (!erased[i]) keep.push_back(i);
  }
  panda::data::PointSet live = seed_.extract(keep);
  for (std::size_t b = 0; b < next_; ++b) live.append(inserts_[b]);
  return live;
}

// ---------------------------------------------------------------------

namespace {

/// Sleeps through long gaps and spins the last stretch, so due times
/// are met to within a few microseconds without a busy core in idle
/// phases.
void wait_until_ns(std::int64_t due) {
  for (;;) {
    const std::int64_t gap = due - now_ns();
    if (gap <= 0) return;
    if (gap > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 200000));
    }
  }
}

}  // namespace

LoadGenerator::LoadGenerator(ps::QueryService& service,
                             const panda::data::PointSet& query_pool,
                             const LoadConfig& config, WriteStream* writes)
    : service_(service),
      pool_(query_pool),
      config_(config),
      writes_(writes) {}

ps::Request LoadGenerator::make_request(std::uint64_t i) const {
  std::vector<float> q(pool_.dims());
  pool_.copy_point(static_cast<std::size_t>(i % pool_.size()), q.data());
  if (i % kRadiusEvery == kRadiusEvery - 1) {
    return ps::Request::radius_search(std::move(q), config_.radius);
  }
  return ps::Request::knn(std::move(q), kKnnK);
}

PhaseResult LoadGenerator::open_loop(double rate, double seconds,
                                     bool writes) {
  PhaseResult out;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::size_t n_writes =
      writes && writes_ != nullptr
          ? static_cast<std::size_t>(
                std::llround(config_.write_batches_per_s * seconds))
          : 0;
  PANDA_CHECK_MSG(n_writes == 0 || writes_->applied() + n_writes <=
                                       writes_->batches_available(),
                  "write stream too short for the phase");

  struct Slot {
    std::future<ps::Result> future;
    std::int64_t due_ns = 0;
    bool accepted = false;
  };
  std::vector<Slot> slots(n);
  std::vector<ps::Request> requests;
  requests.reserve(n);
  std::vector<bool> is_knn(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(make_request(next_request_ + i));
    is_knn[i] = requests.back().kind == ps::Request::Kind::Knn;
  }
  next_request_ += n;

  std::vector<std::int64_t> done_ns(n, 0);
  std::vector<char> ok(n, 0);
  std::atomic<std::size_t> published{0};
  // The collector waits on futures in submission order (one shard and
  // one worker complete them in that order) and stamps completion.
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t p = published.load(std::memory_order_acquire);
      while (p <= i) {
        published.wait(p, std::memory_order_acquire);
        p = published.load(std::memory_order_acquire);
      }
      Slot& s = slots[i];
      if (!s.accepted) continue;
      s.future.wait();
      done_ns[i] = now_ns();
      try {
        const ps::Result r = s.future.get();
        ok[i] = !is_knn[i] || r.size() == kKnnK ? 1 : 0;
      } catch (...) {
        ok[i] = 0;
      }
    }
  });

  const std::int64_t start = now_ns() + 1000000;
  const double req_gap = 1e9 / rate;
  const double write_gap =
      n_writes > 0 ? 1e9 / config_.write_batches_per_s : 0.0;
  std::size_t i = 0;
  std::size_t w = 0;
  while (i < n || w < n_writes) {
    const std::int64_t req_due =
        i < n ? start + static_cast<std::int64_t>(static_cast<double>(i) *
                                                  req_gap)
              : INT64_MAX;
    const std::int64_t write_due =
        w < n_writes
            ? start + static_cast<std::int64_t>(
                          (static_cast<double>(w) + 0.5) * write_gap)
            : INT64_MAX;
    if (write_due < req_due) {
      wait_until_ns(write_due);
      const std::int64_t ingest_done = writes_->apply_next(service_);
      out.ingest_ms.push_back(static_cast<double>(ingest_done - write_due) *
                              1e-6);
      ++w;
      continue;
    }
    wait_until_ns(req_due);
    const std::int64_t submitted = now_ns();
    Slot& s = slots[i];
    s.due_ns = req_due;
    s.accepted = service_.try_submit(std::move(requests[i]), &s.future);
    out.late_ms.push_back(static_cast<double>(submitted - req_due) * 1e-6);
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
    ++i;
  }
  collector.join();
  out.seconds = static_cast<double>(now_ns() - start) * 1e-9;

  out.latency_ms.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    ++out.submitted;
    if (!slots[j].accepted) {
      ++out.rejected;
      continue;
    }
    out.request_due_ns.push_back(slots[j].due_ns);
    out.request_done_ns.push_back(done_ns[j]);
    if (!ok[j]) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    out.latency_ms.push_back(static_cast<double>(done_ns[j] - slots[j].due_ns) *
                             1e-6);
  }
  return out;
}

PhaseResult LoadGenerator::closed_loop(int outstanding, double seconds,
                                       bool writes) {
  PhaseResult out;
  const std::size_t n_writes =
      writes && writes_ != nullptr
          ? static_cast<std::size_t>(
                std::llround(config_.write_batches_per_s * seconds))
          : 0;
  PANDA_CHECK_MSG(n_writes == 0 || writes_->applied() + n_writes <=
                                       writes_->batches_available(),
                  "write stream too short for the phase");
  struct Slot {
    std::future<ps::Result> future;
    std::int64_t submit_ns = 0;
    std::size_t seq = 0;
    bool live = false;
    bool knn = true;
  };
  const auto width = static_cast<std::size_t>(outstanding);
  std::vector<Slot> ring(width);
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const double write_gap =
      n_writes > 0 ? 1e9 / config_.write_batches_per_s : 0.0;
  std::size_t w = 0;

  std::size_t live = 0;
  auto submit_into = [&](Slot& s) {
    ps::Request r = make_request(next_request_++);
    s.knn = r.kind == ps::Request::Kind::Knn;
    s.submit_ns = now_ns();
    ++out.submitted;
    s.live = service_.try_submit(std::move(r), &s.future);
    if (!s.live) {
      ++out.rejected;
      return;
    }
    ++live;
    s.seq = out.request_due_ns.size();
    out.request_due_ns.push_back(s.submit_ns);
    out.request_done_ns.push_back(0);
  };
  for (Slot& s : ring) submit_into(s);

  // Slots complete in submission order, so the loop always waits on the
  // oldest; a rejected slot stays empty for the rest of the phase.
  std::size_t head = 0;
  while (live > 0 || w < n_writes) {
    const std::int64_t write_due =
        w < n_writes ? start + static_cast<std::int64_t>(
                                   (static_cast<double>(w) + 0.5) * write_gap)
                     : INT64_MAX;
    if (now_ns() >= write_due) {
      const std::int64_t ingest_done = writes_->apply_next(service_);
      out.ingest_ms.push_back(static_cast<double>(ingest_done - write_due) *
                              1e-6);
      ++w;
      continue;
    }
    if (live == 0) {
      wait_until_ns(write_due);
      continue;
    }
    Slot& s = ring[head];
    if (!s.live) {
      head = (head + 1) % width;
      continue;
    }
    if (w < n_writes &&
        s.future.wait_until(time_at(write_due)) != std::future_status::ready) {
      continue;
    }
    s.future.wait();
    const std::int64_t done = now_ns();
    out.request_done_ns[s.seq] = done;
    s.live = false;
    --live;
    bool good = false;
    try {
      const ps::Result r = s.future.get();
      good = !s.knn || r.size() == kKnnK;
    } catch (...) {
      good = false;
    }
    if (good) {
      ++out.completed;
      out.latency_ms.push_back(static_cast<double>(done - s.submit_ns) *
                               1e-6);
      if (done <= end) ++out.completed_in_window;
    } else {
      ++out.failed;
    }
    if (done < end) submit_into(s);
    head = (head + 1) % width;
  }
  out.seconds = static_cast<double>(end - start) * 1e-9;
  return out;
}

bool trace_requests(const PhaseResult& phase, const TimedBackend& backend,
                    std::size_t first_batch, std::uint64_t parent,
                    std::int64_t first_request_id) {
  Tracer& t = tracer();
  if (!t.on()) return true;
  const std::size_t requests = phase.request_due_ns.size();
  const std::size_t last_batch = backend.batches();
  std::size_t covered = 0;
  for (std::size_t b = first_batch; b < last_batch; ++b) {
    covered += backend.batch(b).size;
  }
  if (covered != requests) return false;
  std::size_t b = first_batch;
  std::size_t left = b < last_batch ? backend.batch(b).size : 0;
  for (std::size_t j = 0; j < requests; ++j) {
    while (left == 0) left = backend.batch(++b).size;
    const auto rid = first_request_id + static_cast<std::int64_t>(j);
    const std::uint64_t span =
        t.add("serve.request", parent, phase.request_due_ns[j],
              phase.request_done_ns[j], rid);
    const TimedBackend::Batch& batch = backend.batch(b);
    t.add("serve.execute", span, batch.start_ns, batch.end_ns, rid);
    --left;
  }
  return true;
}

void check_service(ps::QueryService& service,
                   const panda::data::PointSet& live,
                   const panda::data::PointSet& pool, const LoadConfig& config,
                   Outcome& outcome, Digest& digest) {
  const std::vector<std::uint64_t> rows = sample_rows(pool.size(), kOracleRows);
  std::vector<std::future<ps::Result>> futures(rows.size());
  std::vector<std::uint64_t> knn_rows, radius_rows;
  std::vector<bool> is_knn(rows.size());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    std::vector<float> q(pool.dims());
    pool.copy_point(rows[j], q.data());
    is_knn[j] = j % kRadiusEvery != kRadiusEvery - 1;
    (is_knn[j] ? knn_rows : radius_rows).push_back(rows[j]);
    ps::Request r = is_knn[j]
                        ? ps::Request::knn(std::move(q), kKnnK)
                        : ps::Request::radius_search(std::move(q),
                                                     config.radius);
    if (!service.try_submit(std::move(r), &futures[j])) {
      outcome.mismatch("serve check: request rejected");
      return;
    }
  }
  panda::IndexOptions o;
  o.engine = panda::IndexOptions::Engine::BruteForce;
  const auto oracle = panda::Index::build(live, o);
  panda::SearchWorkspace ws;
  panda::SearchParams kp;
  kp.k = kKnnK;
  panda::core::NeighborTable want_knn, want_radius;
  oracle->knn_into(pool.extract(knn_rows), kp, want_knn, ws);
  panda::SearchParams rp;
  rp.radius = config.radius;
  oracle->radius_into(pool.extract(radius_rows), rp, want_radius, ws);
  std::size_t ki = 0, ri = 0;
  outcome.attempted += rows.size();
  for (std::size_t j = 0; j < rows.size(); ++j) {
    ps::Result got;
    try {
      got = futures[j].get();
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.mismatch(std::string("serve check: request failed: ") +
                       e.what());
      return;
    }
    const auto want = is_knn[j] ? want_knn[ki++] : want_radius[ri++];
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      outcome.mismatch("serve check: request " + std::to_string(j) +
                       " differs from brute force over the live set");
      return;
    }
    digest.value(static_cast<std::uint64_t>(got.size()));
    for (const auto& nb : got) {
      digest.value(nb.id);
      digest.value(nb.dist2);
    }
  }
}

}  // namespace perfbench
