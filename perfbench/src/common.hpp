// Shared pieces of the benchmark program: clocks, sample statistics,
// the in-memory span tracer, result digests, the metric list, and the
// /proc readers behind the run diagnostics.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/neighbor_table.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (the trace epoch).
std::int64_t now_ns();
/// The steady-clock time point `ns` nanoseconds after the trace epoch.
Clock::time_point time_at(std::int64_t ns);

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (by value: the input is left untouched).
double median(std::vector<double> values);

/// Nearest-rank quantile of an ascending-sorted sample, q in (0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// The highest of p90, p99, p99.9, p99.99 that still has at least ten
/// samples beyond it (0 when even p90 has fewer).
double tail_level(std::size_t samples);

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// One timed call: name, [start, end) on the trace clock, the span that
/// caused it (0 = none) and, on serve, the request it belongs to.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t request = -1;
};

/// Keeps spans in memory and writes them once, at exit. Disabled
/// tracers record nothing and return span id 0, so the untraced run
/// pays one branch per call site.
class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  std::uint64_t begin(const char* name, std::uint64_t parent = 0);
  void end(std::uint64_t id);
  /// Records an already finished span.
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t request = -1);
  std::size_t size() const;
  /// JSON lines, one span per line.
  void write(const std::string& path) const;

 private:
  bool on_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process tracer.
Tracer& tracer();

/// RAII span on the process tracer.
class Scoped {
 public:
  explicit Scoped(const char* name, std::uint64_t parent = 0)
      : id_(tracer().begin(name, parent)) {}
  ~Scoped() { tracer().end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

// ---------------------------------------------------------------------
// Digests.
// ---------------------------------------------------------------------

/// FNV-1a over raw bytes, chainable.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  /// Every row of a table: row index, count, then (id, dist² bits).
  void table(const panda::core::NeighborTable& table);
  std::uint64_t get() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------
// Metrics and run bookkeeping.
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return list_; }
  double get(const std::string& name) const;

 private:
  std::vector<Metric> list_;
};

/// Counts of attempted operations and failures across a run; a
/// correctness mismatch clears `correct`.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  void mismatch(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();
/// Host steal time in jiffies (the 8th field of /proc/stat "cpu").
std::uint64_t steal_jiffies();
/// The 1-minute load average.
double load_average();

/// JSON string literal.
std::string json_str(const std::string& s);
/// JSON number: full precision, non-finite values become null.
std::string json_num(double v);

}  // namespace perfbench
