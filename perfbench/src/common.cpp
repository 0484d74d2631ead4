#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {
Clock::time_point epoch() {
  static const Clock::time_point e = Clock::now();
  return e;
}
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch())
      .count();
}

Clock::time_point time_at(std::int64_t ns) {
  return epoch() + std::chrono::nanoseconds(ns);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

double tail_level(std::size_t samples) {
  double level = 0.0;
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9) level = q;
  }
  return level;
}

// ---------------------------------------------------------------------

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent) {
  if (!on_) return 0;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.start_ns = t;
  s.end_ns = t;
  spans_.push_back(s);
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = t;
}

std::uint64_t Tracer::add(const char* name, std::uint64_t parent,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::int64_t request) {
  if (!on_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.request = request;
  spans_.push_back(s);
  return s.id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns;
    if (s.request >= 0) out << ",\"request\":" << s.request;
    out << "}\n";
  }
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

// ---------------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::table(const panda::core::NeighborTable& table) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto row = table[i];
    value(static_cast<std::uint64_t>(i));
    value(static_cast<std::uint64_t>(row.size()));
    for (const auto& nb : row) {
      value(nb.id);
      std::uint32_t bits = 0;
      std::memcpy(&bits, &nb.dist2, sizeof(bits));
      value(bits);
    }
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ---------------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : list_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Metric& m : list_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// ---------------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return cpu == "cpu" ? v[7] : 0;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  in >> one;
  return one;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
