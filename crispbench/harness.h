// Load-generation and measurement helpers of the CRISP end-to-end benchmark.
//
// Everything here is independent of the library under test, so
// selftest.cpp can check it in isolation: the percentile rule, the run
// figure and full-speed gating, the Zipf tenant sampler, the seeded Poisson
// arrival schedule, the generator-lag accounting, and the in-memory span
// trace.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace crispbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- percentiles -------------------------------------------------------------

/// Samples that lie strictly beyond the nearest-rank q-quantile of n
/// samples: n - ceil(q * n).
inline std::int64_t samples_beyond(std::int64_t n, double q) {
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::max<std::int64_t>(rank, 1);
}

/// A percentile is reported only when at least ten samples lie beyond it,
/// so p50 needs 20 samples and p90 needs 100.
inline bool percentile_supported(std::int64_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

/// Nearest-rank q-quantile (0 < q <= 1): the smallest sample with at least
/// q * n samples at or below it. Throws when the rule above does not hold
/// and `require_support` is set.
inline double percentile(std::vector<double> v, double q,
                         bool require_support = true) {
  const auto n = static_cast<std::int64_t>(v.size());
  if (n == 0) throw std::runtime_error("percentile of an empty sample");
  if (require_support && !percentile_supported(n, q))
    throw std::runtime_error("percentile not supported by " +
                             std::to_string(n) + " samples");
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[static_cast<std::size_t>(rank - 1)];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5, /*require_support=*/false);
}

/// The figure a run reports from per-slice figures of one metric. Host
/// contention only ever makes a slice slower, and it comes and goes within
/// a second, faster than the speed probes can catch all of it. So the run
/// reports the quartile on the good side (the lower quartile of a time,
/// the upper quartile of a rate), which stays with the uncontended slices
/// as long as a quarter of them ran uncontended. Under four figures it is
/// their mean.
inline double good_quartile(std::vector<double> v, bool lower_is_better) {
  if (v.empty()) throw std::runtime_error("good quartile of an empty sample");
  if (v.size() < 4) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  }
  return percentile(std::move(v), lower_is_better ? 0.25 : 0.75, /*require_support=*/false);
}

// ---- host speed gating -------------------------------------------------------

/// A slice of the run counts as measured at full host speed when its speed
/// probe (a fixed compute kernel timed on the cores the slice ran on, before
/// and after it; the slowest of those timings) took at most this many times
/// the fastest probe of the run.
/// Full speed and contended probes sit about 1.0-1.15x and 1.6-2x apart.
constexpr double kFullSpeedFactor = 1.3;

/// Figures of one metric, one per slice of the run, each with the slowest
/// speed probe taken around its slice.
class GatedFigures {
 public:
  void add(double value, double probe_us) { figures_.push_back({value, probe_us}); }
  std::size_t size() const { return figures_.size(); }

  /// Values whose slice ran at full speed, given the run's fastest probe.
  std::vector<double> full_speed(double fastest_probe_us) const {
    std::vector<double> out;
    for (const Figure& f : figures_)
      if (f.probe_us <= kFullSpeedFactor * fastest_probe_us) out.push_back(f.value);
    return out;
  }
  /// The values of the full-speed slices. When fewer slices than a quarter
  /// of them (and at least three) ran at full speed, the values of that many
  /// slices with the fastest probes instead.
  std::vector<double> counted(double fastest_probe_us) const {
    std::vector<Figure> f = figures_;
    std::stable_sort(f.begin(), f.end(),
                     [](const Figure& a, const Figure& b) { return a.probe_us < b.probe_us; });
    const std::size_t want = std::min(f.size(), std::max<std::size_t>(3, f.size() / 4));
    std::vector<double> v;
    for (std::size_t i = 0; i < f.size(); ++i)
      if (i < want || f[i].probe_us <= kFullSpeedFactor * fastest_probe_us)
        v.push_back(f[i].value);
    return v;
  }
  /// good_quartile of the counted values.
  double summary(double fastest_probe_us, bool lower_is_better) const {
    return good_quartile(counted(fastest_probe_us), lower_is_better);
  }

 private:
  struct Figure {
    double value, probe_us;
  };
  std::vector<Figure> figures_;
};

// ---- deterministic draws -----------------------------------------------------
// Hand-rolled transforms over mt19937_64 (whose output sequence the
// standard fixes), so the same seed gives the same inputs with any
// standard library; std::*_distribution is implementation-defined.

inline double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Draws ranks 0..n-1 with P(k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s) : cdf_(static_cast<std::size_t>(n)) {
    if (n <= 0) throw std::invalid_argument("ZipfSampler needs n >= 1");
    double total = 0.0;
    for (std::int64_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[static_cast<std::size_t>(k)] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }
  std::int64_t operator()(std::mt19937_64& rng) const {
    const double u = uniform01(rng);
    return static_cast<std::int64_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }
  /// Probability mass of ranks [0, k).
  double head_mass(std::int64_t k) const {
    return k <= 0 ? 0.0 : cdf_[static_cast<std::size_t>(std::min<std::int64_t>(
                              k, static_cast<std::int64_t>(cdf_.size())) - 1)];
  }

 private:
  std::vector<double> cdf_;
};

/// Open-loop Poisson arrival offsets in microseconds from the phase start,
/// strictly increasing and below `duration_us`. A pure function of
/// (seed, rate, duration).
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps,
                                            double duration_us) {
  if (rate_rps <= 0.0) throw std::invalid_argument("rate must be positive");
  std::mt19937_64 rng(seed);
  std::vector<double> t_us;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform01(rng)) * 1e6 / rate_rps;
    if (t >= duration_us) break;
    t_us.push_back(t);
  }
  return t_us;
}

// ---- generator lag -----------------------------------------------------------

/// How late an open-loop generator sent each request against its schedule.
/// A request sent early (never happens with sleep_until) counts as 0 lag.
class LagTracker {
 public:
  void record(double scheduled_us, double sent_us) {
    lag_ms_.push_back(std::max(0.0, sent_us - scheduled_us) / 1e3);
  }
  void merge(const LagTracker& other) {
    lag_ms_.insert(lag_ms_.end(), other.lag_ms_.begin(), other.lag_ms_.end());
  }
  std::int64_t count() const { return static_cast<std::int64_t>(lag_ms_.size()); }
  /// Highest supported percentile up to q (so a short phase still reports).
  double quantile_ms(double q) const {
    if (lag_ms_.empty()) return 0.0;
    return percentile(lag_ms_, q, /*require_support=*/false);
  }
  double max_ms() const {
    return lag_ms_.empty() ? 0.0 : *std::max_element(lag_ms_.begin(), lag_ms_.end());
  }

 private:
  std::vector<double> lag_ms_;
};

// ---- span trace --------------------------------------------------------------

/// One timed call from the benchmark into a library module.
struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;      ///< enclosing span on the same thread
  std::int64_t request_id = -1;  ///< serving spans: the request's id
  double start_us = 0.0;         ///< since the trace epoch
  double end_us = 0.0;
  double duration_us() const { return end_us - start_us; }
};

/// In-memory span store. Disabled, a span costs one relaxed load; enabled,
/// spans are appended under a mutex and written out once at exit.
class Trace {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  std::int64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void add(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }
  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.duration_us());
    return out;
  }
  /// Median duration of `name` in microseconds, 0 when it never ran.
  double median_us(const std::string& name) const {
    std::vector<double> d = durations_us(name);
    return d.empty() ? 0.0 : median(std::move(d));
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call; nests through a thread-local parent link.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name, std::int64_t request_id = -1)
      : trace_(trace.enabled() ? &trace : nullptr) {
    if (trace_ == nullptr) return;
    span_.name = name;
    span_.id = trace_->next_id();
    span_.parent = current();
    span_.request_id = request_id;
    current() = span_.id;
    span_.start_us = trace_->now_us();
  }
  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    span_.end_us = trace_->now_us();
    current() = span_.parent;
    trace_->add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::int64_t& current() {
    thread_local std::int64_t id = -1;
    return id;
  }
  Trace* trace_;
  Span span_;
};

}  // namespace crispbench
