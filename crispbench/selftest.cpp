// Tests of the benchmark's own helpers (harness.h). run.py runs this
// before every measurement and refuses to measure when it fails:
//
//   crispbench_selftest        exit 0 when every check holds
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool throws(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  using crispbench::percentile;
  using crispbench::percentile_supported;
  // Ten samples must lie beyond the reported percentile.
  expect(percentile_supported(100, 0.9), "p90 of 100 samples has 10 beyond");
  expect(!percentile_supported(99, 0.9), "p90 of 99 samples has only 9 beyond");
  expect(percentile_supported(20, 0.5), "p50 of 20 samples has 10 beyond");
  expect(!percentile_supported(19, 0.5), "p50 of 19 samples has only 9 beyond");
  expect(percentile_supported(1000, 0.99), "p99 of 1000 samples has 10 beyond");
  expect(!percentile_supported(999, 0.99), "p99 of 999 samples has 9 beyond");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  expect(percentile(v, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  expect(percentile(v, 0.9) == 90.0, "nearest-rank p90 of 1..100 is 90");
  expect(throws([&] { percentile(std::vector<double>(99, 1.0), 0.9); }),
         "an unsupported p90 throws");
  expect(!throws([&] { percentile(std::vector<double>(99, 1.0), 0.9, false); }),
         "an unsupported p90 is allowed when support is not required");
  expect(throws([] { percentile({}, 0.5, false); }), "an empty sample throws");
  expect(crispbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void zipf_sampler() {
  const crispbench::ZipfSampler zipf(1000, 1.5);
  std::mt19937_64 a(7), b(7);
  std::vector<std::int64_t> counts(1000, 0);
  bool same = true, in_range = true;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const std::int64_t x = zipf(a);
    same = same && x == zipf(b);
    in_range = in_range && x >= 0 && x < 1000;
    if (x >= 0 && x < 1000) ++counts[static_cast<std::size_t>(x)];
  }
  expect(same, "Zipf draws are a pure function of the seed");
  expect(in_range, "Zipf draws stay in [0, n)");
  // P(rank 0) / P(rank 1) = 2^1.5 and the head mass matches the CDF.
  const double ratio = static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  expect(std::abs(ratio - std::pow(2.0, 1.5)) < 0.15, "Zipf rank ratio follows 1/k^s");
  std::int64_t head = 0;
  for (int k = 0; k < 16; ++k) head += counts[static_cast<std::size_t>(k)];
  expect(std::abs(static_cast<double>(head) / draws - zipf.head_mass(16)) < 0.01,
         "Zipf head mass matches the sampler's CDF");
  expect(zipf.head_mass(1000) == 1.0 && zipf.head_mass(0) == 0.0, "head_mass bounds");
}

void poisson_schedule() {
  const auto a = crispbench::poisson_schedule(42, 500.0, 4e6);
  const auto b = crispbench::poisson_schedule(42, 500.0, 4e6);
  const auto c = crispbench::poisson_schedule(43, 500.0, 4e6);
  expect(a == b, "the schedule is a pure function of the seed");
  expect(a != c, "another seed gives another schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  expect(increasing && !a.empty() && a.back() < 4e6, "offsets increase within the phase");
  // 2000 expected arrivals; a Poisson count stays within 5 sigma (~224).
  expect(std::abs(static_cast<double>(a.size()) - 2000.0) < 224.0,
         "arrival count matches the rate");
  expect(throws([] { crispbench::poisson_schedule(1, 0.0, 1e6); }), "zero rate throws");
}

void lag_accounting() {
  crispbench::LagTracker lag;
  expect(lag.quantile_ms(0.99) == 0.0 && lag.max_ms() == 0.0, "empty lag reads 0");
  for (int i = 0; i < 100; ++i) lag.record(1000.0 * i, 1000.0 * i + 10.0 * i);
  lag.record(5000.0, 4000.0);  // sent early: counts as on time
  expect(lag.count() == 101, "every send is recorded");
  expect(lag.max_ms() == 0.99, "lag is sent minus scheduled, in ms");
  expect(std::abs(lag.quantile_ms(0.5) - 0.49) < 1e-12, "median lag");
  expect(std::abs(lag.quantile_ms(0.99) - 0.98) < 1e-12, "p99 lag (nearest rank)");
}

void span_trace() {
  crispbench::Trace trace;
  {
    crispbench::ScopedSpan off(trace, "off");
  }
  expect(trace.spans().empty(), "a disabled trace records nothing");
  trace.set_enabled(true);
  {
    crispbench::ScopedSpan outer(trace, "outer", 7);
    crispbench::ScopedSpan inner(trace, "inner");
  }
  std::thread([&] { crispbench::ScopedSpan other(trace, "other"); }).join();
  const auto spans = trace.spans();
  expect(spans.size() == 3, "three spans recorded");
  const crispbench::Span* outer = nullptr;
  const crispbench::Span* inner = nullptr;
  const crispbench::Span* other = nullptr;
  for (const auto& s : spans) {
    if (s.name == "outer") outer = &s;
    if (s.name == "inner") inner = &s;
    if (s.name == "other") other = &s;
  }
  expect(outer && inner && other, "spans keep their names");
  if (outer && inner && other) {
    expect(inner->parent == outer->id && outer->parent == -1, "spans nest");
    expect(other->parent == -1, "parents do not leak across threads");
    expect(outer->request_id == 7, "request id is kept");
    expect(inner->start_us >= outer->start_us && inner->end_us <= outer->end_us,
           "a child lies inside its parent");
  }
  expect(trace.median_us("missing") == 0.0, "a span that never ran reads 0");
}

void speed_gating() {
  using crispbench::good_quartile;
  expect(good_quartile({8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0}, true) == 2.0,
         "a time reports the nearest-rank lower quartile");
  expect(good_quartile({8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0}, false) == 6.0,
         "a rate reports the nearest-rank upper quartile");
  expect(good_quartile({1.0, 2.0, 6.0}, true) == 3.0, "under four figures it is the mean");
  expect(throws([] { good_quartile({}, true); }), "an empty sample throws");

  crispbench::GatedFigures g;
  g.add(10.0, 100.0);
  g.add(12.0, 125.0);  // within 1.3x of the fastest probe
  g.add(11.0, 110.0);
  g.add(13.0, 120.0);
  g.add(50.0, 200.0);  // contended slices
  g.add(40.0, 180.0);
  expect(g.full_speed(100.0).size() == 4, "slices within 1.3x of the fastest probe count");
  expect(g.summary(100.0, true) == 10.0, "a time is the lower quartile of full-speed slices");
  expect(g.summary(100.0, false) == 12.0, "a rate is the upper quartile of full-speed slices");
  expect(g.counted(40.0).size() == 3 && g.summary(40.0, true) == (10.0 + 11.0 + 13.0) / 3.0,
         "with under three full-speed slices the three fastest-probe slices count");
  crispbench::GatedFigures many;
  for (int i = 0; i < 20; ++i) many.add(100.0 + i, 200.0 + i);
  expect(many.counted(100.0).size() == 5,
         "with no full-speed slice the fastest-probe quarter counts");
  expect(many.counted(200.0).size() == 20, "every slice within 1.3x of the fastest counts");
  crispbench::GatedFigures one;
  one.add(7.0, 300.0);
  expect(one.summary(100.0, true) == 7.0, "a single contended slice still reports");
}

}  // namespace

int main() {
  percentile_rule();
  speed_gating();
  zipf_sampler();
  poisson_schedule();
  lag_accounting();
  span_trace();
  if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
