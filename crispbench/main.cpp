// CRISP end-to-end benchmark: three workloads against the library's public
// API, with every output checked. README.md beside this file defines the
// workloads, the metrics and the layer -> end-to-end mapping.
//
//   crispbench --workload edge_packed|fleet_zipf|personalize --seed N
//              --seconds S --trace 0|1 [--work-dir DIR]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics; with --trace 1 the
// per-layer metrics, taken from spans the benchmark records around its own
// calls into each src/ module, plus trace.overhead_pct.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/block_pruning.h"
#include "kernels/parallel_for.h"
#include "core/pruner.h"
#include "core/saliency.h"
#include "data/class_pattern.h"
#include "deploy/packed_model.h"
#include "harness.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models/common.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "serve/engine.h"
#include "sparse/block.h"
#include "sparse/nm.h"
#include "tenant/router.h"
#include "tensor/matmul.h"

namespace {

using namespace crisp;
using crispbench::Clock;
using crispbench::ScopedSpan;
using crispbench::Trace;
using crispbench::median;
using crispbench::ms_between;
using crispbench::percentile;
using Status = serve::Response::Status;

Trace g_trace;

// ---- result ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What the run prints: operation accounting plus named metrics.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A failed operation: counted, reported on stderr, and the run is no
  /// longer correct.
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "crispbench: FAILED: %s\n", why.c_str());
  }
  /// A failed invariant that is not itself an operation.
  void violate(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "crispbench: CHECK FAILED: %s\n", why.c_str());
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    bool first = true;
    for (const auto& [name, m] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// ---- small utilities ---------------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU placement on the cores the host currently runs at full speed.
///
/// The host shares each vCPU's physical core with other guests, per vCPU
/// and for seconds at a time: a fixed compute kernel then takes 1.6-2x as
/// long on that vCPU, while the others run at full speed. Left alone, the
/// share of a run spent on contended vCPUs moved every timing by up to a
/// third between runs. So before every measured slice the benchmark times a
/// small compute kernel on each vCPU (`place`), pins every thread of the
/// process to the fastest ones, and times the kernel again on those cores
/// when the slice ends (`check`). The slowest of these probes tags the
/// slice's figure, and a metric reports only the slices that ran at full
/// speed (crispbench::GatedFigures).
///
/// Library threads (engine workers, router threads) and the benchmark's
/// own updater run on the `workers` fastest cores; the request generator,
/// which mostly sleeps, gets the next fastest core of its own, so its
/// polling never delays a worker and a worker never delays a send.
class FastCores {
 public:
  FastCores() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &all)) cpus_.push_back(c);
    main_tid_ = static_cast<pid_t>(syscall(SYS_gettid));
  }
  /// Threads that keep their own pinning (the KeepAwake spinners).
  void exclude(pid_t tid) {
    std::lock_guard<std::mutex> lk(mu_);
    excluded_.push_back(tid);
  }
  /// Probes every core, pins the process to the `workers` fastest and the
  /// generator to the next one; returns the slowest probe among the
  /// workers. Call from the main thread between slices.
  double place(int workers) {
    if (cpus_.empty()) return 0.0;
    std::vector<std::pair<double, int>> speed;
    for (int c : cpus_) speed.push_back({probe_on(c), c});
    std::sort(speed.begin(), speed.end());
    const std::size_t w =
        std::min<std::size_t>(static_cast<std::size_t>(std::max(1, workers)), speed.size());
    CPU_ZERO(&workers_);
    chosen_.clear();
    double slowest = 0.0;
    for (std::size_t i = 0; i < w; ++i) {
      CPU_SET(speed[i].second, &workers_);
      chosen_.push_back(speed[i].second);
      slowest = std::max(slowest, speed[i].first);
    }
    CPU_ZERO(&generator_);
    CPU_SET(speed[std::min(w, speed.size() - 1)].second, &generator_);
    pin_others();
    to_workers();
    return slowest;
  }
  /// Probes the worker cores again; returns the slowest probe.
  double check() {
    double slowest = 0.0;
    for (int c : chosen_) slowest = std::max(slowest, probe_on(c));
    to_workers();
    return slowest;
  }
  /// Fastest probe of the run so far: the full-speed reference.
  double fastest_us() const { return fastest_us_; }

  void to_generator() const { sched_setaffinity(0, sizeof(generator_), &generator_); }
  void to_workers() const { sched_setaffinity(0, sizeof(workers_), &workers_); }

 private:
  /// Best of three timings of a fixed scalar 64x64 float matrix product on
  /// core `c`, in microseconds (about 105-120 us at full speed on a 2 GHz
  /// Xeon vCPU). Scalar code shows the host's contention most clearly:
  /// 1.6-2x, where wide vector code moved 1.0-1.8x.
  double probe_on(int c) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof(one), &one);
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      probe_kernel();
      best = std::min(best, ms_between(t0, Clock::now()) * 1e3);
    }
    fastest_us_ = std::min(fastest_us_, best);
    return best;
  }
  __attribute__((noinline, optimize("no-tree-vectorize"))) static void probe_kernel() {
    constexpr int kN = 64;
    static float a[kN * kN], b[kN * kN], out[kN * kN];
    for (int i = 0; i < kN * kN; ++i) {
      a[i] = b[i] = 1.0f + static_cast<float>(i % 7) * 1e-3f;
      out[i] = 0.0f;
    }
    for (int i = 0; i < kN; ++i)
      for (int k = 0; k < kN; ++k) {
        const float x = a[i * kN + k];
        for (int j = 0; j < kN; ++j) out[i * kN + j] += x * b[k * kN + j];
      }
    asm volatile("" : : "r"(out) : "memory");
  }
  /// Every thread of the process but this one and the excluded ones goes
  /// to the worker cores.
  void pin_others() {
    std::lock_guard<std::mutex> lk(mu_);
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(e.path().filename().c_str()));
      if (tid <= 0 || tid == main_tid_ ||
          std::find(excluded_.begin(), excluded_.end(), tid) != excluded_.end())
        continue;
      sched_setaffinity(tid, sizeof(workers_), &workers_);
    }
  }

  std::vector<int> cpus_, chosen_;
  pid_t main_tid_ = 0;
  std::mutex mu_;
  std::vector<pid_t> excluded_;
  cpu_set_t workers_{}, generator_{};
  double fastest_us_ = 1e30;
};

FastCores g_cpus;

/// A metric's figure over the slices that ran at full speed; says on
/// stderr how many did.
double gated(const char* metric, const crispbench::GatedFigures& g,
             bool lower_is_better = true) {
  const double fastest = g_cpus.fastest_us();
  std::fprintf(stderr, "crispbench: %s: %zu of %zu slices at full speed\n", metric,
               g.full_speed(fastest).size(), g.size());
  return g.summary(fastest, lower_is_better);
}

/// Runs one measured slice on the fastest cores and returns the slowest
/// speed probe taken around it.
double on_fast_cores(int workers, const std::function<void()>& slice) {
  const double before = g_cpus.place(workers);
  slice();
  return std::max(before, g_cpus.check());
}

/// Keeps every core of the process from going idle while the benchmark
/// runs. In a VM an idle vCPU halts, and waking it for the next request (a
/// submit reaching an engine worker, a response reaching the generator)
/// waits for the host to schedule it: up to milliseconds on a loaded host,
/// and a different amount from run to run, which moved edge_packed p90 by
/// half between runs at 12 requests/s. One SCHED_IDLE thread per core spins
/// on `pause`; the kernel runs it only while nothing else wants that core
/// and preempts it as soon as a worker wakes.
class KeepAwake {
 public:
  KeepAwake() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all))
        threads_.emplace_back([this, c] {
          g_cpus.exclude(static_cast<pid_t>(syscall(SYS_gettid)));
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(c, &one);
          sched_setaffinity(0, sizeof(one), &one);
          const sched_param idle{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
          while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
          }
        });
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Lets the open-loop generator sleep with microsecond precision (the
/// default 50 us timer slack would add that much to every wake-up).
void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() && a.numel() > 0 &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Row `r` of a (B, ...) batch output, flattened.
Tensor row_of(const Tensor& batch_out, std::int64_t r) {
  const std::int64_t per = batch_out.numel() / batch_out.size(0);
  std::vector<float> v(batch_out.data() + r * per,
                       batch_out.data() + (r + 1) * per);
  return Tensor({per}, std::move(v));
}

std::int64_t argmax(const float* x, std::int64_t n,
                    const std::vector<std::int64_t>& restrict_to = {}) {
  if (!restrict_to.empty()) {
    std::int64_t best = restrict_to.front();
    for (std::int64_t c : restrict_to)
      if (x[c] > x[best]) best = c;
    return best;
  }
  return static_cast<std::int64_t>(std::max_element(x, x + n) - x);
}

Tensor batch_of(const std::vector<Tensor>& samples) {
  Shape shape{static_cast<std::int64_t>(samples.size())};
  const Shape& s = samples.front().shape();
  shape.insert(shape.end(), s.begin(), s.end());
  Tensor out(shape);
  const std::int64_t per = samples.front().numel();
  for (std::size_t i = 0; i < samples.size(); ++i)
    std::memcpy(out.data() + static_cast<std::int64_t>(i) * per,
                samples[i].data(), static_cast<std::size_t>(per) * sizeof(float));
  return out;
}

Tensor single_batch(const Tensor& sample) { return batch_of({sample}); }

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t mask_fingerprint(nn::Sequential& model) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (nn::Parameter* p : model.prunable_parameters())
    if (p->has_mask())
      h = fnv1a(p->mask.data(),
                static_cast<std::size_t>(p->mask.numel()) * sizeof(float), h);
  return h;
}

double mask_sparsity(nn::Sequential& model) {
  double zeros = 0.0, total = 0.0;
  for (nn::Parameter* p : model.prunable_parameters()) {
    total += static_cast<double>(p->value.numel());
    if (p->has_mask()) zeros += p->mask_sparsity() * p->value.numel();
  }
  return total == 0.0 ? 0.0 : zeros / total;
}

/// A fresh model of the factory's architecture carrying `packed`'s weights,
/// compiled against it — what a device does with a shipped artifact.
std::shared_ptr<const serve::CompiledModel> compile_artifact(
    const std::function<std::shared_ptr<nn::Sequential>()>& factory,
    std::shared_ptr<const deploy::PackedModel> packed,
    serve::CompileOptions opts = {}) {
  std::shared_ptr<nn::Sequential> model = factory();
  packed->unpack_into(*model);
  ScopedSpan span(g_trace, "serve.compile");
  return serve::CompiledModel::compile(model, std::move(packed), opts);
}

/// Calls fn repeatedly for about `budget_s` (at least `min_reps`, at most
/// `max_reps` times) and returns the median wall time in microseconds.
double median_call_us(const std::function<void()>& fn, double budget_s,
                      int min_reps = 5, int max_reps = 2000) {
  fn();  // warm caches and lazy pool start-up
  std::vector<double> us;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  while (static_cast<int>(us.size()) < max_reps &&
         (static_cast<int>(us.size()) < min_reps || Clock::now() < end)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

// ---- load generation ---------------------------------------------------------

/// One request of a serving workload, as the generator sees it.
struct Completion {
  std::int64_t id = 0;
  double latency_ms = 0.0;  ///< scheduled send -> observed completion
  serve::Response response;
};

using SubmitFn = std::function<std::future<serve::Response>(std::int64_t id)>;
using DoneFn = std::function<void(Completion&)>;

/// Open loop: request i is due at start + schedule[i] whether or not
/// earlier ones finished. Latency runs from the due time to the moment the
/// generator observes the future ready; it waits on the oldest request and
/// polls the rest every 50 us, so completion is seen within that tick.
/// (Busy-polling instead was tried: it slowed the engine workers and made
/// the tail worse.)
void run_open_loop(const std::vector<double>& schedule_us, const SubmitFn& submit,
                   const DoneFn& done, crispbench::LagTracker& lag) {
  tighten_timer_slack();
  g_cpus.to_generator();
  struct InFlight {
    std::future<serve::Response> future;
    std::int64_t id;
    Clock::time_point due;
  };
  std::deque<InFlight> inflight;
  const auto tick = std::chrono::microseconds(50);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::size_t next = 0;
  auto sweep = [&] {
    for (std::size_t k = 0; k < inflight.size();) {
      if (inflight[k].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const Clock::time_point seen = Clock::now();
      Completion c;
      c.id = inflight[k].id;
      c.latency_ms = ms_between(inflight[k].due, seen);
      c.response = inflight[k].future.get();
      if (g_trace.enabled()) {
        crispbench::Span span;
        span.name = "loadgen.request";
        span.id = g_trace.next_id();
        span.request_id = c.id;
        span.start_us = g_trace.to_us(inflight[k].due);
        span.end_us = g_trace.to_us(seen);
        g_trace.add(std::move(span));
      }
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(k));
      done(c);
    }
  };
  while (next < schedule_us.size() || !inflight.empty()) {
    Clock::time_point wake = Clock::now() + tick;
    if (next < schedule_us.size()) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(schedule_us[next]));
      const Clock::time_point now = Clock::now();
      if (now >= due) {
        lag.record(schedule_us[next],
                   std::chrono::duration<double, std::micro>(now - start).count());
        const auto id = static_cast<std::int64_t>(next);
        inflight.push_back({submit(id), id, due});
        ++next;
        continue;
      }
      wake = std::min(wake, due);
    }
    if (!inflight.empty())
      inflight.front().future.wait_until(wake);
    else
      std::this_thread::sleep_until(wake);
    sweep();
  }
  g_cpus.to_workers();
}

/// Closed loop: keeps `outstanding` requests in flight from this one thread
/// for `seconds`; returns completions per second after the first 10%. Each
/// in-flight request holds one of `outstanding` slots, and a completed
/// request's slot passes to the one that replaces it, so a workload can
/// tie a fixed share of the slots to each of its engines.
using SlotSubmitFn =
    std::function<std::future<serve::Response>(std::int64_t id, std::int64_t slot)>;
double run_closed_loop(std::int64_t outstanding, double seconds,
                       const SlotSubmitFn& submit, const DoneFn& done) {
  struct InFlight {
    std::int64_t id, slot;
    std::future<serve::Response> future;
  };
  std::deque<InFlight> q;
  std::int64_t next_id = 0;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point measure_from =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(0.1 * seconds));
  const Clock::time_point t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::int64_t counted = 0;
  g_cpus.to_generator();
  for (; next_id < outstanding; ++next_id)
    q.push_back({next_id, next_id, submit(next_id, next_id)});
  // Any completed request is replaced at once, whichever engine served it;
  // waiting on the oldest alone would let one engine's queue drain while
  // the generator blocks on the other.
  while (!q.empty()) {
    bool any = false;
    for (std::size_t k = 0; k < q.size();) {
      if (q[k].future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      any = true;
      Completion c;
      c.id = q[k].id;
      c.response = q[k].future.get();
      const std::int64_t slot = q[k].slot;
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(k));
      const Clock::time_point now = Clock::now();
      if (now >= measure_from && now < t_end) ++counted;
      done(c);
      if (now < t_end) {
        q.push_back({next_id, slot, submit(next_id, slot)});
        ++next_id;
      }
    }
    if (!any && !q.empty()) q.front().future.wait_for(std::chrono::microseconds(50));
  }
  g_cpus.to_workers();
  return static_cast<double>(counted) / (0.9 * seconds);
}

double overhead_pct(double untraced, double traced) {
  return untraced == 0.0 ? 0.0 : (traced - untraced) / untraced * 100.0;
}

/// Latency and engine-side split of one open-loop phase.
struct ServingStats {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms, exec_ms, batch;
  crispbench::LagTracker lag;
  std::int64_t sent = 0, ok = 0, failed = 0;

  void record(const Completion& c, bool measured) {
    if (!measured) return;
    latency_ms.push_back(c.latency_ms);
    queue_ms.push_back(c.response.stats.queue_time.count() / 1e3);
    exec_ms.push_back(c.response.stats.run_time.count() / 1e3);
    batch.push_back(static_cast<double>(c.response.stats.batch_size));
  }
};

/// The run is cut into rounds of a second or a few, and every round runs a
/// slice of each phase, so every metric is sampled across the whole run.
/// Each round (on personalize, each user) yields one figure per metric, a
/// median over its samples. Each slice runs on the fastest cores and is
/// tagged with its speed probe (FastCores); the run reports the good-side
/// quartile of the figures of slices that ran at full speed
/// (crispbench::GatedFigures, crispbench::good_quartile).

struct Rounds {
  int count;
  double seconds;  ///< length of one round

  Rounds(double total_s, double round_s)
      : count(std::max(1, static_cast<int>(total_s / round_s))),
        seconds(total_s / count) {}
  /// Traced runs alternate untraced and traced rounds, so the tracing
  /// overhead is measured on interleaved, comparable rounds.
  static bool traced(bool trace_run, int round) { return trace_run && round % 2 == 1; }
  /// End of a slice lasting `share` of a round, from now.
  Clock::time_point deadline(double share) const {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(share * seconds));
  }
};

/// Open-loop latency over the run. Only untraced rounds that ran at full
/// host speed count (see GatedFigures::counted for the fallback). For
/// each percentile, consecutive counted rounds merge into chunks just large
/// enough that ten samples lie beyond it (20 for p50, 100 for p90; a round
/// that has that many is a chunk of its own). The percentile is taken per
/// chunk and combined with good_quartile, like the per-round figures of
/// the other metrics.
struct LatencyRounds {
  std::vector<std::vector<double>> rounds;  ///< untraced, one per round
  std::vector<double> probes_us;            ///< each round's speed probe
  ServingStats traced;                      ///< pooled over traced rounds

  static void append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
  void add(ServingStats s, bool was_traced, double probe_us) {
    if (!was_traced) {
      rounds.push_back(std::move(s.latency_ms));
      probes_us.push_back(probe_us);
      return;
    }
    append(traced.latency_ms, s.latency_ms);
    append(traced.queue_ms, s.queue_ms);
    append(traced.exec_ms, s.exec_ms);
    append(traced.batch, s.batch);
    traced.lag.merge(s.lag);
    traced.sent += s.sent;
    traced.ok += s.ok;
    traced.failed += s.failed;
  }
  /// The run's q-quantile, by the rule above; a last chunk still too small
  /// is folded into the one before it, and percentile() throws when even
  /// the whole run is too small.
  double chunked(double q) const {
    auto supported = [q](const std::vector<double>& c) {
      return crispbench::percentile_supported(static_cast<std::int64_t>(c.size()), q);
    };
    // Rounds in order of their probes: every full-speed round, and at
    // least the fastest-probe quarter (three or more), and more until the
    // pooled samples support the percentile.
    std::vector<std::size_t> order(rounds.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return probes_us[a] < probes_us[b]; });
    const std::size_t want = std::min(rounds.size(), std::max<std::size_t>(3, rounds.size() / 4));
    std::size_t full = 0;
    while (full < order.size() &&
           probes_us[order[full]] <= crispbench::kFullSpeedFactor * g_cpus.fastest_us())
      ++full;
    std::fprintf(stderr, "crispbench: latency p%g: %zu of %zu rounds at full speed\n",
                 q * 100, full, rounds.size());
    std::size_t take = std::max(full, want);
    std::vector<double> pooled_taken;
    for (std::size_t i = 0; i < take; ++i) append(pooled_taken, rounds[order[i]]);
    for (; take < order.size() && !supported(pooled_taken); ++take)
      append(pooled_taken, rounds[order[take]]);
    std::vector<std::size_t> picked(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(take));
    std::sort(picked.begin(), picked.end());  // chunks follow the run's order
    std::vector<std::vector<double>> chunks{1};
    for (std::size_t i : picked) {
      if (supported(chunks.back())) chunks.emplace_back();
      append(chunks.back(), rounds[i]);
    }
    if (chunks.size() > 1 && !supported(chunks.back())) {
      append(chunks[chunks.size() - 2], chunks.back());
      chunks.pop_back();
    }
    std::vector<double> per_chunk;
    for (const std::vector<double>& c : chunks) per_chunk.push_back(percentile(c, q));
    return crispbench::good_quartile(per_chunk, /*lower_is_better=*/true);
  }
  std::vector<double> pooled() const {
    std::vector<double> all;
    for (const std::vector<double>& r : rounds) append(all, r);
    return all;
  }
  double untraced_p50() const { return percentile(pooled(), 0.5); }
  void report_e2e(Result& res) const {
    res.set("latency_p50_ms", chunked(0.5), "ms");
    res.set("latency_p90_ms", chunked(0.9), "ms");
  }
  void report_layers(Result& res) const {
    const ServingStats& s = traced;
    res.set("serve.queue_ms_p50", percentile(s.queue_ms, 0.5), "ms");
    res.set("serve.exec_ms_p50", percentile(s.exec_ms, 0.5), "ms");
    double sum = 0.0;
    for (double b : s.batch) sum += b;
    res.set("serve.batch_mean", sum / static_cast<double>(s.batch.size()), "count");
    res.set("loadgen.sent", static_cast<double>(s.sent), "count");
    res.set("loadgen.ok", static_cast<double>(s.ok), "count");
    res.set("loadgen.failed", static_cast<double>(s.failed), "count");
    res.set("loadgen.lag_p99_ms", s.lag.quantile_ms(0.99), "ms");
    res.set("loadgen.latency_p99_ms", percentile(s.latency_ms, 0.99, false), "ms");
    res.set("trace.overhead_pct",
            overhead_pct(untraced_p50(), percentile(s.latency_ms, 0.5)), "%");
  }
};

// ---- per-layer probes ----------------------------------------------------------

/// Direct calls into kernels / sparse / nn / core / deploy / serve on one
/// workload's own masked model and artifact (traced runs only).
struct ProbeInputs {
  std::function<std::shared_ptr<nn::Sequential>()> factory;
  nn::Sequential* masked = nullptr;  ///< dense weights + installed masks
  Shape sample_shape;
  std::int64_t block = 0, n = 2, m = 4;
  const data::Dataset* calibration = nullptr;  ///< image workloads only
};

void run_probes(const ProbeInputs& in, Result& res) {
  const double budget = 0.08;  // seconds per timed call site
  nn::Sequential& model = *in.masked;
  std::shared_ptr<const deploy::PackedModel> packed;
  const double pack_us = median_call_us(
      [&] {
        ScopedSpan s(g_trace, "deploy.pack");
        packed = std::make_shared<const deploy::PackedModel>(
            deploy::PackedModel::pack(model, in.block, in.n, in.m));
      },
      budget, 3, 50);
  auto int8 = std::make_shared<deploy::PackedModel>(*packed);
  const double quant_us = median_call_us(
      [&] {
        deploy::PackedModel copy = *packed;
        ScopedSpan s(g_trace, "deploy.quantize");
        copy.quantize_payloads();
      },
      budget, 3, 50);
  int8->quantize_payloads();
  res.set("deploy.pack_ms", pack_us / 1e3, "ms");
  res.set("deploy.quantize_ms", quant_us / 1e3, "ms");
  res.set("deploy.artifact_kib", packed->stats().total_bits() / 8.0 / 1024.0, "KiB");
  res.set("deploy.dense_kib", packed->stats().model_dense_bits / 8.0 / 1024.0, "KiB");

  // Compile: the public call alone, on a prepared model.
  std::vector<double> compile_us;
  for (int i = 0; i < 7; ++i) {
    std::shared_ptr<nn::Sequential> fresh = in.factory();
    packed->unpack_into(*fresh);
    const Clock::time_point t0 = Clock::now();
    auto c = serve::CompiledModel::compile(fresh, packed);
    compile_us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  res.set("serve.compile_ms", median(compile_us) / 1e3, "ms");

  // CompiledModel::run, dense vs packed fp32 vs packed int8.
  std::shared_ptr<nn::Sequential> dense_model = in.factory();
  packed->unpack_into(*dense_model);
  nn::clear_masks(*dense_model);
  auto dense = serve::CompiledModel::compile(dense_model);
  auto fp32 = compile_artifact(in.factory, packed);
  auto q8 = compile_artifact(in.factory, int8);
  Rng rng(99);
  for (std::int64_t p : {1, 16}) {
    Shape bs{p};
    bs.insert(bs.end(), in.sample_shape.begin(), in.sample_shape.end());
    const Tensor x = Tensor::randn(bs, rng);
    const std::string suffix = "_p" + std::to_string(p) + "_ms";
    const std::pair<const char*, const serve::CompiledModel*> runs[] = {
        {"serve.run_dense", dense.get()},
        {"serve.run_fp32", fp32.get()},
        {"serve.run_int8", q8.get()}};
    for (const auto& [name, cm] : runs)
      res.set(name + suffix,
              median_call_us([&] { Tensor y = cm->run(x); }, budget) / 1e3, "ms");
  }

  // Raw kernels over the packed layers' shapes, summed over layers.
  for (std::int64_t p : {1, 16}) {
    double gemm = 0.0, sp32 = 0.0, sp8 = 0.0;
    for (std::size_t e = 0; e < packed->entries().size(); ++e) {
      const sparse::CrispMatrix& w32 = packed->entries()[e].matrix;
      const sparse::CrispMatrix& w8 = int8->entries()[e].matrix;
      const Tensor w = w32.decode();
      const std::int64_t rows = w32.rows(), cols = w32.cols();
      const Tensor x = Tensor::randn({cols, p}, rng);
      Tensor y({rows, p});
      const ConstMatrixView wv = as_matrix(w, rows, cols);
      const ConstMatrixView xv = as_matrix(x, cols, p);
      const MatrixView yv = as_matrix(y, rows, p);
      gemm += median_call_us([&] { matmul(wv, xv, yv); }, budget / 4);
      sp32 += median_call_us([&] { w32.spmm(xv, yv); }, budget / 4);
      sp8 += median_call_us([&] { w8.spmm(xv, yv); }, budget / 4);
    }
    const std::string ps = "_p" + std::to_string(p);
    res.set("kernels.gemm" + ps + "_us", gemm, "us");
    res.set("sparse.spmm_fp32" + ps + "_us", sp32, "us");
    res.set("sparse.spmm_int8" + ps + "_us", sp8, "us");
    res.set("sparse.packed_over_dense" + ps, sp32 / gemm, "ratio");
  }

  // Training-side layers on a masked copy: one batch of 16.
  {
    std::shared_ptr<nn::Sequential> train_model = in.factory();
    train_model->load_state_dict(model.state_dict());
    const auto params = model.prunable_parameters();
    const auto tparams = train_model->prunable_parameters();
    for (std::size_t i = 0; i < params.size(); ++i)
      if (params[i]->has_mask()) tparams[i]->mask = params[i]->mask;
    Shape bs{16};
    bs.insert(bs.end(), in.sample_shape.begin(), in.sample_shape.end());
    const Tensor x = Tensor::randn(bs, rng);
    Tensor logits = train_model->forward(x, true);
    std::vector<std::int64_t> labels(16);
    for (std::size_t i = 0; i < labels.size(); ++i)
      labels[i] = static_cast<std::int64_t>(i) % logits.size(1);
    const nn::LossResult loss = nn::cross_entropy(logits, labels);
    res.set("nn.forward_ms",
            median_call_us([&] { logits = train_model->forward(x, true); }, budget) / 1e3,
            "ms");
    res.set("nn.backward_ms",
            median_call_us([&] { Tensor g = train_model->backward(loss.grad); }, budget) / 1e3,
            "ms");
    train_model->zero_grad();
    if (in.calibration != nullptr) {
      res.set("nn.evaluate_ms",
              median_call_us([&] { nn::evaluate(*train_model, *in.calibration); },
                             budget, 3, 50) / 1e3,
              "ms");
      core::SaliencyConfig scfg;
      scfg.max_batches = 2;
      core::SaliencyMap sal;
      res.set("core.saliency_ms",
              median_call_us(
                  [&] {
                    ScopedSpan s(g_trace, "core.saliency");
                    sal = core::estimate_saliency(*train_model, *in.calibration, scfg);
                  },
                  budget, 3, 20) / 1e3,
              "ms");
      res.set("core.mask_select_ms",
              median_call_us(
                  [&] {
                    std::vector<core::LayerBlockInfo> infos;
                    for (std::size_t i = 0; i < tparams.size(); ++i) {
                      const nn::Parameter* p = tparams[i];
                      const ConstMatrixView s =
                          as_matrix(sal[i], p->matrix_rows, p->matrix_cols);
                      Tensor nm = sparse::nm_mask(s, in.n, in.m);
                      core::LayerBlockInfo info;
                      info.grid = sparse::BlockGrid{p->matrix_rows, p->matrix_cols,
                                                    in.block};
                      info.scores = sparse::block_scores(s, info.grid);
                      infos.push_back(std::move(info));
                    }
                    const auto ranks = core::plan_rank_column_pruning(
                        infos, 0.8, core::BlockPruningConfig{});
                    for (std::size_t i = 0; i < infos.size(); ++i)
                      Tensor b = core::rank_pruned_block_mask(infos[i], ranks[i]);
                  },
                  budget, 3, 50) / 1e3,
              "ms");
    }
  }
}

/// Every per-layer name, so a layer a workload leaves idle reports 0.
const char* const kLayerMetrics[][2] = {
    {"kernels.gemm_p1_us", "us"}, {"kernels.gemm_p16_us", "us"},
    {"sparse.spmm_fp32_p1_us", "us"}, {"sparse.spmm_fp32_p16_us", "us"},
    {"sparse.spmm_int8_p1_us", "us"}, {"sparse.spmm_int8_p16_us", "us"},
    {"sparse.packed_over_dense_p1", "ratio"}, {"sparse.packed_over_dense_p16", "ratio"},
    {"nn.forward_ms", "ms"}, {"nn.backward_ms", "ms"}, {"nn.train_epoch_s", "s"},
    {"nn.evaluate_ms", "ms"}, {"core.saliency_ms", "ms"}, {"core.mask_select_ms", "ms"},
    {"core.prune_run_s", "s"}, {"core.sparsity", "fraction"},
    {"core.sparsity_target", "fraction"}, {"deploy.pack_ms", "ms"},
    {"deploy.quantize_ms", "ms"}, {"deploy.artifact_kib", "KiB"},
    {"deploy.dense_kib", "KiB"}, {"serve.compile_ms", "ms"},
    {"serve.run_dense_p1_ms", "ms"}, {"serve.run_dense_p16_ms", "ms"},
    {"serve.run_fp32_p1_ms", "ms"}, {"serve.run_fp32_p16_ms", "ms"},
    {"serve.run_int8_p1_ms", "ms"}, {"serve.run_int8_p16_ms", "ms"},
    {"serve.queue_ms_p50", "ms"}, {"serve.exec_ms_p50", "ms"},
    {"serve.batch_mean", "count"}, {"tenant.derive_delta_us", "us"},
    {"tenant.register_us", "us"}, {"tenant.refresh_ms", "ms"},
    {"tenant.acquire_cold_ms", "ms"}, {"tenant.acquire_hot_us", "us"},
    {"tenant.submit_us", "us"}, {"tenant.shard_load_ms", "ms"},
    {"tenant.cold_share", "fraction"}, {"tenant.store_hit_ratio", "fraction"},
    {"tenant.compiled_kib_per_tenant", "KiB"}, {"tenant.base_kib", "KiB"},
    {"tenant.deltas_kib", "KiB"}, {"tenant.compiled_kib", "KiB"},
    {"data.generate_s", "s"}, {"loadgen.sent", "count"}, {"loadgen.ok", "count"},
    {"loadgen.failed", "count"}, {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.latency_p99_ms", "ms"}, {"trace.overhead_pct", "%"},
};

void zero_fill_layers(Result& res) {
  for (const auto& m : kLayerMetrics)
    if (res.metrics.find(m[0]) == res.metrics.end()) res.set(m[0], 0.0, m[1]);
}

/// Set-up repetitions. The workload builds what it serves with one timed
/// `build()`, then repeats the same set-up a few times in every round while
/// the first copy keeps serving; each repetition is torn down outside the
/// timed span. Each runs on the fastest cores (see FastCores), and
/// `setup_s` is the median over those that ran at full speed, so it
/// samples the host across the whole run like every other metric.
template <typename Build>
class SetupTimer {
 public:
  SetupTimer(int workers, Build build) : workers_(workers), build_(std::move(build)) {}
  auto build() {
    const double before = g_cpus.place(workers_);
    const Clock::time_point t0 = Clock::now();
    auto built = build_();
    const double s = ms_between(t0, Clock::now()) / 1e3;
    seconds_.add(s, std::max(before, g_cpus.check()));
    return built;
  }
  void repeat(int reps) {
    for (int i = 0; i < reps; ++i) {
      auto discarded = build();
    }
  }
  double seconds() const {
    const double fastest = g_cpus.fastest_us();
    std::fprintf(stderr, "crispbench: setup_s: %zu of %zu set-ups at full speed\n",
                 seconds_.full_speed(fastest).size(), seconds_.size());
    return median(seconds_.counted(fastest));
  }

 private:
  int workers_;
  Build build_;
  crispbench::GatedFigures seconds_;
};

// =============================================================================
// edge_packed: one packed conv model, fp32 and int8 engines, 3:1 split.
// =============================================================================

namespace edge {

/// Fixed open-loop rate. A request that arrives while its engine is busy
/// waits or shares a batch, and costs up to twice as much. At 12/s that
/// happens to about 2% of requests, and still to under 5% when the host
/// runs twice as slow, so p90 stays inside the served-alone mode. At 25/s a
/// slow stretch pushed it near 10% and p90 jumped modes (2.4 -> 3.3 ms); at
/// 120/s it was 10-17% all the time.
constexpr double kRateRps = 12.0;
constexpr std::int64_t kOutstanding = 32;  // closed-loop capacity phase
constexpr std::int64_t kSamplePool = 256;
constexpr int kSetupRepsPerRound = 1;
constexpr int kWorkers = 2;  // cores for the two engine workers

/// The zoo VGG-16 at the CIFAR-100 stand-in scale (100 classes, 16x16,
/// width 0.25). Its weights are part of the workload, like a shipped model;
/// --seed draws the masks, the request samples and the traffic.
nn::ModelConfig model_config() {
  nn::ModelConfig cfg;
  cfg.seed = 42;
  return cfg;
}

/// Hybrid 2:4 + uniform-row block masks at the CrispConfig defaults: every
/// layer keeps 20% of its block columns, so with 2:4 the global sparsity
/// lands near the default 90% target.
void install_masks(nn::Sequential& model, const core::CrispConfig& cc,
                   std::uint64_t seed) {
  Rng rng(seed);
  const double keep_blocks = (1.0 - cc.target_sparsity) * cc.m / cc.n;
  for (nn::Parameter* p : model.prunable_parameters()) {
    const std::int64_t grid_cols = (p->matrix_cols + cc.block - 1) / cc.block;
    const std::int64_t kept = std::max<std::int64_t>(
        1, std::llround(keep_blocks * static_cast<double>(grid_cols)));
    const Tensor mask = core::random_hybrid_mask(
        rng, p->matrix_rows, p->matrix_cols, cc.block, cc.n, cc.m, grid_cols - kept);
    p->ensure_mask();
    std::memcpy(p->mask.data(), mask.data(),
                static_cast<std::size_t>(mask.numel()) * sizeof(float));
  }
}

struct Deployment {
  std::shared_ptr<const deploy::PackedModel> packed;
  std::shared_ptr<const serve::CompiledModel> fp32, int8;
  std::unique_ptr<serve::Engine> fp32_engine, int8_engine;
};

Result run(const Args& args) {
  Result res;
  const core::CrispConfig cc;  // defaults: 2:4, block 16, 90%
  const nn::ModelConfig mcfg = model_config();
  const auto factory = [&] {
    return std::shared_ptr<nn::Sequential>(nn::make_model(nn::ModelKind::kVgg16, mcfg));
  };

  // ---- inputs: the pruned model and the request samples ----
  std::shared_ptr<nn::Sequential> masked = factory();
  install_masks(*masked, cc, args.seed + 1);
  std::vector<Tensor> pool;
  {
    Rng rng(args.seed + 2);
    for (std::int64_t i = 0; i < kSamplePool; ++i)
      pool.push_back(Tensor::randn({3, mcfg.input_size, mcfg.input_size}, rng));
  }
  std::mt19937_64 mix(args.seed + 3);
  std::vector<int> engine_of;    // 0 = fp32, 1 = int8 (3:1)
  std::vector<int> sample_of;

  serve::EngineOptions eopts;
  eopts.max_batch = 16;
  eopts.queue_depth = 1 << 16;  // never fills: no request is ever refused
  eopts.thread_budget = 1;

  // ---- setup: pack, compile fp32 + int8 from one artifact, start engines ----
  SetupTimer setup(kWorkers, [&] {
    Deployment n;
    {
      ScopedSpan s(g_trace, "deploy.pack");
      n.packed = std::make_shared<const deploy::PackedModel>(
          deploy::PackedModel::pack(*masked, cc.block, cc.n, cc.m));
    }
    n.fp32 = compile_artifact(factory, n.packed);
    serve::CompileOptions q;
    q.quantize_payload = true;
    n.int8 = compile_artifact(factory, n.packed, q);
    n.fp32_engine = std::make_unique<serve::Engine>(n.fp32, eopts);
    n.int8_engine = std::make_unique<serve::Engine>(n.int8, eopts);
    return n;
  });
  Deployment d = setup.build();

  // Reference outputs: each sample alone through CompiledModel::run.
  std::vector<Tensor> ref32, ref8;
  std::int64_t agree = 0;
  for (const Tensor& s : pool) {
    ref32.push_back(row_of(d.fp32->run(single_batch(s)), 0));
    ref8.push_back(row_of(d.int8->run(single_batch(s)), 0));
    agree += argmax(ref32.back().data(), ref32.back().numel()) ==
             argmax(ref8.back().data(), ref8.back().numel());
  }
  if (!d.int8->quantized()) res.violate("int8 engine does not serve int8");

  auto draw = [&](std::int64_t id) {
    while (static_cast<std::int64_t>(engine_of.size()) <= id) {
      engine_of.push_back(crispbench::uniform01(mix) < 0.25 ? 1 : 0);
      sample_of.push_back(static_cast<int>(mix() % kSamplePool));
    }
  };
  std::int64_t id_base = 0;  // request ids continue across phases
  const SubmitFn submit = [&](std::int64_t id) {
    draw(id_base + id);
    const auto k = static_cast<std::size_t>(id_base + id);
    serve::Request req;
    req.sample = pool[static_cast<std::size_t>(sample_of[k])];
    ScopedSpan s(g_trace, "serve.submit", id_base + id);
    return (engine_of[k] == 0 ? d.fp32_engine : d.int8_engine)->submit(std::move(req));
  };
  auto check = [&](const Completion& c) {
    ++res.attempted;
    const auto k = static_cast<std::size_t>(id_base + c.id);
    if (c.response.status != Status::kOk) {
      res.fail("edge request " + std::to_string(id_base + c.id) + " status " +
               std::to_string(static_cast<int>(c.response.status)));
      return false;
    }
    const Tensor& ref = engine_of[k] == 0 ? ref32[static_cast<std::size_t>(sample_of[k])]
                                          : ref8[static_cast<std::size_t>(sample_of[k])];
    if (!bitwise_equal(c.response.output.reshaped({ref.numel()}), ref)) {
      res.fail("edge request " + std::to_string(id_base + c.id) +
               ": batched output differs from CompiledModel::run alone");
      return false;
    }
    return true;
  };

  // Every round runs a slice of each phase: open-loop latency 55%, closed-
  // loop capacity 25%, update 8%, personalize 8%, then set-up repetitions.
  const Rounds rounds(args.seconds, 2.5);
  LatencyRounds lat;
  crispbench::GatedFigures capacity, update_ms, personalize_s;  // one per round
  const Tensor probe = batch_of(std::vector<Tensor>(pool.begin(), pool.begin() + 16));
  for (int r = 0; r < rounds.count; ++r) {
    const bool traced = rounds.traced(args.trace, r);
    g_trace.set_enabled(traced);
    // ---- open loop (round 0 starts with 0.5 s of discarded warm-up) ----
    {
      ServingStats ss;
      const double warm_us = r == 0 ? 0.5e6 : 0.0;
      const std::vector<double> sched = crispbench::poisson_schedule(
          args.seed * 1000 + 4 + r, kRateRps, warm_us + 0.55 * rounds.seconds * 1e6);
      const double speed = on_fast_cores(kWorkers, [&] {
        run_open_loop(
            sched,
            [&](std::int64_t id) {
              ++ss.sent;
              return submit(id);
            },
            [&](Completion& c) {
              const bool ok = check(c);
              ss.ok += ok;
              ss.failed += !ok;
              ss.record(c, sched[static_cast<std::size_t>(c.id)] >= warm_us);
            },
            ss.lag);
      });
      id_base += static_cast<std::int64_t>(sched.size());
      lat.add(std::move(ss), traced, speed);
    }
    // ---- closed loop ----
    std::int64_t closed_n = 0;
    // Slot k % 4 == 3 goes to the int8 engine: a fixed 3:1 split of the
    // outstanding requests, so neither engine's queue drains by chance.
    const SlotSubmitFn closed_submit = [&](std::int64_t id, std::int64_t slot) {
      draw(id_base + id);
      engine_of[static_cast<std::size_t>(id_base + id)] = slot % 4 == 3 ? 1 : 0;
      return submit(id);
    };
    double rps = 0.0;
    const double closed_speed = on_fast_cores(kWorkers, [&] {
      rps = run_closed_loop(kOutstanding, 0.25 * rounds.seconds, closed_submit,
                            [&](Completion& c) {
                              check(c);
                              closed_n = std::max(closed_n, c.id + 1);
                            });
    });
    capacity.add(rps, closed_speed);
    id_base += closed_n;
    // ---- update: re-deploy the artifact onto the live fp32 engine ----
    std::vector<double> round_ms;
    double speed = g_cpus.place(kWorkers);
    for (const Clock::time_point end = rounds.deadline(0.08); ;) {
      ++res.attempted;
      const Clock::time_point t0 = Clock::now();
      auto fresh = compile_artifact(factory, d.packed);
      d.fp32_engine->swap_model(fresh);
      round_ms.push_back(ms_between(t0, Clock::now()));
      // The swapped-in artifact must serve the same bits.
      const std::size_t k = round_ms.size() % pool.size();
      serve::Request req;
      req.sample = pool[k];
      const serve::Response resp = d.fp32_engine->submit(std::move(req)).get();
      if (resp.status != Status::kOk ||
          !bitwise_equal(resp.output.reshaped({resp.output.numel()}), ref32[k]))
        res.fail("edge swap_model served different outputs");
      if (Clock::now() >= end) break;
    }
    update_ms.add(median(round_ms), std::max(speed, g_cpus.check()));
    // ---- personalize: pack -> quantize -> compile int8 -> evaluate ----
    std::vector<double> round_s;
    speed = g_cpus.place(kWorkers);
    for (const Clock::time_point end = rounds.deadline(0.08); ;) {
      ++res.attempted;
      const Clock::time_point t0 = Clock::now();
      auto art = std::make_shared<deploy::PackedModel>(
          deploy::PackedModel::pack(*masked, cc.block, cc.n, cc.m));
      art->quantize_payloads();
      auto compiled = compile_artifact(factory, art);
      const Tensor out = compiled->run(probe);
      round_s.push_back(ms_between(t0, Clock::now()) / 1e3);
      for (std::int64_t i = 0; i < 16; ++i)
        if (!bitwise_equal(row_of(out, i), ref8[static_cast<std::size_t>(i)])) {
          res.fail("edge int8 rebuild: batch row differs from serial run");
          break;
        }
      if (Clock::now() >= end) break;
    }
    personalize_s.add(median(round_s), std::max(speed, g_cpus.check()));
    if (!args.trace) setup.repeat(kSetupRepsPerRound);
  }
  g_trace.set_enabled(args.trace);

  d.fp32_engine->shutdown();
  d.int8_engine->shutdown();

  if (!args.trace) {
    res.set("setup_s", setup.seconds(), "s");
    lat.report_e2e(res);
    res.set("capacity_rps", gated("capacity_rps", capacity, false), "1/s");
    res.set("update_p50_ms", gated("update_p50_ms", update_ms), "ms");
    res.set("personalize_s", gated("personalize_s", personalize_s), "s");
    res.set("user_accuracy", static_cast<double>(agree) / kSamplePool, "fraction");
    res.set("model_kib", d.packed->stats().total_bits() / 8.0 / 1024.0, "KiB");
    res.set("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    lat.report_layers(res);
    res.set("core.sparsity", mask_sparsity(*masked), "fraction");
    res.set("core.sparsity_target", cc.target_sparsity, "fraction");
    data::Dataset calib;
    {
      Rng rng(args.seed + 5);
      calib.images = Tensor::randn({64, 3, mcfg.input_size, mcfg.input_size}, rng);
      calib.num_classes = mcfg.num_classes;
      for (std::int64_t i = 0; i < 64; ++i) calib.labels.push_back(i % mcfg.num_classes);
    }
    ProbeInputs in;
    in.factory = factory;
    in.masked = masked.get();
    in.sample_shape = {3, mcfg.input_size, mcfg.input_size};
    in.block = cc.block;
    in.n = cc.n;
    in.m = cc.m;
    in.calibration = &calib;
    run_probes(in, res);
  }
  return res;
}

}  // namespace edge

// =============================================================================
// fleet_zipf: tenant::Router over thousands of MaskDelta tenants.
// =============================================================================

namespace fleet {

constexpr std::int64_t kBlock = 8, kN = 2, kM = 4, kPrunedRanks = 2;
constexpr std::int64_t kTenants = 2000;
constexpr double kZipfS = 1.5;
constexpr std::int64_t kEngines = 16;      // router engine cap
constexpr std::int64_t kCompiled = 16;     // store budget, in residents
/// Fixed open-loop rate. Cold misses queue on the router's one compiler
/// thread, so p90 (a cold request) grows faster than the host slows: at
/// 400/s it moved 20% with the host, and at 200/s with 40 updates/s two
/// slow runs in ten read 3.2 and 3.9 ms against 2.2 ms.
constexpr double kRateRps = 100.0;
constexpr double kUpdateRps = 20.0;        // re-personalizations per second
constexpr std::int64_t kOutstanding = 32;  // closed-loop capacity phase
constexpr std::int64_t kPrepared = 32;     // restricted models for updates
constexpr std::int64_t kSamplePool = 256;
constexpr std::int64_t kCheckEvery = 16;   // verify every 16th response
constexpr int kBuildsPerRound = 30;
constexpr int kSetupRepsPerRound = 2;
constexpr int kWorkers = 1;  // cores for engine workers, compiler and updater

std::shared_ptr<nn::Sequential> make_base_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_shared<nn::Sequential>("fleet_mlp");
  model->emplace<nn::Linear>("fc1", 128, 96, rng);
  model->emplace<nn::ReLU>("relu1");
  model->emplace<nn::Linear>("fc2", 96, 64, rng);
  model->emplace<nn::ReLU>("relu2");
  model->emplace<nn::Linear>("head", 64, 16, rng);
  return model;
}

/// The base pattern, then one more surviving block dropped per block-row
/// (chosen by `salt`): a valid CRISP restriction, so a MaskDelta.
void restrict_model(nn::Sequential& model, std::uint64_t seed, std::uint64_t salt) {
  core::install_random_hybrid_masks(model, kBlock, kN, kM, kPrunedRanks, seed);
  std::mt19937_64 pick(salt);
  for (nn::Parameter* p : model.prunable_parameters()) {
    const std::int64_t rows = p->matrix_rows, cols = p->matrix_cols;
    const sparse::BlockGrid grid{rows, cols, kBlock};
    float* mask = p->mask.data();
    for (std::int64_t br = 0; br < grid.grid_rows(); ++br) {
      const std::int64_t r0 = br * kBlock, r1 = r0 + grid.row_extent(br);
      std::vector<std::int64_t> live;
      for (std::int64_t bc = 0; bc < grid.grid_cols(); ++bc) {
        bool any = false;
        for (std::int64_t r = r0; r < r1 && !any; ++r)
          for (std::int64_t c = bc * kBlock; c < bc * kBlock + grid.col_extent(bc); ++c)
            any = any || mask[r * cols + c] != 0.0f;
        if (any) live.push_back(bc);
      }
      if (live.size() < 2) continue;
      const std::int64_t bc = live[pick() % live.size()];
      for (std::int64_t r = r0; r < r1; ++r)
        for (std::int64_t c = bc * kBlock; c < bc * kBlock + grid.col_extent(bc); ++c)
          mask[r * cols + c] = 0.0f;
    }
  }
}

std::string tenant_id(std::int64_t k) { return "t" + std::to_string(k); }

Result run(const Args& args) {
  Result res;
  // The base model and its pattern are part of the workload; --seed draws
  // every tenant's restriction, the traffic and the samples.
  const std::uint64_t mseed = 11;
  const tenant::ModelFactory factory = [mseed] { return make_base_model(mseed); };
  std::filesystem::create_directories(args.work_dir);
  const std::string tag = std::to_string(args.seed) + "_" + std::to_string(::getpid());
  const std::string base_path = args.work_dir + "/fleet_base_" + tag + ".crsp";
  const std::string shard_path = args.work_dir + "/fleet_" + tag + ".shard";

  // ---- inputs: base artifact file, tenant shard, prepared restrictions ----
  // Tenant k's first version is salt k; update j uses salt kTenants + j.
  auto restricted = [&](std::uint64_t salt) {
    std::shared_ptr<nn::Sequential> m = factory();
    restrict_model(*m, mseed, args.seed * 1000003 + salt);
    return m;
  };
  std::shared_ptr<const tenant::BaseArtifact> gen_base;
  {
    std::shared_ptr<nn::Sequential> m = factory();
    core::install_random_hybrid_masks(*m, kBlock, kN, kM, kPrunedRanks, mseed);
    deploy::PackedModel::pack(*m, kBlock, kN, kM).save(base_path);
    gen_base = tenant::BaseArtifact::create(
        std::make_shared<const deploy::PackedModel>(deploy::PackedModel::load(base_path)));
    tenant::Store gen(gen_base, factory);
    for (std::int64_t k = 0; k < kTenants; ++k) {
      std::shared_ptr<nn::Sequential> r = restricted(static_cast<std::uint64_t>(k));
      gen.register_tenant(tenant_id(k), tenant::MaskDelta::from_model(*gen_base, *r));
    }
    gen.save_shard(shard_path);
  }
  std::vector<std::shared_ptr<nn::Sequential>> prepared;
  for (std::int64_t j = 0; j < kPrepared; ++j)
    prepared.push_back(restricted(static_cast<std::uint64_t>(kTenants + j)));
  std::vector<Tensor> pool;
  {
    Rng rng(args.seed + 2);
    for (std::int64_t i = 0; i < kSamplePool; ++i) pool.push_back(Tensor::randn({128}, rng));
  }

  tenant::RouterOptions ropts;
  ropts.max_engines = kEngines;
  ropts.cold_queue_depth = 1 << 16;
  ropts.engine.queue_depth = 1 << 16;
  ropts.engine.thread_budget = 1;

  // ---- setup: what a restarted server does before serving ----
  struct Server {
    std::shared_ptr<const tenant::BaseArtifact> base;
    std::shared_ptr<tenant::Store> store;
    std::unique_ptr<tenant::Router> router;  // destroyed first
  };
  SetupTimer setup(kWorkers, [&] {
    Server n;
    n.base = tenant::BaseArtifact::create(
        std::make_shared<const deploy::PackedModel>(deploy::PackedModel::load(base_path)));
    tenant::StoreOptions sopts;
    {
      tenant::Store probe(n.base, factory);
      sopts.compiled_budget_bytes = kCompiled * probe.compiled_overhead_bytes();
    }
    n.store = std::make_shared<tenant::Store>(n.base, factory, sopts);
    tenant::ShardLoadReport rep;
    {
      ScopedSpan s(g_trace, "tenant.shard_load");
      rep = n.store->load_shard(shard_path, /*repair=*/false);
    }
    if (rep.loaded != kTenants || !rep.scan.clean() || rep.quarantined != 0)
      res.violate("shard load lost tenants or found corruption");
    n.router = std::make_unique<tenant::Router>(n.store, ropts);
    return n;
  });
  Server server = setup.build();
  const std::shared_ptr<const tenant::BaseArtifact>& base = server.base;
  tenant::Store* const store = server.store.get();
  tenant::Router* const router = server.router.get();

  // Registered versions per tenant (salts), for the output check.
  std::mutex versions_mu;
  std::map<std::int64_t, std::vector<std::uint64_t>> versions;
  auto versions_of = [&](std::int64_t k) {
    std::lock_guard<std::mutex> lk(versions_mu);
    std::vector<std::uint64_t> v{static_cast<std::uint64_t>(k)};
    auto it = versions.find(k);
    if (it != versions.end()) v.insert(v.end(), it->second.begin(), it->second.end());
    return v;
  };

  const crispbench::ZipfSampler zipf(kTenants, kZipfS);
  std::mt19937_64 mix(args.seed + 3);
  std::vector<std::int64_t> tenant_of, sample_of;
  auto draw = [&](std::int64_t id) {
    while (static_cast<std::int64_t>(tenant_of.size()) <= id) {
      tenant_of.push_back(zipf(mix));
      sample_of.push_back(static_cast<std::int64_t>(mix() % kSamplePool));
    }
  };
  struct Sampled {
    std::int64_t tenant, sample;
    Tensor output;
  };
  std::vector<Sampled> sampled;
  std::int64_t id_base = 0;
  const SubmitFn submit = [&](std::int64_t id) {
    const std::int64_t rid = id_base + id;
    draw(rid);
    serve::Request req;
    req.sample = pool[static_cast<std::size_t>(sample_of[static_cast<std::size_t>(rid)])];
    ScopedSpan s(g_trace, "tenant.submit", rid);
    return router->submit(tenant_id(tenant_of[static_cast<std::size_t>(rid)]),
                          std::move(req));
  };
  auto check = [&](const Completion& c) {
    ++res.attempted;
    const std::int64_t rid = id_base + c.id;
    if (c.response.status != Status::kOk) {
      res.fail("fleet request " + std::to_string(rid) + " status " +
               std::to_string(static_cast<int>(c.response.status)));
      return false;
    }
    if (rid % kCheckEvery == 0)
      sampled.push_back({tenant_of[static_cast<std::size_t>(rid)],
                         sample_of[static_cast<std::size_t>(rid)], c.response.output});
    return true;
  };

  // ---- output check: standalone MaskDelta::apply compile per version ----
  // A tenant version as a self-contained edge artifact. Nothing keeps one
  // beyond its use, so peak_rss_mib stays the server's.
  auto build_standalone = [&](nn::Sequential& restricted_model) {
    const tenant::MaskDelta delta = tenant::MaskDelta::from_model(*base, restricted_model);
    return compile_artifact(
        factory, std::make_shared<const deploy::PackedModel>(delta.apply(*base)));
  };
  auto standalone_of = [&](std::uint64_t salt) {
    std::shared_ptr<nn::Sequential> r =
        salt >= static_cast<std::uint64_t>(kTenants)
            ? prepared[static_cast<std::size_t>(salt - kTenants)]
            : restricted(salt);
    return build_standalone(*r);
  };
  // personalize_s: each round times kBuildsPerRound fresh standalone builds
  // of seed-drawn tenants (derive -> apply -> compile).
  std::mt19937_64 build_mix(args.seed + 7);
  crispbench::GatedFigures build_rounds;  // one per round
  auto timed_builds = [&] {
    const double before = g_cpus.place(kWorkers);
    std::vector<double> s;
    for (int i = 0; i < kBuildsPerRound; ++i) {
      std::shared_ptr<nn::Sequential> r =
          restricted(build_mix() % static_cast<std::uint64_t>(kTenants));
      const Clock::time_point t0 = Clock::now();
      build_standalone(*r);
      s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    build_rounds.add(median(s), std::max(before, g_cpus.check()));
  };
  // After serving: one standalone build per registered version, checked
  // against every sampled response of that tenant, then dropped. A sampled
  // response passes when any registered version of its tenant gives its bits.
  auto verify_sampled = [&] {
    std::map<std::uint64_t, std::vector<std::size_t>> by_version;
    for (std::size_t i = 0; i < sampled.size(); ++i)
      for (std::uint64_t salt : versions_of(sampled[i].tenant)) by_version[salt].push_back(i);
    std::vector<bool> matched(sampled.size(), false);
    for (const auto& [salt, idx] : by_version) {
      const std::shared_ptr<const serve::CompiledModel> ref = standalone_of(salt);
      for (std::size_t i : idx) {
        const Sampled& s = sampled[i];
        if (matched[i]) continue;
        const Tensor x = single_batch(pool[static_cast<std::size_t>(s.sample)]);
        matched[i] = bitwise_equal(row_of(ref->run(x), 0), s.output.reshaped({s.output.numel()}));
      }
    }
    for (std::size_t i = 0; i < sampled.size(); ++i)
      if (!matched[i])
        res.fail("fleet tenant " + std::to_string(sampled[i].tenant) +
                 ": served output matches none of its registered versions");
  };

  // ---- rounds: open loop with a concurrent updater 60%, closed loop 30%,
  // timed standalone builds and set-up repetitions ----
  std::vector<double> update_ms;
  std::vector<std::string> update_errors;
  auto latency_slice = [&](double seconds, double warm_us, std::uint64_t schedule_seed) {
    ServingStats ss;
    const double dur_us = warm_us + seconds * 1e6;
    const std::vector<double> sched =
        crispbench::poisson_schedule(schedule_seed, kRateRps, dur_us);
    std::thread updater([&] {
      tighten_timer_slack();
      const std::vector<double> usched =
          crispbench::poisson_schedule(schedule_seed + 1, kUpdateRps, dur_us);
      std::mt19937_64 umix(schedule_seed + 2);
      const Clock::time_point start = Clock::now();
      for (std::size_t u = 0; u < usched.size(); ++u) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(usched[u])));
        const std::int64_t k = zipf(umix);
        const auto j = static_cast<std::size_t>(umix() % kPrepared);
        {
          std::lock_guard<std::mutex> lk(versions_mu);
          std::vector<std::uint64_t>& v = versions[k];
          const std::uint64_t salt = static_cast<std::uint64_t>(kTenants) + j;
          if (std::find(v.begin(), v.end(), salt) == v.end()) v.push_back(salt);
        }
        const std::string id = tenant_id(k);
        try {
          const Clock::time_point t0 = Clock::now();
          std::optional<tenant::MaskDelta> delta;
          {
            ScopedSpan s(g_trace, "tenant.derive_delta");
            delta.emplace(tenant::MaskDelta::from_model(*base, *prepared[j]));
          }
          {
            ScopedSpan s(g_trace, "tenant.register");
            store->register_tenant(id, std::move(*delta));
          }
          {
            ScopedSpan s(g_trace, "tenant.refresh");
            router->refresh_tenant(id);
          }
          if (usched[u] >= warm_us) update_ms.push_back(ms_between(t0, Clock::now()));
        } catch (const std::exception& e) {
          update_errors.push_back(id + ": " + e.what());
        }
      }
    });
    run_open_loop(
        sched,
        [&](std::int64_t id) {
          ++ss.sent;
          return submit(id);
        },
        [&](Completion& c) {
          const bool ok = check(c);
          ss.ok += ok;
          ss.failed += !ok;
          ss.record(c, sched[static_cast<std::size_t>(c.id)] >= warm_us);
        },
        ss.lag);
    updater.join();
    id_base += static_cast<std::int64_t>(sched.size());
    return ss;
  };

  const Rounds rounds(args.seconds, 1.25);
  LatencyRounds lat;
  crispbench::GatedFigures capacity, update_rounds;  // one per round
  std::int64_t cold = 0, routed = 0, store_hits = 0, store_acquires = 0;
  tenant::ResidentBytes resident;
  std::int64_t compiled_count = 0;
  for (int r = 0; r < rounds.count; ++r) {
    const bool traced = rounds.traced(args.trace, r);
    g_trace.set_enabled(traced);
    const tenant::RouterStats rs0 = router->stats();
    const tenant::StoreStats st0 = store->stats();
    const std::size_t updates0 = update_ms.size();
    ServingStats ss;
    const double speed = on_fast_cores(kWorkers, [&] {
      ss = latency_slice(0.6 * rounds.seconds, r == 0 ? 0.5e6 : 0.0,
                         args.seed * 1000 + 4 + 3 * r);
    });
    lat.add(std::move(ss), traced, speed);
    const tenant::RouterStats rs1 = router->stats();
    const tenant::StoreStats st1 = store->stats();
    if (traced) {
      cold += rs1.cold_misses - rs0.cold_misses;
      routed += rs1.submitted - rs0.submitted;
      store_hits += st1.hits - st0.hits;
      store_acquires += (st1.hits + st1.misses) - (st0.hits + st0.misses);
    }
    resident = store->resident_bytes();
    compiled_count = store->compiled_count();
    if (update_ms.size() > updates0)
      update_rounds.add(median(std::vector<double>(
                            update_ms.begin() + static_cast<std::ptrdiff_t>(updates0),
                            update_ms.end())),
                        speed);

    std::int64_t closed_n = 0;
    double rps = 0.0;
    const double closed_speed = on_fast_cores(kWorkers, [&] {
      rps = run_closed_loop(kOutstanding, 0.3 * rounds.seconds,
                            [&](std::int64_t id, std::int64_t) { return submit(id); },
                            [&](Completion& c) {
                              check(c);
                              closed_n = std::max(closed_n, c.id + 1);
                            });
    });
    capacity.add(rps, closed_speed);
    id_base += closed_n;
    timed_builds();
    if (!args.trace) setup.repeat(kSetupRepsPerRound);
  }
  g_trace.set_enabled(args.trace);
  router->shutdown();
  // Read before any reference artifact is built for the checks below.
  const double rss_mib = peak_rss_mib();
  std::remove(shard_path.c_str());
  std::remove(base_path.c_str());
  verify_sampled();
  res.attempted += static_cast<std::int64_t>(update_ms.size() + update_errors.size());
  for (const std::string& e : update_errors) res.fail("fleet update threw: " + e);
  if (store->excess_base_copies() != 0) res.violate("a cached overlay copies the base");

  if (sampled.empty()) res.violate("fleet: no response was sampled for checking");

  // Quality, fixed by the seed: how often does a tenant's first
  // personalization keep the shared base's top-1? Every 8th tenant, on 4
  // samples each.
  auto base_compiled = compile_artifact(factory, base->packed_ptr());
  std::int64_t agree = 0, agree_n = 0;
  for (std::int64_t k = 0; k < kTenants; k += 8) {
    std::vector<Tensor> xs;
    for (std::int64_t j = 0; j < 4; ++j)
      xs.push_back(pool[static_cast<std::size_t>((k + j) % kSamplePool)]);
    const Tensor x = batch_of(xs);
    const Tensor mine = standalone_of(static_cast<std::uint64_t>(k))->run(x);
    const Tensor theirs = base_compiled->run(x);
    const std::int64_t classes = mine.size(1);
    for (std::int64_t j = 0; j < 4; ++j, ++agree_n)
      agree += argmax(mine.data() + j * classes, classes) ==
               argmax(theirs.data() + j * classes, classes);
  }

  if (!args.trace) {
    res.set("setup_s", setup.seconds(), "s");
    lat.report_e2e(res);
    res.set("capacity_rps", gated("capacity_rps", capacity, false), "1/s");
    res.set("update_p50_ms", gated("update_p50_ms", update_rounds), "ms");
    res.set("personalize_s", gated("personalize_s", build_rounds), "s");
    res.set("user_accuracy", static_cast<double>(agree) / static_cast<double>(agree_n),
            "fraction");
    res.set("model_kib", resident.total() / 1024.0, "KiB");
    res.set("peak_rss_mib", rss_mib, "MiB");
  } else {
    lat.report_layers(res);
    res.set("tenant.derive_delta_us", g_trace.median_us("tenant.derive_delta"), "us");
    res.set("tenant.register_us", g_trace.median_us("tenant.register"), "us");
    res.set("tenant.refresh_ms", g_trace.median_us("tenant.refresh") / 1e3, "ms");
    res.set("tenant.submit_us", g_trace.median_us("tenant.submit"), "us");
    res.set("tenant.shard_load_ms", g_trace.median_us("tenant.shard_load") / 1e3, "ms");
    res.set("tenant.cold_share",
            static_cast<double>(cold) / static_cast<double>(std::max<std::int64_t>(1, routed)),
            "fraction");
    res.set("tenant.store_hit_ratio",
            static_cast<double>(store_hits) /
                static_cast<double>(std::max<std::int64_t>(1, store_acquires)),
            "fraction");
    res.set("tenant.compiled_kib_per_tenant",
            compiled_count == 0 ? 0.0 : resident.compiled / 1024.0 / compiled_count, "KiB");
    res.set("tenant.base_kib", resident.base / 1024.0, "KiB");
    res.set("tenant.deltas_kib", resident.deltas / 1024.0, "KiB");
    res.set("tenant.compiled_kib", resident.compiled / 1024.0, "KiB");
    // Store::acquire directly: tail tenants are cold, an immediate repeat hot.
    std::vector<double> cold_ms, hot_us;
    for (std::int64_t k = kTenants - 1; k >= kTenants - 40; --k) {
      Clock::time_point t0 = Clock::now();
      auto a = store->acquire(tenant_id(k));
      cold_ms.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      auto b = store->acquire(tenant_id(k));
      hot_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    res.set("tenant.acquire_cold_ms", median(cold_ms), "ms");
    res.set("tenant.acquire_hot_us", median(hot_us), "us");
    res.set("core.sparsity", mask_sparsity(*prepared.front()), "fraction");
    ProbeInputs in;
    in.factory = factory;
    in.masked = prepared.front().get();
    in.sample_shape = {128};
    in.block = kBlock;
    in.n = kN;
    in.m = kM;
    run_probes(in, res);
  }
  return res;
}

}  // namespace fleet

// =============================================================================
// personalize: the paper's per-user pipeline, offline.
// =============================================================================

namespace personalize {

constexpr std::int64_t kUserClasses = 5;
constexpr std::int64_t kAccuracyUsers = 48;  // fixed set: accuracy is by seed
constexpr std::uint64_t kUniverseSeed = 5;
constexpr std::int64_t kPretrainEpochs = 4;
constexpr int kSetupReps = 5;
constexpr std::int64_t kThroughputBatch = 16;
constexpr std::int64_t kThroughputSamples = 512;  // per user, sustained
constexpr int kLatencyPasses = 10;  // timed batch-1 passes over the test set

constexpr std::int64_t kImage = 16, kClasses = 100;

/// A small CNN for the CIFAR-100 stand-in: a dense stem, two prunable
/// convs and a prunable head. Small enough that the universal model trains
/// in a few seconds and each user personalizes in well under one.
std::shared_ptr<nn::Sequential> make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_shared<nn::Sequential>("user_cnn");
  auto conv = [&](const char* name, std::int64_t in, std::int64_t out, bool prunable) {
    nn::Conv2dSpec spec;
    spec.in_channels = in;
    spec.out_channels = out;
    spec.prunable = prunable;
    model->emplace<nn::Conv2d>(name, spec, rng);
  };
  conv("conv1", 3, 16, false);
  model->emplace<nn::BatchNorm2d>("bn1", 16);
  model->emplace<nn::ReLU>("relu1");
  model->emplace<nn::MaxPool2d>("pool1");
  conv("conv2", 16, 32, true);
  model->emplace<nn::BatchNorm2d>("bn2", 32);
  model->emplace<nn::ReLU>("relu2");
  model->emplace<nn::MaxPool2d>("pool2");
  conv("conv3", 32, 64, true);
  model->emplace<nn::BatchNorm2d>("bn3", 64);
  model->emplace<nn::ReLU>("relu3");
  model->emplace<nn::GlobalAvgPool>("gap");
  model->emplace<nn::Flatten>("flatten");
  model->emplace<nn::Linear>("fc", 64, kClasses, rng);
  return model;
}

core::CrispConfig crisp_config() {
  core::CrispConfig cc;  // 2:4, block 16, 90%, cass saliency
  cc.iterations = 3;
  cc.finetune_epochs = 1;
  cc.recovery_epochs = 2;
  return cc;
}

struct Universal {
  data::TrainTest data;
  TensorMap state;
};

struct UserResult {
  double personalize_s = 0.0, update_ms = 0.0, accuracy = 0.0;
  double achieved_sparsity = 0.0;
  std::uint64_t fingerprint = 0;
  std::vector<double> latency_ms;
  double samples_per_s = 0.0;
  double artifact_kib = 0.0;
  double speed_probe_us = 0.0;  ///< slowest FastCores probe around and in the user
};

Result run(const Args& args) {
  Result res;
  // The dataset and the universal model are part of the workload, like a
  // provider's shipped model; --seed draws the users and their classes.
  const std::uint64_t mseed = kUniverseSeed;
  const auto factory = [mseed] { return make_model(mseed); };
  const core::CrispConfig cc = crisp_config();

  // ---- setup: generate the dataset, train the universal model ----
  SetupTimer setup(1, [&] {
    Universal n;
    data::ClassPatternConfig dcfg = data::ClassPatternConfig::cifar100_like();
    dcfg.train_per_class = 16;
    dcfg.test_per_class = 8;
    dcfg.seed = kUniverseSeed;
    {
      ScopedSpan s(g_trace, "data.generate");
      n.data = data::make_class_pattern_dataset(dcfg);
    }
    std::shared_ptr<nn::Sequential> model = factory();
    nn::TrainConfig tcfg;
    tcfg.epochs = 1;
    tcfg.sgd.lr = 0.05f;
    Rng rng(kUniverseSeed + 1);
    for (std::int64_t e = 0; e < kPretrainEpochs; ++e) {
      ScopedSpan s(g_trace, "nn.train_epoch");
      nn::train(*model, n.data.train, tcfg, rng);
    }
    n.state = model->state_dict();
    return n;
  });
  if (!args.trace) setup.repeat(kSetupReps - 1);
  const Universal uni = setup.build();

  auto personalize_user = [&](std::int64_t u) {
    UserResult ur;
    Rng urng(args.seed * 1000003 + static_cast<std::uint64_t>(u));
    const std::vector<std::int64_t> classes =
        data::sample_user_classes(uni.data.train.num_classes, kUserClasses, urng);
    const data::Dataset train = data::filter_classes(uni.data.train, classes);
    const data::Dataset test = data::filter_classes(uni.data.test, classes);

    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<nn::Sequential> model = factory();
    model->load_state_dict(uni.state);
    core::CrispPruner pruner(*model, cc);
    core::PruneReport report;
    {
      ScopedSpan s(g_trace, "core.prune_run");
      report = pruner.run(train, urng);
    }
    pruner.bake();
    // Contention can come and go within a user, so the core is probed
    // between the user's phases too, outside every timed span.
    ur.speed_probe_us = g_cpus.check();
    const Clock::time_point t_deploy = Clock::now();
    std::shared_ptr<deploy::PackedModel> art;
    {
      ScopedSpan s(g_trace, "deploy.pack");
      art = std::make_shared<deploy::PackedModel>(
          deploy::PackedModel::pack(*model, cc.block, cc.n, cc.m));
    }
    {
      ScopedSpan s(g_trace, "deploy.quantize");
      art->quantize_payloads();
    }
    auto compiled = compile_artifact(factory, art);
    const Clock::time_point t_compiled = Clock::now();
    ur.artifact_kib = art->stats().total_bits() / 8.0 / 1024.0;
    Tensor out;
    {
      ScopedSpan s(g_trace, "serve.evaluate");
      out = compiled->run(test.images);
    }
    std::int64_t correct = 0;
    const std::int64_t classes_out = out.size(1);
    for (std::int64_t i = 0; i < test.size(); ++i)
      correct += argmax(out.data() + i * classes_out, classes_out, classes) ==
                 test.labels[static_cast<std::size_t>(i)];
    const Clock::time_point t1 = Clock::now();
    ur.personalize_s = ms_between(t0, t1) / 1e3;
    ur.update_ms = ms_between(t_deploy, t_compiled);
    ur.accuracy = static_cast<double>(correct) / static_cast<double>(test.size());
    ur.achieved_sparsity = report.achieved_sparsity();
    ur.fingerprint = mask_fingerprint(*model);

    if (!compiled->quantized()) res.violate("user artifact does not serve int8");
    // Block granularity makes the pruner overshoot a little, never undershoot.
    if (ur.achieved_sparsity < cc.target_sparsity - 0.005 ||
        ur.achieved_sparsity > cc.target_sparsity + 0.05)
      res.violate("user " + std::to_string(u) + " sparsity " +
                  std::to_string(ur.achieved_sparsity) + " misses target");
    // The user's device: each test sample alone (batch 1), which must
    // equal its row of the batched evaluate bit for bit. The first, untimed
    // pass over the test set warms the caches the pruning run evicted; the
    // next kLatencyPasses are timed, so 40 samples lie beyond the user's
    // p90.
    std::vector<Tensor> singles;
    for (std::int64_t i = 0; i < test.size(); ++i) singles.push_back(test.sample(i));
    for (int pass = 0; pass <= kLatencyPasses; ++pass) {
      for (std::int64_t i = 0; i < test.size(); ++i) {
        const Clock::time_point s0 = Clock::now();
        const Tensor y = compiled->run(singles[static_cast<std::size_t>(i)]);
        if (pass > 0) ur.latency_ms.push_back(ms_between(s0, Clock::now()));
        if (pass == 0 && !bitwise_equal(row_of(y, 0), row_of(out, i))) {
          res.fail("user " + std::to_string(u) + ": serial output differs from batched");
          break;
        }
      }
      ur.speed_probe_us = std::max(ur.speed_probe_us, g_cpus.check());
    }
    // Sustained throughput of the user's artifact: kThroughputSamples test
    // samples (the test set, cycled) in batches of 16, timed as one span.
    std::vector<Tensor> batches;
    for (std::int64_t b0 = 0; b0 < kThroughputSamples; b0 += kThroughputBatch) {
      std::vector<std::int64_t> idx;
      for (std::int64_t i = b0; i < b0 + kThroughputBatch; ++i) idx.push_back(i % test.size());
      batches.push_back(data::gather(test, idx).images);
    }
    const Clock::time_point s0 = Clock::now();
    for (const Tensor& batch : batches) const Tensor y = compiled->run(batch);
    ur.samples_per_s = static_cast<double>(kThroughputSamples) /
                       (ms_between(s0, Clock::now()) / 1e3);
    ur.speed_probe_us = std::max(ur.speed_probe_us, g_cpus.check());
    return ur;
  };

  // Untraced: the fixed users, then more until --seconds is spent.
  // Traced: the fixed users untraced, then again traced, and their mask
  // fingerprints must agree.
  // Users run back to back, each on the fastest core. Each user gives one
  // figure per metric, and the run reports the good-side quartile over the
  // users that ran at full speed, as the serving workloads do over rounds:
  // a user is a few tenths of a second of work.
  g_trace.set_enabled(false);
  std::vector<UserResult> users;
  const Clock::time_point end =
      Clock::now() + std::chrono::milliseconds(static_cast<int>(args.seconds * 1e3));
  for (std::int64_t u = 0;
       u < kAccuracyUsers || (!args.trace && Clock::now() < end); ++u) {
    ++res.attempted;
    try {
      UserResult ur;
      const double around = on_fast_cores(1, [&] { ur = personalize_user(u); });
      ur.speed_probe_us = std::max(ur.speed_probe_us, around);
      users.push_back(std::move(ur));
    } catch (const std::exception& e) {
      res.fail("user " + std::to_string(u) + ": " + e.what());
    }
  }
  if (static_cast<std::int64_t>(users.size()) < kAccuracyUsers) {
    res.violate("not every fixed user personalized");
    return res;
  }

  crispbench::GatedFigures pers, upd, p50, p90, sps;  // one per user
  std::vector<double> pers_all;                        // for the trace
  std::vector<double> lat;                             // pooled, for the trace
  double acc = 0.0;
  for (std::size_t u = 0; u < users.size(); ++u) {
    const UserResult& ur = users[u];
    const double speed = ur.speed_probe_us;
    pers.add(ur.personalize_s, speed);
    pers_all.push_back(ur.personalize_s);
    upd.add(ur.update_ms, speed);
    sps.add(ur.samples_per_s, speed);
    p50.add(percentile(ur.latency_ms, 0.5), speed);
    p90.add(percentile(ur.latency_ms, 0.9), speed);
    lat.insert(lat.end(), ur.latency_ms.begin(), ur.latency_ms.end());
    if (static_cast<std::int64_t>(u) < kAccuracyUsers) acc += ur.accuracy;
  }
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  for (std::int64_t u = 0; u < kAccuracyUsers; ++u)
    fp = fnv1a(&users[static_cast<std::size_t>(u)].fingerprint, sizeof(std::uint64_t), fp);
  std::fprintf(stderr, "crispbench: personalize mask fingerprint %016llx over %lld users\n",
               static_cast<unsigned long long>(fp), static_cast<long long>(kAccuracyUsers));

  if (!args.trace) {
    res.set("setup_s", setup.seconds(), "s");
    res.set("latency_p50_ms", gated("latency_p50_ms", p50), "ms");
    res.set("latency_p90_ms", gated("latency_p90_ms", p90), "ms");
    res.set("capacity_rps", gated("capacity_rps", sps, false), "1/s");
    res.set("update_p50_ms", gated("update_p50_ms", upd), "ms");
    res.set("personalize_s", gated("personalize_s", pers), "s");
    res.set("user_accuracy", acc / kAccuracyUsers, "fraction");
    std::vector<double> kib;
    for (const UserResult& ur : users) kib.push_back(ur.artifact_kib);
    res.set("model_kib", median(kib), "KiB");
    res.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return res;
  }

  // Traced pass over the same users.
  g_trace.set_enabled(true);
  std::vector<double> pers_traced;
  for (std::int64_t u = 0; u < kAccuracyUsers; ++u) {
    ++res.attempted;
    UserResult ur;
    on_fast_cores(1, [&] { ur = personalize_user(u); });
    pers_traced.push_back(ur.personalize_s);
    if (ur.fingerprint != users[static_cast<std::size_t>(u)].fingerprint)
      res.fail("user " + std::to_string(u) + ": traced mask differs from untraced");
  }
  res.set("trace.overhead_pct", overhead_pct(median(pers_all), median(pers_traced)), "%");
  res.set("data.generate_s", g_trace.median_us("data.generate") / 1e6, "s");
  res.set("nn.train_epoch_s", g_trace.median_us("nn.train_epoch") / 1e6, "s");
  res.set("core.prune_run_s", g_trace.median_us("core.prune_run") / 1e6, "s");
  double sp = 0.0;
  for (std::int64_t u = 0; u < kAccuracyUsers; ++u)
    sp += users[static_cast<std::size_t>(u)].achieved_sparsity;
  res.set("core.sparsity", sp / kAccuracyUsers, "fraction");
  res.set("core.sparsity_target", cc.target_sparsity, "fraction");
  res.set("loadgen.sent", static_cast<double>(lat.size()), "count");
  res.set("loadgen.ok", static_cast<double>(lat.size()), "count");
  res.set("loadgen.latency_p99_ms", percentile(lat, 0.99, false), "ms");

  // Probes on the last fixed user's pruned model and data.
  Rng urng(args.seed * 1000003 + static_cast<std::uint64_t>(kAccuracyUsers - 1));
  const std::vector<std::int64_t> classes =
      data::sample_user_classes(uni.data.train.num_classes, kUserClasses, urng);
  const data::Dataset train = data::filter_classes(uni.data.train, classes);
  std::shared_ptr<nn::Sequential> model = factory();
  model->load_state_dict(uni.state);
  core::CrispPruner pruner(*model, cc);
  pruner.run(train, urng);
  ProbeInputs in;
  in.factory = factory;
  in.masked = model.get();
  in.sample_shape = {3, kImage, kImage};
  in.block = cc.block;
  in.n = cc.n;
  in.m = cc.m;
  in.calibration = &train;
  run_probes(in, res);
  return res;
}

}  // namespace personalize

// ---- entry -------------------------------------------------------------------

/// Writes every recorded span as one JSON object per line.
void write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "crispbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const crispbench::Span& s : g_trace.spans())
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"request_id\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.request_id),
                 s.start_us, s.end_us);
  std::fclose(f);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(v);
    else if (arg == "--trace") a.trace = std::atoi(v) != 0;
    else if (arg == "--work-dir") a.work_dir = v;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: crispbench --workload edge_packed|fleet_zipf|personalize "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  // Kernels run serially: on a shared VM, a parallel_for waits for its
  // slowest vCPU, which made every compute metric swing by 20% from run to
  // run. Thread scaling is measured by bench_kernels, not here.
  kernels::set_num_threads(1);
  // One malloc arena: with one per thread, which of the router's many
  // threads happened to allocate decided how much freed memory stayed
  // mapped, and fleet_zipf peak_rss_mib moved by a fifth between runs.
  mallopt(M_ARENA_MAX, 1);
  const KeepAwake keep_awake;
  Result res;
  g_trace.set_enabled(args.trace);
  try {
    if (args.workload == "edge_packed") res = edge::run(args);
    else if (args.workload == "fleet_zipf") res = fleet::run(args);
    else if (args.workload == "personalize") res = personalize::run(args);
    else {
      std::fprintf(stderr, "crispbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crispbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "crispbench: fastest speed probe of the run: %.1f us\n",
               g_cpus.fastest_us());
  if (args.trace) {
    zero_fill_layers(res);
    std::filesystem::create_directories(args.work_dir);
    write_spans(args.work_dir + "/trace_" + args.workload + "_" +
                std::to_string(args.seed) + ".jsonl");
  }
  res.print();
  return res.correct ? 0 : 1;
}
