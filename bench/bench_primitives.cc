// Micro-suite for the parlib substrate, in two parts.
//
// 1. Scheduler sweeps (always built, no external deps): fork-join overhead
//    of the Chase-Lev deques, steal throughput, external-vs-native worker
//    scaling, and registration churn cost. `-json <path>` emits the sweeps
//    as machine-readable rows (tracked as BENCH_scheduler.json across PRs)
//    and skips the Google Benchmark section so CI smoke stays fast.
//
// 2. google-benchmark micro-suite (built when Google Benchmark is
//    installed, GBBS_HAVE_BENCHMARK): the primitives of Section 3 (scan,
//    reduce, filter), the sorts, the Section 5 histogram, and the atomic
//    primitives of the MT-RAM model.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/flight_recorder.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/scheduler.h"
#include "parlib/sequence_ops.h"

#ifdef GBBS_HAVE_BENCHMARK
#include <benchmark/benchmark.h>

#include "parlib/histogram.h"
#include "parlib/integer_sort.h"
#include "parlib/sort.h"
#endif

namespace {

// ---- scheduler sweeps -----------------------------------------------------

// Fork-join overhead: a parallel_for of trivial bodies at granularity 1
// creates ~n par_do frames; the difference against the 1-active-worker
// run (which takes the inline path, no deque traffic) isolates the
// push/pop_if/steal constant of the Chase-Lev deque.
bench::json_record sweep_fork_join() {
  const std::size_t n = std::size_t{1} << 16;
  std::vector<std::size_t> out(n);
  auto body = [&](std::size_t i) { out[i] = i; };
  const double seq_s = bench::time_with_workers(
      1, [&] { parlib::parallel_for(0, n, body, 1); }, 5);
  const double par_s = bench::time_best(
      [&] { parlib::parallel_for(0, n, body, 1); }, 5);
  const double fork_ns = par_s * 1e9 / static_cast<double>(n);
  const double overhead_ns =
      (par_s - seq_s) * 1e9 / static_cast<double>(n);
  std::printf("fork-join: %zu forks, %.1f ns/fork (inline baseline %.1f "
              "ns/iter, deque overhead %.1f ns/fork)\n",
              n, fork_ns, seq_s * 1e9 / static_cast<double>(n),
              overhead_ns);
  return bench::json_record()
      .field("section", std::string("fork_join"))
      .field("forks", static_cast<std::uint64_t>(n))
      .field("ns_per_fork", fork_ns)
      .field("inline_ns_per_iter", seq_s * 1e9 / static_cast<double>(n))
      .field("deque_overhead_ns_per_fork", overhead_ns);
}

// Steal throughput: skewed tiny tasks at granularity 1 keep every worker
// stealing; successful steals per second out of the scheduler's counter,
// with the steal delta and the wall time taken over the same reps.
// (0 steals on a 1-worker host — nobody to steal from.)
bench::json_record sweep_steals() {
  const std::size_t n = std::size_t{1} << 14;
  const int reps = 3;
  std::atomic<std::uint64_t> sink{0};
  const std::uint64_t steals_before =
      parlib::scheduler::instance().total_steals();
  double total_s = 0;
  for (int r = 0; r < reps; ++r) {
    total_s += bench::time_once([&] {
      parlib::parallel_for(
          0, n,
          [&](std::size_t i) {
            std::uint64_t acc = 0;
            for (std::size_t k = 0; k < 64; ++k) acc += k * i;
            sink.fetch_add(acc == 0 ? 1 : 0, std::memory_order_relaxed);
          },
          1);
    });
  }
  const std::uint64_t steals =
      parlib::scheduler::instance().total_steals() - steals_before;
  const double per_s =
      total_s > 0 ? static_cast<double>(steals) / total_s : 0;
  std::printf("steals: %llu across %d reps of %zu tiny tasks (%.0f "
              "steals/s)\n",
              static_cast<unsigned long long>(steals), reps, n, per_s);
  return bench::json_record()
      .field("section", std::string("steal_throughput"))
      .field("tasks", static_cast<std::uint64_t>(n))
      .field("steals", steals)
      .field("steals_per_s", per_s);
}

// External-vs-native scaling: the same parallel reduction timed from the
// main thread (native worker 0), from a registered external thread (its
// own deque — should match native), and from an unregistered thread
// (inline-sequential by contract).
void sweep_external(std::vector<bench::json_record>& rows) {
  const std::size_t n = std::size_t{1} << 20;
  auto data = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i) % 1000; });
  const std::uint64_t expect = parlib::reduce_add(data);

  auto timed_in_thread = [&](bool registered) {
    double t = 0;
    std::uint64_t got = 0;
    std::thread th([&] {
      if (registered) {
        parlib::worker_guard guard;
        t = bench::time_best([&] { got = parlib::reduce_add(data); }, 5);
      } else {
        t = bench::time_best([&] { got = parlib::reduce_add(data); }, 5);
      }
    });
    th.join();
    if (got != expect) std::printf("external sweep: CHECKSUM MISMATCH\n");
    return t;
  };

  const double native_s =
      bench::time_best([&] { parlib::reduce_add(data); }, 5);
  const double registered_s = timed_in_thread(true);
  const double unregistered_s = timed_in_thread(false);
  std::printf("reduce(2^20) native %.3f ms | external-registered %.3f ms "
              "| unregistered(sequential) %.3f ms\n",
              native_s * 1e3, registered_s * 1e3, unregistered_s * 1e3);
  rows.push_back(bench::json_record()
                     .field("section", std::string("external_scaling"))
                     .field("n", static_cast<std::uint64_t>(n))
                     .field("native_ms", native_s * 1e3)
                     .field("external_registered_ms", registered_s * 1e3)
                     .field("unregistered_ms", unregistered_s * 1e3)
                     .field("registered_vs_native",
                            native_s > 0 ? registered_s / native_s : 0));
}

// Flight-recorder overhead: the cost of one hot-path event write with the
// recorder enabled vs runtime-disabled (one relaxed load + branch — the
// floor a -DGBBS_FLIGHT_RECORDER=OFF build compiles down past), plus the
// fork-join sweep re-run with the recorder off to bound what always-on
// tracing adds per par_do. The enabled number is the contract the README
// quotes: a low-ns write, safe to leave on in production serving.
bench::json_record sweep_tracing() {
  auto& fr = gbbs::obs::flight_recorder::global();
  const std::size_t reps = 1 << 20;
  const std::uint32_t name_id = fr.intern("bench.trace_overhead");

  auto emit_loop = [&] {
    for (std::size_t i = 0; i < reps; ++i) {
      fr.emit(gbbs::obs::event_type::instant, name_id,
              static_cast<std::uint64_t>(i));
    }
  };
  const double enabled_s = bench::time_best(emit_loop, 5);
  fr.set_enabled(false);
  const double disabled_s = bench::time_best(emit_loop, 5);

  // Fork-join with the recorder off: the delta against sweep_fork_join's
  // ns_per_fork (recorder on, the default) is the per-fork tracing tax.
  const std::size_t n = std::size_t{1} << 16;
  std::vector<std::size_t> out(n);
  auto body = [&](std::size_t i) { out[i] = i; };
  const double fork_off_s = bench::time_best(
      [&] { parlib::parallel_for(0, n, body, 1); }, 5);
  fr.set_enabled(true);
  const double fork_on_s = bench::time_best(
      [&] { parlib::parallel_for(0, n, body, 1); }, 5);

  const double enabled_ns = enabled_s * 1e9 / static_cast<double>(reps);
  const double disabled_ns = disabled_s * 1e9 / static_cast<double>(reps);
  const double fork_on_ns = fork_on_s * 1e9 / static_cast<double>(n);
  const double fork_off_ns = fork_off_s * 1e9 / static_cast<double>(n);
  std::printf(
      "tracing: %.1f ns/event enabled, %.1f ns disabled | fork-join "
      "%.1f ns/fork recorder-on vs %.1f ns recorder-off\n",
      enabled_ns, disabled_ns, fork_on_ns, fork_off_ns);
  return bench::json_record()
      .field("section", std::string("tracing_overhead"))
      .field("events", static_cast<std::uint64_t>(reps))
      .field("emit_ns_enabled", enabled_ns)
      .field("emit_ns_disabled", disabled_ns)
      .field("fork_ns_recorder_on", fork_on_ns)
      .field("fork_ns_recorder_off", fork_off_ns);
}

// Registration churn: worker_guard claim+release cost (the per-thread
// setup a reader pool pays once, not per query).
bench::json_record sweep_registration() {
  const std::size_t reps = 20000;
  double t = 0;
  std::thread th([&] {
    t = bench::time_once([&] {
      for (std::size_t i = 0; i < reps; ++i) {
        parlib::worker_guard guard;
        if (!guard.registered() &&
            parlib::scheduler::instance().num_workers() > 0) {
          std::printf("registration sweep: slot table exhausted?\n");
        }
      }
    });
  });
  th.join();
  const double ns = t * 1e9 / static_cast<double>(reps);
  std::printf("registration churn: %.0f ns per register+unregister\n", ns);
  return bench::json_record()
      .field("section", std::string("registration_churn"))
      .field("reps", static_cast<std::uint64_t>(reps))
      .field("ns_per_registration", ns);
}

void run_scheduler_sweeps(const std::string& json_path) {
  std::printf("== scheduler sweeps (workers=%zu, max slots=%zu) ==\n",
              parlib::num_workers(),
              parlib::scheduler::instance().max_slots());
  std::vector<bench::json_record> rows;
  rows.push_back(sweep_fork_join());
  rows.push_back(sweep_steals());
  sweep_external(rows);
  rows.push_back(sweep_registration());
  rows.push_back(sweep_tracing());
  if (!json_path.empty()) {
    bench::write_json(json_path, "bench_scheduler", rows);
  }
}

// ---- google-benchmark micro-suite -----------------------------------------

#ifdef GBBS_HAVE_BENCHMARK

void BM_Scan(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto data = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i) % 100; });
  for (auto _ : state) {
    auto copy = data;
    benchmark::DoNotOptimize(parlib::scan_inplace(copy));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Scan)->Arg(1 << 16)->Arg(1 << 20);

void BM_Reduce(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto data = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(parlib::reduce_add(data));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Reduce)->Arg(1 << 16)->Arg(1 << 20);

void BM_Filter(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto data = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parlib::filter(data, [](std::uint64_t v) { return v % 3 == 0; }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Filter)->Arg(1 << 16)->Arg(1 << 20);

void BM_MergeSort(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto data = parlib::tabulate<std::uint64_t>(
      n, [](std::size_t i) { return parlib::hash64(i); });
  for (auto _ : state) {
    auto copy = data;
    parlib::sort_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeSort)->Arg(1 << 16)->Arg(1 << 19);

void BM_IntegerSort(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto data = parlib::tabulate<std::uint32_t>(n, [](std::size_t i) {
    return parlib::hash32(static_cast<std::uint32_t>(i));
  });
  for (auto _ : state) {
    auto copy = data;
    parlib::integer_sort_inplace(copy, [](std::uint32_t x) { return x; }, 32);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IntegerSort)->Arg(1 << 16)->Arg(1 << 19);

// Fork-join overhead of the scheduler hot path (the google-benchmark view
// of sweep_fork_join, for --benchmark_filter-driven digging).
void BM_ForkJoinGranularity1(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::size_t> out(n);
  for (auto _ : state) {
    parlib::parallel_for(0, n, [&](std::size_t i) { out[i] = i; }, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ForkJoinGranularity1)->Arg(1 << 12)->Arg(1 << 16);

// Histogram on skewed keys (the k-core setting of Section 5) vs uniform.
void BM_HistogramSkewed(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pairs(n);
  for (std::size_t i = 0; i < n; ++i) {
    // ~half the mass on 16 heavy keys.
    const auto h = parlib::hash64(i);
    const std::uint32_t key = (h & 1) ? (h >> 1) % 16
                                      : 16 + (h >> 1) % 100000;
    pairs[i] = {key, 1};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parlib::histogram_by_key<std::uint32_t, std::uint64_t>(
            pairs, [](auto a, auto b) { return a + b; }, 0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HistogramSkewed)->Arg(1 << 16)->Arg(1 << 19);

// The contended alternative the histogram replaces.
void BM_FetchAddContended(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::uint64_t> counters(16 + 100000, 0);
  for (auto _ : state) {
    parlib::parallel_for(0, n, [&](std::size_t i) {
      const auto h = parlib::hash64(i);
      const std::uint32_t key = (h & 1) ? (h >> 1) % 16
                                        : 16 + (h >> 1) % 100000;
      parlib::fetch_and_add<std::uint64_t>(&counters[key], 1);
    });
    benchmark::DoNotOptimize(counters.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FetchAddContended)->Arg(1 << 16)->Arg(1 << 19);

void BM_RandomPermutation(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parlib::random_permutation(n, parlib::random(3)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RandomPermutation)->Arg(1 << 16)->Arg(1 << 19);

#endif  // GBBS_HAVE_BENCHMARK

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_flag(argc, argv);
  run_scheduler_sweeps(json_path);
  // -json = machine-readable sweep mode (the CI smoke step): skip the
  // google-benchmark suite so the run stays seconds-fast.
  if (!json_path.empty()) return 0;
#ifdef GBBS_HAVE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#endif
  return 0;
}
