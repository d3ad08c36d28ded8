// Table 6 (locality): the two measurements the paper backs with PCM
// hardware counters, reproduced with wall-clock time plus the library's
// software event counters of the obs registry (DESIGN.md §1 substitution),
// printed per run:
//
//   1. k-core with the work-efficient histogram vs the fetch-and-add
//      baseline. Paper: histogram is 1.1-3.1x faster (3.5x on ClueWeb) and
//      slashes memory stalls; here we report times plus the number of
//      histogram calls (only rounds peeling at least kKcoreSmallRoundEdges
//      edges issue one; smaller rounds update degrees in a sequential
//      dense pass, so a skewed graph's count is well below its rounds)
//      and the number of contended FA operations the baseline issues
//      (one per peeled edge, in every round).
//   2. wBFS with edge_map_data's blocked kernel (edgeMapBlocked) vs its
//      unblocked one, which writes a slot per incident edge. Paper:
//      blocked reads/writes 2.1x fewer bytes and is ~1.7x faster; here we
//      report times plus slots written per variant (the quantity that
//      drives the byte traffic).
#include <cstdint>
#include <cstdio>

#include "algorithms/kcore.h"
#include "algorithms/wbfs.h"
#include "bench_common.h"
#include "obs/registry.h"

namespace {

constexpr int kReps = 2;

// Time kReps runs of f and return the per-run increase of `c` (counters
// are monotone, so a count is a before/after delta).
template <typename F>
double time_counted(const gbbs::obs::counter& c, F&& f,
                    std::uint64_t* per_run) {
  const std::uint64_t before = c.value();
  const double t = bench::time_with_workers(parlib::num_workers(), f, kReps);
  *per_run = (c.value() - before) / kReps;
  return t;
}

}  // namespace

int main() {
  std::printf("# bench_locality: Table 6 — contention & traffic ablations\n");
  const auto& ev = gbbs::obs::events();
  auto suite = bench::make_suite();
  std::printf("%-14s %-26s %12s %16s %10s\n", "graph", "variant", "time(s)",
              "counter", "ratio");
  for (const auto& sg : suite) {
    // --- k-core: histogram vs fetch-and-add.
    std::uint64_t hist_calls = 0;
    const double t_hist = time_counted(ev.histogram_calls, [&] {
      gbbs::kcore(sg.sym, gbbs::kcore_variant::histogram);
    }, &hist_calls);
    std::uint64_t fa_ops = 0;
    const double t_fa = time_counted(ev.fetch_add_ops, [&] {
      gbbs::kcore(sg.sym, gbbs::kcore_variant::fetch_and_add);
    }, &fa_ops);
    std::printf("%-14s %-26s %12.4f %16llu %10s\n", sg.name.c_str(),
                "k-core (histogram)", t_hist,
                static_cast<unsigned long long>(hist_calls), "");
    std::printf("%-14s %-26s %12.4f %16llu %9.2fx\n", sg.name.c_str(),
                "k-core (fetch-and-add)", t_fa,
                static_cast<unsigned long long>(fa_ops), t_fa / t_hist);

    // --- wBFS: blocked vs unblocked edge_map_data (sparse-only, so this
    // isolates the two sparse traversals exactly as the paper's experiment
    // does).
    const gbbs::vertex_id src = sg.sym.num_vertices() / 2;
    std::uint64_t blocked_writes = 0;
    const double t_blocked = time_counted(ev.edgemap_slots_written, [&] {
      gbbs::wbfs(sg.sym_weighted, src, /*use_blocked=*/true);
    }, &blocked_writes);
    std::uint64_t plain_writes = 0;
    const double t_plain = time_counted(ev.edgemap_slots_written, [&] {
      gbbs::wbfs(sg.sym_weighted, src, /*use_blocked=*/false);
    }, &plain_writes);
    std::printf("%-14s %-26s %12.4f %16llu %10s\n", sg.name.c_str(),
                "wBFS (blocked)", t_blocked,
                static_cast<unsigned long long>(blocked_writes), "");
    std::printf("%-14s %-26s %12.4f %16llu %9.2fx\n", sg.name.c_str(),
                "wBFS (unblocked)", t_plain,
                static_cast<unsigned long long>(plain_writes),
                t_plain / t_blocked);
    std::printf("%-14s %-26s %12s %15.2fx\n", sg.name.c_str(),
                "  slots written ratio", "",
                blocked_writes > 0
                    ? static_cast<double>(plain_writes) / blocked_writes
                    : 0.0);
    std::fflush(stdout);
  }
  return 0;
}
