// The system benchmark: one command, two workloads, every answer checked.
//
//   perfbench --workload rmat|torus --seed <n> --seconds <s> --trace <0|1>
//             [--size full|toy] [--commit <id>]
//
// Each workload runs the same three phases: the paper's 15 problems on the
// workload's input (static: a skewed low-diameter R-MAT graph, or a
// high-diameter 3D torus), then open-loop query serving over insert-only
// single-writer ingest (serve) and erase-heavy sharded sliding-window
// ingest (churn), both on the R-MAT graph (README.md says why).
// Sizes are fixed here, never read from the environment, so every run of a
// workload measures the same problem size.
//
// Output: a metadata line, then as the last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
// or with --trace 1 the per-layer metrics).
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "parlib/scheduler.h"

namespace perfbench {
namespace {

enum phase_id { static_p, serve_p, churn_p };

struct workload {
  const char* name = nullptr;
  input_spec static_input;  // the static phase's graph family
  input_spec serve_input;   // R-MAT graph the serve and churn phases use
  double static_seconds = 1;
  serve_config sv;
  churn_config ch;
};

// Share of --seconds each phase's schedule takes. The closed-loop tails of
// serve and churn run on top, sized to a few seconds each. The static phase
// gets the most: its times are the bulk of the gated metrics, and a longer
// window averages over more of the host's speed changes.
constexpr double kStaticShare = 0.6;
constexpr double kServeShare = 0.2;
constexpr double kChurnShare = 0.2;

workload make_workload(const std::string& name, double seconds, bool toy) {
  workload w;
  if (name == "rmat") {
    w.name = "rmat";
    w.static_input.family = graph_family::rmat;
  } else if (name == "torus") {
    w.name = "torus";
    w.static_input.family = graph_family::torus;
  } else {
    return w;
  }
  if (toy) {
    w.static_input.rmat_scale = w.serve_input.rmat_scale = 10;
    w.static_input.torus_side = 10;
    w.sv.batch_size = w.ch.batch_size = 64;
    w.ch.erases_per_batch = 8;
  }
  // Closed-loop sizes scale with the budget (42 s is the reference run).
  const double closed = (toy ? 0.03 : 1.0) * std::max(0.1, seconds / 42);
  w.static_seconds = kStaticShare * seconds;
  w.sv.seconds = kServeShare * seconds;
  w.ch.seconds = kChurnShare * seconds;
  w.sv.closed_queries = std::max<std::size_t>(64, 4000 * closed);
  w.ch.closed_batches = std::max<std::size_t>(8, 180 * closed);
  return w;
}

struct phases {
  gbbs::graph<empty_weight> g;        // static input
  gbbs::graph<empty_weight> serve_g;  // serve / churn input
  std::array<std::unique_ptr<phase>, 3> p;
};

phases setup(const workload& w, std::uint64_t seed) {
  phases out;
  out.g = make_symmetric_input(w.static_input, seed);
  out.serve_g = w.static_input.family == graph_family::rmat
                    ? out.g
                    : make_symmetric_input(w.serve_input, seed);
  out.p[static_p] =
      make_static_phase(w.static_input, out.g, seed, w.static_seconds);
  out.p[serve_p] = make_serve_phase(w.serve_input, out.serve_g, seed, w.sv);
  out.p[churn_p] = make_churn_phase(w.serve_input, out.serve_g, seed, w.ch);
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const report& rep, bool trace) {
  const auto& ms = trace ? rep.per_layer : rep.end_to_end;
  std::string out = "{\"correct\": ";
  out += rep.mismatches == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  std::string workload_name, size = "full", commit = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload_name = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--size") {
      size = v;
    } else if (k == "--commit") {
      commit = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  const workload w = make_workload(workload_name, seconds, size == "toy");
  if (w.name == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      (size != "full" && size != "toy")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rmat|torus --seed N "
                 "--seconds S --trace 0|1 [--size full|toy] [--commit ID]\n");
    return 2;
  }

  // Set-up is timed three times (the median is reported); the last set-up
  // is the one measured.
  parlib::scheduler::instance();
  std::vector<double> setup_s;
  phases ph;
  for (int r = 0; r < 3; ++r) {
    ph = phases{};
    setup_s.push_back(time_call([&] { ph = setup(w, seed); }));
  }
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"size\": \"%s\", \"commit\": \"%s\", \"nproc\": %u, "
      "\"workers\": %zu, \"static_n\": %u, \"static_m\": %llu, "
      "\"serve_n\": %u, \"serve_m\": %llu}}\n",
      w.name, static_cast<unsigned long long>(seed), seconds, trace,
      size.c_str(), commit.c_str(), std::thread::hardware_concurrency(),
      parlib::num_workers(), ph.g.num_vertices(),
      static_cast<unsigned long long>(ph.g.num_edges()),
      ph.serve_g.num_vertices(),
      static_cast<unsigned long long>(ph.serve_g.num_edges()));
  std::fflush(stdout);

  report rep;
  rep.e2e("setup_s", median(setup_s), "s");
  for (auto& p : ph.p) p->run(rep, trace == 1);
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  {
    // The three oracle checks are independent and sequential: run them
    // side by side.
    std::array<report, 3> checked;
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < ph.p.size(); ++i) {
      threads.emplace_back([&, i] { ph.p[i]->verify(checked[i]); });
    }
    for (auto& t : threads) t.join();
    for (const report& c : checked) {
      rep.failed += c.failed;
      rep.mismatches += c.mismatches;
      rep.notes.insert(rep.notes.end(), c.notes.begin(), c.notes.end());
    }
  }

  if (trace == 1) {
    phase_window total;
    std::vector<double> lags;
    for (const auto& p : ph.p) {
      total.user_s += p->window.user_s;
      total.sys_s += p->window.sys_s;
      total.steals += p->window.steals;
      lags.insert(lags.end(), p->lags_s.begin(), p->lags_s.end());
    }
    const double cpu = total.user_s + total.sys_s;
    rep.layer("parlib.cpu_s", cpu, "s");
    rep.layer("parlib.sys_share", cpu > 0 ? total.sys_s / cpu : 0, "ratio");
    rep.layer("parlib.steals", static_cast<double>(total.steals), "count");
    rep.layer("bench.generator_lag_p99_ms", 1e3 * p99(lags), "ms");
    // Point reads whose submit was timed against those whose was not.
    const phase& f = *ph.p[serve_p];
    rep.layer("bench.trace_overhead",
              median(f.traced_units) / median(f.untraced_units) - 1, "ratio");
  }
  for (const std::string& note : rep.notes) {
    std::fprintf(stderr, "mismatch: %s\n", note.c_str());
  }
  std::string samples = "{\"samples\": {";
  for (std::size_t i = 0; i < rep.samples.size(); ++i) {
    if (i > 0) samples += ", ";
    samples += "\"" + rep.samples[i].first +
               "\": " + std::to_string(rep.samples[i].second);
  }
  std::printf("%s}}\n", samples.c_str());
  print_result(rep, trace == 1);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
