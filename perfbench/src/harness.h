// Shared pieces of the system benchmark: the run report, timing and
// percentile helpers, the seeded Zipf sampler, the adjacency-list oracle
// graph the dynamic phases are checked against, and the phase interfaces.
//
// The benchmark drives the system only through its public entry points
// (gbbs:: algorithms, dynamic:: batches, the serve:: managers and query
// engine, and the scheduler / cache counters), so refactors that keep
// those signatures need no change here.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/update_batch.h"
#include "graph/graph.h"
#include "parlib/random.h"

namespace perfbench {

using gbbs::empty_weight;
using gbbs::vertex_id;
using clock_type = std::chrono::steady_clock;
using time_point = clock_type::time_point;

inline double seconds_between(time_point a, time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename F>
double time_call(F&& f) {
  const time_point t0 = clock_type::now();
  f();
  return seconds_between(t0, clock_type::now());
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double p99(const std::vector<double>& v) { return quantile(v, 0.99); }

// CPU time of the process so far, split into user and system seconds.
struct cpu_times {
  double user_s = 0;
  double sys_s = 0;
  static cpu_times now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return {s(ru.ru_utime), s(ru.ru_stime)};
  }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// One named measurement with its unit.
struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Everything a run reports. Operations are counted as they are attempted;
// an operation fails when it returns a non-ok status or an answer the
// oracle disagrees with.
struct report {
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> notes;  // first few mismatch descriptions
  // Sample counts behind the reported percentiles and medians.
  std::vector<std::pair<std::string, std::size_t>> samples;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  // A checked answer: counts one mismatch (and failure) when !ok.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++mismatches;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

// Seeded Zipf(s) sampler over a set of vertex ids: rank r is drawn with
// probability proportional to 1/(r+1)^s, then mapped through a seeded
// permutation of the set. Sampling only the largest component keeps the
// cost of a query (a BFS from an isolated vertex is free) from depending
// on which vertices a seed happens to make hot.
class zipf_sampler {
 public:
  zipf_sampler(std::vector<vertex_id> domain, double s, std::uint64_t seed);
  vertex_id operator()(const parlib::random& rng, std::uint64_t i) const;

 private:
  std::vector<double> cdf_;
  std::vector<vertex_id> ids_;
};

// The vertices of g's largest connected component, ascending.
std::vector<vertex_id> largest_component(const gbbs::graph<empty_weight>& g);

// Adjacency-list oracle for the dynamic phases: replays raw update streams
// with the stream semantics of dynamic::make_batch (self-loops dropped,
// last update per edge wins, symmetric) and exposes the graph shape the
// seq/reference.h oracles traverse.
class ref_graph {
 public:
  explicit ref_graph(const gbbs::graph<empty_weight>& g);

  vertex_id num_vertices() const {
    return static_cast<vertex_id>(adj_.size());
  }
  vertex_id out_degree(vertex_id v) const {
    return static_cast<vertex_id>(adj_[v].size());
  }
  const std::vector<vertex_id>& row(vertex_id v) const { return adj_[v]; }
  template <typename F>
  void map_out_neighbors_early_exit(vertex_id v, const F& f) const {
    for (vertex_id u : adj_[v]) {
      if (!f(v, u, empty_weight{})) return;
    }
  }

  void insert(vertex_id u, vertex_id v);
  void erase(vertex_id u, vertex_id v);

 private:
  std::vector<std::vector<vertex_id>> adj_;
};

// ---- workload inputs -------------------------------------------------------

enum class graph_family { rmat, torus };

inline constexpr std::size_t kRmatEdgeFactor = 8;  // edge samples per vertex

struct input_spec {
  graph_family family = graph_family::rmat;
  std::uint32_t rmat_scale = 17;
  vertex_id torus_side = 64;
};

// A raw update batch as the ingest entry points take it (one direction per
// edge; the managers mirror it).
using raw_batch = std::vector<gbbs::dynamic::update<empty_weight>>;

inline gbbs::dynamic::update<empty_weight> insert_of(vertex_id u,
                                                     vertex_id v) {
  return {u, v, {}, gbbs::dynamic::update_op::insert};
}
inline gbbs::dynamic::update<empty_weight> erase_of(vertex_id u, vertex_id v) {
  return {u, v, {}, gbbs::dynamic::update_op::erase};
}

// Scheduled time `s` seconds after `t0` (open-loop arrivals).
inline time_point due_at(time_point t0, double s) {
  return t0 + std::chrono::duration_cast<clock_type::duration>(
                  std::chrono::duration<double>(s));
}

// The symmetric input graph of a workload (shared by every phase).
gbbs::graph<empty_weight> make_symmetric_input(const input_spec& spec,
                                               std::uint64_t seed);

// `count` fresh insert edges drawn from the R-MAT distribution of an rmat
// input (skewed, hub-heavy, like the graph they are added to).
std::vector<std::pair<vertex_id, vertex_id>> make_insert_edges(
    const input_spec& spec, std::size_t count, std::uint64_t seed);

// ---- phases ----------------------------------------------------------------
//
// Each phase is built during set-up (timed as setup_s), measured by run()
// (which computes no reference answers), and checked by verify() after
// every phase has run, so the oracles' memory never counts towards
// peak_rss_mb.

struct phase_window {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t steals = 0;
};

class phase {
 public:
  virtual ~phase() = default;
  virtual void run(report& rep, bool trace) = 0;
  virtual void verify(report& rep) = 0;

  // Filled by run(): the measured window, the lateness (seconds) of every
  // open-loop arrival, and — in trace runs of the serve phase — point-read
  // latencies split by whether the submit call was timed (for
  // bench.trace_overhead).
  phase_window window;
  std::vector<double> lags_s;
  std::vector<double> traced_units, untraced_units;
};

// Brackets a measured window: CPU split and scheduler steals.
class window_scope {
 public:
  explicit window_scope(phase_window& w);
  ~window_scope();
  window_scope(const window_scope&) = delete;
  window_scope& operator=(const window_scope&) = delete;

 private:
  phase_window& w_;
  cpu_times cpu0_;
  std::uint64_t steals0_;
};

// The sizes a workload sets; rates and thread counts are constants of each
// phase (see its file).
struct serve_config {
  double seconds = 1;  // open-loop phase
  std::size_t batch_size = 1024;
  std::size_t closed_queries = 1000;
};
struct churn_config {
  double seconds = 1;  // open-loop phase
  std::size_t batch_size = 1024;
  std::size_t erases_per_batch = 128;
  std::size_t closed_batches = 50;
};

// `seconds` is the measuring budget; at least one cycle always runs.
std::unique_ptr<phase> make_static_phase(const input_spec& spec,
                                         const gbbs::graph<empty_weight>& g,
                                         std::uint64_t seed, double seconds);
std::unique_ptr<phase> make_serve_phase(const input_spec& spec,
                                        const gbbs::graph<empty_weight>& g,
                                        std::uint64_t seed,
                                        const serve_config& cfg);
std::unique_ptr<phase> make_churn_phase(const input_spec& spec,
                                        const gbbs::graph<empty_weight>& g,
                                        std::uint64_t seed,
                                        const churn_config& cfg);

}  // namespace perfbench
