// The paper's 15 problems (Tables 2/4/5) on the workload's input: the
// symmetric graph, its weighted and directed twins, and the closed
// neighbourhood set-cover instance, as in bench/bench_common.h.
//
// One warm-up pass at P workers keeps every output for the oracle check;
// then cycles of three passes at P and one at 1 worker run until the
// budget is spent. A family's time is its problems' time in one pass;
// metrics are medians over passes. In trace runs two of the three P passes
// time each call on its own (the per-problem layer numbers).
#include <array>
#include <string>
#include <unordered_map>

#include "algorithms/bellman_ford.h"
#include "algorithms/betweenness.h"
#include "algorithms/bfs.h"
#include "algorithms/biconnectivity.h"
#include "algorithms/coloring.h"
#include "algorithms/connectivity.h"
#include "algorithms/kcore.h"
#include "algorithms/ldd.h"
#include "algorithms/maximal_matching.h"
#include "algorithms/mis.h"
#include "algorithms/msf.h"
#include "algorithms/scc.h"
#include "algorithms/set_cover.h"
#include "algorithms/triangle.h"
#include "algorithms/wbfs.h"
#include "graph/compression/compressed_graph.h"
#include "graph/generators.h"
#include "harness.h"
#include "parlib/scheduler.h"
#include "parlib/union_find.h"
#include "seq/reference.h"

namespace perfbench {
namespace {

enum family { shortest_path, connectivity, covering, substructure };

struct problem_info {
  const char* name;
  family fam;
};

constexpr std::array<problem_info, 15> kProblems{{
    {"bfs", shortest_path},
    {"wbfs", shortest_path},
    {"bellman_ford", shortest_path},
    {"betweenness", shortest_path},
    {"ldd", connectivity},
    {"connectivity", connectivity},
    {"biconnectivity", connectivity},
    {"scc", connectivity},
    {"msf", connectivity},
    {"mis", covering},
    {"matching", covering},
    {"coloring", covering},
    {"set_cover", covering},
    {"kcore", substructure},
    {"triangles", substructure},
}};

constexpr std::array<const char*, 4> kFamilyMetric{
    "shortest_path_s", "connectivity_s", "covering_s", "substructure_s"};

struct outputs {
  std::vector<std::uint32_t> bfs;
  gbbs::wbfs_result wbfs;
  std::vector<std::int64_t> bellman_ford;
  std::vector<double> betweenness;
  std::vector<vertex_id> ldd;
  std::vector<vertex_id> cc;
  gbbs::biconnectivity_result bcc;
  gbbs::scc_result scc;
  gbbs::msf_result msf;
  std::vector<std::uint8_t> mis;
  std::vector<gbbs::edge<empty_weight>> matching;
  std::vector<vertex_id> colors;
  gbbs::set_cover_result cover;
  gbbs::kcore_result kcore;
  std::uint64_t triangles = 0;
};

// Sets are closed vertex neighbourhoods: set v covers v and N(v).
gbbs::graph<empty_weight> neighborhood_cover_instance(
    const gbbs::graph<empty_weight>& g) {
  const vertex_id n = g.num_vertices();
  auto flat = g.edges();
  std::vector<gbbs::edge<empty_weight>> edges(flat.size() + n);
  parlib::parallel_for(0, flat.size(), [&](std::size_t i) {
    edges[i] = {flat[i].u, static_cast<vertex_id>(n + flat[i].v), {}};
  });
  parlib::parallel_for(0, n, [&](std::size_t v) {
    edges[flat.size() + v] = {static_cast<vertex_id>(v),
                              static_cast<vertex_id>(n + v), {}};
  });
  return gbbs::build_symmetric_graph<empty_weight>(2 * n, std::move(edges));
}

// Same partition of [0, n) up to renaming.
bool same_partition(const std::vector<vertex_id>& a,
                    const std::vector<vertex_id>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<vertex_id, vertex_id> ab, ba;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ab.try_emplace(a[i], b[i]).first->second != b[i]) return false;
    if (ba.try_emplace(b[i], a[i]).first->second != a[i]) return false;
  }
  return true;
}

class static_phase final : public phase {
 public:
  static_phase(const input_spec& spec, const gbbs::graph<empty_weight>& g,
               std::uint64_t seed, double seconds)
      : seconds_(seconds), sym_(g) {
    const vertex_id n = g.num_vertices();
    if (spec.family == graph_family::torus) {
      const auto edges = gbbs::torus3d_edges(spec.torus_side);
      symw_ = gbbs::build_symmetric_graph<std::uint32_t>(
          n, gbbs::with_random_weights(edges, gbbs::weight_range(n), seed));
      // Directed torus: the +1 edges only.
      dir_ = gbbs::build_asymmetric_graph<empty_weight>(n, edges);
    } else {
      const auto edges =
          gbbs::rmat_edges(spec.rmat_scale,
                           kRmatEdgeFactor << spec.rmat_scale, seed);
      symw_ = gbbs::build_symmetric_graph<std::uint32_t>(
          n,
          gbbs::with_random_weights(edges, gbbs::weight_range(n), seed + 1));
      dir_ = gbbs::build_asymmetric_graph<empty_weight>(n, edges);
    }
    cover_ = neighborhood_cover_instance(sym_);
    // A seeded source with at least one edge.
    const parlib::random rng(seed ^ 0x5eed);
    for (std::uint64_t k = 0;; ++k) {
      src_ = static_cast<vertex_id>(rng.ith_rand(k) % n);
      if (sym_.out_degree(src_) > 0 || k > 1000) break;
    }
  }

  void run(report& rep, bool trace) override {
    // Warm-up pass: fills caches, and its outputs are what verify() checks.
    for (std::size_t p = 0; p < kProblems.size(); ++p) run_problem(p, &out_);
    rep.attempted += kProblems.size();

    std::array<std::vector<double>, 4> family_s;
    std::array<std::vector<double>, kProblems.size()> problem_s;
    std::vector<double> suite_1w_s;
    {
      window_scope ws(window);
      const time_point start = clock_type::now();
      do {
        for (int pass = 0; pass < 3; ++pass) {
          const bool traced = trace && pass != 1;
          std::array<double, 4> fam{};
          if (traced) {
            for (std::size_t p = 0; p < kProblems.size(); ++p) {
              const double t = time_call([&] { run_problem(p, nullptr); });
              problem_s[p].push_back(t);
              fam[kProblems[p].fam] += t;
            }
          } else {
            std::size_t p = 0;
            for (int f = 0; f < 4; ++f) {
              fam[f] = time_call([&] {
                for (; p < kProblems.size() && kProblems[p].fam == f; ++p) {
                  run_problem(p, nullptr);
                }
              });
            }
          }
          if (!traced) {
            for (int f = 0; f < 4; ++f) family_s[f].push_back(fam[f]);
          }
          rep.attempted += kProblems.size();
        }
        {
          parlib::active_workers_guard one(1);
          suite_1w_s.push_back(time_call([&] {
            for (std::size_t p = 0; p < kProblems.size(); ++p) {
              run_problem(p, nullptr);
            }
          }));
          rep.attempted += kProblems.size();
        }
      } while (seconds_between(start, clock_type::now()) < seconds_);
    }
    for (int f = 0; f < 4; ++f) rep.e2e(kFamilyMetric[f], median(family_s[f]), "s");
    rep.samples.push_back({"static_passes_p", family_s[0].size()});
    rep.samples.push_back({"static_passes_1w", suite_1w_s.size()});

    if (!trace) return;
    // One worker carries the whole 1-worker pass, so it follows the speed of
    // one host core; its run-to-run spread is too wide to gate (README.md).
    rep.layer("algorithms.suite_1w_s", median(suite_1w_s), "s");
    for (std::size_t p = 0; p < kProblems.size(); ++p) {
      rep.layer(std::string("algorithms.") + kProblems[p].name + "_s",
                median(problem_s[p]), "s");
    }
    std::uint32_t rounds = 0;
    for (std::uint32_t d : out_.bfs) {
      if (d != gbbs::kInfDist) rounds = std::max(rounds, d + 1);
    }
    rep.layer("graph.bfs_rounds", rounds, "count");
    rep.layer("graph.bfs_meps",
              static_cast<double>(sym_.num_edges()) / median(problem_s[0]) / 1e6,
              "Medges/s");
    // Compression is a trace-only extra, outside the measured window.
    const auto csym = gbbs::compressed_graph<empty_weight>::compress(sym_);
    rep.layer("graph.compressed_bytes_per_edge",
              static_cast<double>(csym.size_in_bytes()) /
                  static_cast<double>(sym_.num_edges()),
              "B/edge");
    std::vector<double> cbfs;
    for (int r = 0; r < 5; ++r) {
      cbfs.push_back(time_call([&] { gbbs::bfs(csym, src_); }));
    }
    rep.layer("graph.compressed_bfs_s", median(cbfs), "s");
  }

  void verify(report& rep) override {
    const vertex_id n = sym_.num_vertices();
    const auto bfs_ref = gbbs::seq::bfs(sym_, src_);
    rep.check(out_.bfs == bfs_ref, "bfs distances");
    const auto dj = gbbs::seq::dijkstra(symw_, src_);
    bool wbfs_ok = out_.wbfs.dist.size() == n, bf_ok = out_.bellman_ford == dj;
    for (vertex_id v = 0; wbfs_ok && v < n; ++v) {
      const std::int64_t want = dj[v] == gbbs::seq::kInfDist64
                                    ? std::int64_t{gbbs::kInfDist}
                                    : dj[v];
      wbfs_ok = static_cast<std::int64_t>(out_.wbfs.dist[v]) == want;
    }
    rep.check(wbfs_ok, "wbfs distances");
    rep.check(bf_ok, "bellman_ford distances");
    const auto bc_ref = gbbs::seq::betweenness(sym_, src_);
    bool bc_ok = out_.betweenness.size() == bc_ref.size();
    for (std::size_t v = 0; bc_ok && v < bc_ref.size(); ++v) {
      bc_ok = std::abs(out_.betweenness[v] - bc_ref[v]) <=
              1e-6 * std::max(1.0, std::abs(bc_ref[v]));
    }
    rep.check(bc_ok, "betweenness scores");
    rep.check(valid_ldd(), "ldd clusters");
    const auto cc_ref = gbbs::seq::connectivity(sym_);
    rep.check(same_partition(out_.cc, cc_ref), "connectivity partition");
    rep.check(valid_biconnectivity(), "biconnectivity edge partition");
    rep.check(same_partition(out_.scc.labels, gbbs::seq::scc(dir_)),
              "scc partition");
    rep.check(out_.msf.total_weight ==
                  gbbs::seq::msf_weight(n, symw_.edges()),
              "msf weight");
    rep.check(gbbs::seq::is_valid_mis(sym_, out_.mis), "mis validity");
    rep.check(gbbs::seq::is_valid_maximal_matching(sym_, out_.matching),
              "matching validity");
    vertex_id max_deg = 0;
    for (vertex_id v = 0; v < n; ++v) {
      max_deg = std::max(max_deg, sym_.out_degree(v));
    }
    rep.check(gbbs::seq::is_valid_coloring(sym_, out_.colors, max_deg + 1),
              "coloring validity");
    rep.check(gbbs::seq::covers_all(cover_, n, out_.cover.cover),
              "set cover validity");
    rep.check(out_.kcore.coreness == gbbs::seq::coreness(sym_),
              "kcore coreness");
    rep.check(out_.triangles == gbbs::seq::triangle_count(sym_),
              "triangle count");
  }

 private:
  void run_problem(std::size_t p, outputs* out) {
    outputs scratch;
    outputs& o = out != nullptr ? *out : scratch;
    switch (p) {
      case 0: o.bfs = gbbs::bfs(sym_, src_); break;
      case 1: o.wbfs = gbbs::wbfs(symw_, src_); break;
      case 2: o.bellman_ford = gbbs::bellman_ford(symw_, src_); break;
      case 3: o.betweenness = gbbs::betweenness(sym_, src_); break;
      case 4: o.ldd = gbbs::ldd(sym_, 0.2); break;
      case 5: o.cc = gbbs::connectivity(sym_); break;
      case 6: o.bcc = gbbs::biconnectivity(sym_); break;
      case 7: o.scc = gbbs::scc(dir_); break;
      case 8: o.msf = gbbs::msf(symw_); break;
      case 9: o.mis = gbbs::mis_rootset(sym_); break;
      case 10: o.matching = gbbs::maximal_matching(sym_); break;
      case 11: o.colors = gbbs::color_graph(sym_); break;
      case 12: o.cover = gbbs::set_cover(cover_, sym_.num_vertices()); break;
      case 13: o.kcore = gbbs::kcore(sym_); break;
      case 14: o.triangles = gbbs::triangle_count(sym_); break;
      default: break;
    }
  }

  // Every vertex clustered, centers own themselves, clusters connected.
  bool valid_ldd() const {
    const auto& cl = out_.ldd;
    const vertex_id n = sym_.num_vertices();
    if (cl.size() != n) return false;
    parlib::union_find uf(n);
    for (vertex_id v = 0; v < n; ++v) {
      if (cl[v] >= n || cl[cl[v]] != cl[v]) return false;
      for (vertex_id u : sym_.out_neighbors(v)) {
        if (cl[u] == cl[v]) uf.unite(u, v);
      }
    }
    for (vertex_id v = 0; v < n; ++v) {
      if (!uf.same_set(v, cl[v])) return false;
    }
    return true;
  }

  // Edge partition equals Hopcroft-Tarjan's up to renaming.
  bool valid_biconnectivity() const {
    auto oracle = gbbs::seq::biconnectivity_edge_labels(sym_);
    std::sort(oracle.begin(), oracle.end());
    std::unordered_map<vertex_id, vertex_id> ours2ref, ref2ours;
    std::size_t checked = 0;
    for (vertex_id v = 0; v < sym_.num_vertices(); ++v) {
      for (vertex_id u : sym_.out_neighbors(v)) {
        if (u < v) continue;
        const std::uint64_t key = (std::uint64_t{v} << 32) | u;
        auto it = std::lower_bound(
            oracle.begin(), oracle.end(), key,
            [](const auto& e, std::uint64_t k) { return e.first < k; });
        if (it == oracle.end() || it->first != key) return false;
        const vertex_id mine = out_.bcc.edge_label(v, u);
        if (ours2ref.try_emplace(mine, it->second).first->second != it->second)
          return false;
        if (ref2ours.try_emplace(it->second, mine).first->second != mine)
          return false;
        ++checked;
      }
    }
    return checked == oracle.size();
  }

  double seconds_;
  gbbs::graph<empty_weight> sym_;
  gbbs::graph<std::uint32_t> symw_;
  gbbs::graph<empty_weight> dir_;
  gbbs::graph<empty_weight> cover_;
  vertex_id src_ = 0;
  outputs out_;
};

}  // namespace

std::unique_ptr<phase> make_static_phase(const input_spec& spec,
                                         const gbbs::graph<empty_weight>& g,
                                         std::uint64_t seed,
                                         double seconds) {
  return std::make_unique<static_phase>(spec, g, seed, seconds);
}

}  // namespace perfbench
