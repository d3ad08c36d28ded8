// Tables 2, 4 and 5: running times of all 15 benchmark problems over the
// graph suite, at 1 worker and at P workers, in the paper's
// (1) / (P) / (SU) row format. Pass --compressed (or set GBBS_COMPRESSED=1)
// to run the traversal problems on parallel-byte compressed graphs
// (Table 5's configuration); default is uncompressed CSR (Tables 2/4).
//
// Shapes to compare against the paper (not absolute numbers): BFS is the
// cheapest problem; LDD costs about a BFS; connectivity a few times LDD;
// biconnectivity ~3-5x connectivity; SCC between 1.6x faster and ~5x slower
// than connectivity; speedups are positive everywhere and saturate
// near the host's core count. TC is not the most expensive problem here:
// with marking intersections it is the costliest at 1 worker only on the
// largest R-MAT input and speeds up well, so at P workers k-core (which
// gets no speedup on skewed inputs) costs more, and on the torus TC is
// among the cheapest. The paper's ordering, with TC the most expensive,
// comes from Hyperlink-scale graphs, where the m^{3/2} intersection work
// dominates.
#include <cstring>
#include <string>

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
#include "bench_common.h"

namespace {

using gbbs::vertex_id;

// Set-cover instance from a symmetric graph: sets are closed vertex
// neighborhoods (the formulation used for the paper's statistics tables).
gbbs::graph<gbbs::empty_weight> neighborhood_cover_instance(
    const gbbs::graph<gbbs::empty_weight>& g) {
  const vertex_id n = g.num_vertices();
  auto flat = g.edges();
  std::vector<gbbs::edge<gbbs::empty_weight>> edges(flat.size() + n);
  parlib::parallel_for(0, flat.size(), [&](std::size_t i) {
    edges[i] = {flat[i].u, static_cast<vertex_id>(n + flat[i].v), {}};
  });
  parlib::parallel_for(0, n, [&](std::size_t v) {
    edges[flat.size() + v] = {static_cast<vertex_id>(v),
                              static_cast<vertex_id>(n + v), {}};
  });
  return gbbs::build_symmetric_graph<gbbs::empty_weight>(2 * n,
                                                         std::move(edges));
}

template <typename Sym, typename SymW, typename Dir>
void run_graph(const std::string& name, const Sym& sym, const SymW& symw,
               const Dir& dir,
               const gbbs::graph<gbbs::empty_weight>& cover_instance,
               vertex_id cover_sets) {
  bench::print_table_header(name, sym.num_vertices(), sym.num_edges());
  const vertex_id src = sym.num_vertices() / 2;

  bench::print_row(bench::run_problem("Breadth-First Search (BFS)", [&] {
    gbbs::bfs(sym, src);
  }));
  bench::print_row(
      bench::run_problem("Integral-Weight SSSP (weighted BFS)", [&] {
        gbbs::wbfs(symw, src);
      }));
  bench::print_row(
      bench::run_problem("General-Weight SSSP (Bellman-Ford)", [&] {
        gbbs::bellman_ford(symw, src);
      }));
  bench::print_row(
      bench::run_problem("Single-Source Betweenness Centrality (BC)", [&] {
        gbbs::betweenness(sym, src);
      }));
  bench::print_row(
      bench::run_problem("Low-Diameter Decomposition (LDD)", [&] {
        gbbs::ldd(sym, 0.2);
      }));
  bench::print_row(bench::run_problem("Connectivity", [&] {
    gbbs::connectivity(sym);
  }));
  bench::print_row(bench::run_problem("Biconnectivity", [&] {
    gbbs::biconnectivity(sym);
  }));
  bench::print_row(
      bench::run_problem("Strongly Connected Components (SCC)*", [&] {
        gbbs::scc(dir);
      }));
  bench::print_row(bench::run_problem("Minimum Spanning Forest (MSF)", [&] {
    gbbs::msf(symw);
  }));
  bench::print_row(
      bench::run_problem("Maximal Independent Set (MIS)", [&] {
        gbbs::mis_rootset(sym);
      }));
  bench::print_row(bench::run_problem("Maximal Matching (MM)", [&] {
    gbbs::maximal_matching(sym);
  }));
  bench::print_row(bench::run_problem("Graph Coloring", [&] {
    gbbs::color_graph(sym);
  }));
  bench::print_row(bench::run_problem("k-core", [&] { gbbs::kcore(sym); }));
  bench::print_row(bench::run_problem("Approximate Set Cover", [&] {
    gbbs::set_cover(cover_instance, cover_sets);
  }));
  bench::print_row(bench::run_problem("Triangle Counting (TC)", [&] {
    gbbs::triangle_count(sym);
  }));
}

}  // namespace

int main(int argc, char** argv) {
  bool compressed = std::getenv("GBBS_COMPRESSED") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compressed") == 0) compressed = true;
  }
  std::printf("# bench_suite: Tables 2/4%s — all problems, (1)/(P)/(SU)\n",
              compressed ? "/5 [compressed parallel-byte format]" : "");
  auto suite = bench::make_suite();
  for (const auto& sg : suite) {
    auto cover = neighborhood_cover_instance(sg.sym);
    const vertex_id cover_sets = sg.sym.num_vertices();
    std::printf("\n# %s stands for: %s\n", sg.name.c_str(),
                sg.stands_for.c_str());
    if (compressed) {
      auto csym =
          gbbs::compressed_graph<gbbs::empty_weight>::compress(sg.sym);
      auto csymw =
          gbbs::compressed_graph<std::uint32_t>::compress(sg.sym_weighted);
      auto cdir =
          gbbs::compressed_graph<gbbs::empty_weight>::compress(sg.dir);
      std::printf("# compressed: %.3f bytes/edge (CSR: %.3f)\n",
                  static_cast<double>(csym.size_in_bytes()) /
                      sg.sym.num_edges(),
                  static_cast<double>(sg.sym.size_in_bytes()) /
                      sg.sym.num_edges());
      run_graph(sg.name + " [compressed]", csym, csymw, cdir, cover,
                cover_sets);
    } else {
      run_graph(sg.name, sg.sym, sg.sym_weighted, sg.dir, cover, cover_sets);
    }
  }
  return 0;
}
