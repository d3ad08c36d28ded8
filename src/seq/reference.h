// Sequential reference implementations used as test oracles and as the
// single-thread baselines the speedup tables divide by. These are textbook
// algorithms, deliberately independent of the parallel code paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <stack>
#include <type_traits>
#include <vector>

#include "graph/graph.h"

namespace gbbs::seq {

inline constexpr std::uint32_t kInfDist = std::numeric_limits<std::uint32_t>::max();
inline constexpr std::int64_t kInfDist64 = std::numeric_limits<std::int64_t>::max();

// CSR arrays of an edge list the textbook way — graph_builder's contract:
// ids >= n and self-loops are dropped, rows are sorted by neighbor, and of
// several copies of one (u, v) the first in input order (and its weight)
// is kept.
template <typename W>
struct csr {
  std::vector<edge_id> offsets;
  std::vector<vertex_id> nghs;
  std::vector<W> wghs;
};

template <typename W>
csr<W> build_csr(vertex_id n, std::vector<edge<W>> edges) {
  std::erase_if(edges, [n](const edge<W>& e) {
    return e.u >= n || e.v >= n || e.u == e.v;
  });
  std::stable_sort(edges.begin(), edges.end(),
                   [](const edge<W>& a, const edge<W>& b) {
                     return a.u != b.u ? a.u < b.u : a.v < b.v;
                   });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const edge<W>& a, const edge<W>& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  csr<W> c;
  c.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : edges) {
    ++c.offsets[e.u + std::size_t{1}];
    c.nghs.push_back(e.v);
    if constexpr (!std::is_same_v<W, empty_weight>) c.wghs.push_back(e.w);
  }
  for (std::size_t v = 0; v < n; ++v) c.offsets[v + 1] += c.offsets[v];
  return c;
}

// BFS distances (hop counts).
template <typename Graph>
std::vector<std::uint32_t> bfs(const Graph& g, vertex_id src) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfDist);
  std::deque<vertex_id> q{src};
  dist[src] = 0;
  while (!q.empty()) {
    const vertex_id v = q.front();
    q.pop_front();
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      if (dist[u] == kInfDist) {
        dist[u] = dist[v] + 1;
        q.push_back(u);
      }
      return true;
    });
  }
  return dist;
}

// Dijkstra (non-negative weights).
template <typename Graph>
std::vector<std::int64_t> dijkstra(const Graph& g, vertex_id src) {
  std::vector<std::int64_t> dist(g.num_vertices(), kInfDist64);
  using Entry = std::pair<std::int64_t, vertex_id>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto w) {
      const std::int64_t nd = d + static_cast<std::int64_t>(w);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
      return true;
    });
  }
  return dist;
}

// Bellman-Ford over an explicit edge list; handles negative weights and
// flags vertices reachable from negative cycles with -inf (lowest()).
template <typename W>
std::vector<std::int64_t> bellman_ford_edges(
    vertex_id n, const std::vector<edge<W>>& edges, vertex_id src) {
  std::vector<std::int64_t> dist(n, kInfDist64);
  dist[src] = 0;
  for (vertex_id round = 0; round + 1 < n || round == 0; ++round) {
    bool changed = false;
    for (const auto& e : edges) {
      if (dist[e.u] != kInfDist64 &&
          dist[e.u] + static_cast<std::int64_t>(e.w) < dist[e.v]) {
        dist[e.v] = dist[e.u] + static_cast<std::int64_t>(e.w);
        changed = true;
      }
    }
    if (!changed) break;
  }
  // Negative-cycle propagation.
  std::vector<std::uint8_t> on_neg(n, 0);
  std::deque<vertex_id> q;
  for (const auto& e : edges) {
    if (dist[e.u] != kInfDist64 &&
        dist[e.u] + static_cast<std::int64_t>(e.w) < dist[e.v] &&
        !on_neg[e.v]) {
      on_neg[e.v] = 1;
      q.push_back(e.v);
    }
  }
  // Spread along edges (adjacency via scan over the edge list; fine for
  // oracle sizes).
  while (!q.empty()) {
    const vertex_id v = q.front();
    q.pop_front();
    for (const auto& e : edges) {
      if (e.u == v && !on_neg[e.v]) {
        on_neg[e.v] = 1;
        q.push_back(e.v);
      }
    }
  }
  for (vertex_id v = 0; v < n; ++v) {
    if (on_neg[v]) dist[v] = std::numeric_limits<std::int64_t>::lowest();
  }
  return dist;
}

// Brandes betweenness from a single source (undirected unweighted).
template <typename Graph>
std::vector<double> betweenness(const Graph& g, vertex_id src) {
  const vertex_id n = g.num_vertices();
  std::vector<double> sigma(n, 0.0), delta(n, 0.0);
  std::vector<std::int64_t> dist(n, -1);
  std::vector<vertex_id> order;
  order.reserve(n);
  std::deque<vertex_id> q{src};
  dist[src] = 0;
  sigma[src] = 1.0;
  while (!q.empty()) {
    const vertex_id v = q.front();
    q.pop_front();
    order.push_back(v);
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        q.push_back(u);
      }
      if (dist[u] == dist[v] + 1) sigma[u] += sigma[v];
      return true;
    });
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const vertex_id w = *it;
    g.map_out_neighbors_early_exit(w, [&](vertex_id, vertex_id v, auto) {
      if (dist[v] == dist[w] - 1) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      return true;
    });
  }
  delta[src] = 0.0;
  return delta;
}

// Connected-component labels (id of the minimum vertex in the component).
template <typename Graph>
std::vector<vertex_id> connectivity(const Graph& g) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> label(n, kNoVertex);
  std::vector<vertex_id> stack;
  for (vertex_id s = 0; s < n; ++s) {
    if (label[s] != kNoVertex) continue;
    label[s] = s;
    stack.push_back(s);
    while (!stack.empty()) {
      const vertex_id v = stack.back();
      stack.pop_back();
      g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
        if (label[u] == kNoVertex) {
          label[u] = s;
          stack.push_back(u);
        }
        return true;
      });
    }
  }
  return label;
}

// Iterative Tarjan SCC; labels are arbitrary distinct ids per SCC.
template <typename Graph>
std::vector<vertex_id> scc(const Graph& g) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> comp(n, kNoVertex), low(n, 0), disc(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<vertex_id> stk;
  vertex_id timer = 0, next_comp = 0;

  struct frame {
    vertex_id v;
    std::size_t child_idx;
  };
  // Materialize adjacency for index-based iterative DFS.
  std::vector<std::vector<vertex_id>> adj(n);
  for (vertex_id v = 0; v < n; ++v) {
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      adj[v].push_back(u);
      return true;
    });
  }
  for (vertex_id s = 0; s < n; ++s) {
    if (disc[s] != 0) continue;
    std::vector<frame> frames{{s, 0}};
    disc[s] = low[s] = ++timer;
    stk.push_back(s);
    on_stack[s] = 1;
    while (!frames.empty()) {
      auto& f = frames.back();
      if (f.child_idx < adj[f.v].size()) {
        const vertex_id u = adj[f.v][f.child_idx++];
        if (disc[u] == 0) {
          disc[u] = low[u] = ++timer;
          stk.push_back(u);
          on_stack[u] = 1;
          frames.push_back({u, 0});
        } else if (on_stack[u]) {
          low[f.v] = std::min(low[f.v], disc[u]);
        }
      } else {
        if (low[f.v] == disc[f.v]) {
          while (true) {
            const vertex_id w = stk.back();
            stk.pop_back();
            on_stack[w] = 0;
            comp[w] = next_comp;
            if (w == f.v) break;
          }
          ++next_comp;
        }
        const vertex_id v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  return comp;
}

// Hopcroft-Tarjan biconnected components: labels one component id per edge,
// returned as a map keyed by (min(u,v) << 32 | max(u,v)).
template <typename Graph>
std::vector<std::pair<std::uint64_t, vertex_id>> biconnectivity_edge_labels(
    const Graph& g) {
  const vertex_id n = g.num_vertices();
  std::vector<std::vector<vertex_id>> adj(n);
  for (vertex_id v = 0; v < n; ++v) {
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      adj[v].push_back(u);
      return true;
    });
  }
  std::vector<vertex_id> disc(n, 0), low(n, 0);
  std::vector<std::pair<std::uint64_t, vertex_id>> labels;
  std::vector<std::uint64_t> edge_stack;
  vertex_id timer = 0, next_comp = 0;
  auto key = [](vertex_id a, vertex_id b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
           std::max(a, b);
  };
  struct frame {
    vertex_id v, parent;
    std::size_t child_idx;
  };
  for (vertex_id s = 0; s < n; ++s) {
    if (disc[s] != 0) continue;
    std::vector<frame> frames{{s, kNoVertex, 0}};
    disc[s] = low[s] = ++timer;
    while (!frames.empty()) {
      auto& f = frames.back();
      if (f.child_idx < adj[f.v].size()) {
        const vertex_id u = adj[f.v][f.child_idx++];
        if (disc[u] == 0) {
          edge_stack.push_back(key(f.v, u));
          disc[u] = low[u] = ++timer;
          frames.push_back({u, f.v, 0});
        } else if (u != f.parent && disc[u] < disc[f.v]) {
          edge_stack.push_back(key(f.v, u));
          low[f.v] = std::min(low[f.v], disc[u]);
        }
      } else {
        const vertex_id v = f.v;
        const vertex_id p = f.parent;
        frames.pop_back();
        if (p == kNoVertex) continue;
        low[p] = std::min(low[p], low[v]);
        if (low[v] >= disc[p]) {
          // Pop the component containing edge (p, v).
          const std::uint64_t stop = key(p, v);
          while (true) {
            const std::uint64_t e = edge_stack.back();
            edge_stack.pop_back();
            labels.push_back({e, next_comp});
            if (e == stop) break;
          }
          ++next_comp;
        }
      }
    }
  }
  return labels;
}

// Kruskal MSF: returns the total weight (the canonical MSF invariant).
template <typename W>
std::uint64_t msf_weight(vertex_id n, std::vector<edge<W>> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.w < b.w; });
  std::vector<vertex_id> parent(n);
  std::iota(parent.begin(), parent.end(), vertex_id{0});
  std::function<vertex_id(vertex_id)> find = [&](vertex_id x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::uint64_t total = 0;
  for (const auto& e : edges) {
    const vertex_id ru = find(e.u), rv = find(e.v);
    if (ru != rv) {
      parent[ru] = rv;
      total += e.w;
    }
  }
  return total;
}

// Matula-Beck peeling: coreness of every vertex.
template <typename Graph>
std::vector<vertex_id> coreness(const Graph& g) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> deg(n), core(n, 0);
  vertex_id maxd = 0;
  for (vertex_id v = 0; v < n; ++v) {
    deg[v] = g.out_degree(v);
    maxd = std::max(maxd, deg[v]);
  }
  std::vector<std::vector<vertex_id>> bins(maxd + 1);
  for (vertex_id v = 0; v < n; ++v) bins[deg[v]].push_back(v);
  std::vector<std::uint8_t> done(n, 0);
  vertex_id k = 0;
  for (vertex_id d = 0; d <= maxd; ++d) {
    auto& bin = bins[d];
    for (std::size_t i = 0; i < bin.size(); ++i) {  // bin grows during loop
      const vertex_id v = bin[i];
      if (done[v] || deg[v] > d) continue;
      done[v] = 1;
      k = std::max(k, d);
      core[v] = k;
      g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
        if (!done[u] && deg[u] > d) {
          if (--deg[u] <= d) {
            bins[d].push_back(u);
          } else {
            bins[deg[u]].push_back(u);
          }
        }
        return true;
      });
    }
  }
  return core;
}

// Greedy set cover on a bipartite graph (sets [0, num_sets), elements
// above); returns chosen set ids. Standard Hn-approximation.
template <typename Graph>
std::vector<vertex_id> greedy_set_cover(const Graph& g, vertex_id num_sets) {
  const vertex_id n = g.num_vertices();
  std::vector<std::uint8_t> covered(n, 0);
  std::vector<vertex_id> chosen;
  while (true) {
    vertex_id best = kNoVertex;
    std::size_t best_gain = 0;
    for (vertex_id s = 0; s < num_sets; ++s) {
      std::size_t gain = 0;
      g.map_out_neighbors_early_exit(s, [&](vertex_id, vertex_id e, auto) {
        gain += covered[e] ? 0 : 1;
        return true;
      });
      if (gain > best_gain) {
        best_gain = gain;
        best = s;
      }
    }
    if (best == kNoVertex) break;
    chosen.push_back(best);
    g.map_out_neighbors_early_exit(best, [&](vertex_id, vertex_id e, auto) {
      covered[e] = 1;
      return true;
    });
  }
  return chosen;
}

// Brute-force triangle count (each triangle counted once).
template <typename Graph>
std::uint64_t triangle_count(const Graph& g) {
  std::uint64_t count = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    auto nv = g.out_neighbors(v);
    for (vertex_id u : nv) {
      if (u <= v) continue;
      count += static_cast<std::uint64_t>(std::count_if(
          nv.begin(), nv.end(), [&](vertex_id w) {
            if (w <= u) return false;
            auto nu = g.out_neighbors(u);
            return std::binary_search(nu.begin(), nu.end(), w);
          }));
    }
  }
  return count;
}

// Greedy coloring in the given vertex order: each vertex takes the
// smallest color held by none of its already-colored neighbors. Colored in
// the same order, Jones-Plassmann gives exactly this coloring.
template <typename Graph>
std::vector<vertex_id> greedy_coloring(const Graph& g,
                                       const std::vector<vertex_id>& order) {
  std::vector<vertex_id> color(g.num_vertices(), kNoVertex);
  std::vector<std::uint8_t> used;
  for (vertex_id v : order) {
    used.assign(g.out_degree(v) + 1, 0);
    for (vertex_id u : g.out_neighbors(v)) {
      if (color[u] < used.size()) used[color[u]] = 1;
    }
    color[v] = static_cast<vertex_id>(
        std::find(used.begin(), used.end(), 0) - used.begin());
  }
  return color;
}

// ---- validity checkers (for problems whose outputs are not unique) ------

// MIS: independent + maximal.
template <typename Graph>
bool is_valid_mis(const Graph& g, const std::vector<std::uint8_t>& in_set) {
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    bool has_set_neighbor = false;
    for (vertex_id u : g.out_neighbors(v)) {
      if (in_set[u]) has_set_neighbor = true;
      if (in_set[v] && in_set[u]) return false;  // not independent
    }
    if (!in_set[v] && !has_set_neighbor) return false;  // not maximal
  }
  return true;
}

// Maximal matching over an undirected graph.
template <typename Graph, typename W>
bool is_valid_maximal_matching(const Graph& g,
                               const std::vector<edge<W>>& matching) {
  std::vector<std::uint8_t> matched(g.num_vertices(), 0);
  for (const auto& e : matching) {
    if (matched[e.u] || matched[e.v]) return false;  // shares endpoint
    matched[e.u] = matched[e.v] = 1;
  }
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      if (!matched[v] && !matched[u]) return false;  // extendable
    }
  }
  return true;
}

// Proper coloring with at most max_colors colors.
template <typename Graph>
bool is_valid_coloring(const Graph& g, const std::vector<vertex_id>& color,
                       vertex_id max_colors) {
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (color[v] >= max_colors) return false;
    for (vertex_id u : g.out_neighbors(v)) {
      if (u != v && color[u] == color[v]) return false;
    }
  }
  return true;
}

// Set cover validity: chosen sets cover all elements that are coverable.
template <typename Graph>
bool covers_all(const Graph& g, vertex_id num_sets,
                const std::vector<vertex_id>& chosen) {
  const vertex_id n = g.num_vertices();
  std::vector<std::uint8_t> covered(n, 0);
  for (vertex_id s : chosen) {
    g.map_out_neighbors_early_exit(s, [&](vertex_id, vertex_id e, auto) {
      covered[e] = 1;
      return true;
    });
  }
  for (vertex_id e = num_sets; e < n; ++e) {
    if (!covered[e] && g.in_degree(e) > 0) return false;
  }
  return true;
}

}  // namespace gbbs::seq
