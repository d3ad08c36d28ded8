#include "harness.h"

#include <cmath>

#include "algorithms/connectivity.h"
#include "graph/generators.h"
#include "parlib/scheduler.h"

namespace perfbench {

zipf_sampler::zipf_sampler(std::vector<vertex_id> domain, double s,
                           std::uint64_t seed)
    : cdf_(domain.size()), ids_(domain.size()) {
  const auto perm =
      parlib::random_permutation(domain.size(), parlib::random(seed));
  double total = 0;
  for (std::size_t r = 0; r < domain.size(); ++r) {
    ids_[r] = domain[perm[r]];
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

vertex_id zipf_sampler::operator()(const parlib::random& rng,
                                   std::uint64_t i) const {
  const double u = rng.ith_uniform(i);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t r = std::min<std::size_t>(it - cdf_.begin(),
                                              cdf_.size() - 1);
  return ids_[r];
}

std::vector<vertex_id> largest_component(const gbbs::graph<empty_weight>& g) {
  const auto labels = gbbs::connectivity(g);
  std::vector<std::size_t> size(labels.size(), 0);
  for (vertex_id l : labels) ++size[l];
  const vertex_id big = static_cast<vertex_id>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<vertex_id> out;
  for (vertex_id v = 0; v < labels.size(); ++v) {
    if (labels[v] == big) out.push_back(v);
  }
  return out;
}

ref_graph::ref_graph(const gbbs::graph<empty_weight>& g)
    : adj_(g.num_vertices()) {
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    const auto row = g.out_neighbors(v);
    adj_[v].assign(row.begin(), row.end());
    std::sort(adj_[v].begin(), adj_[v].end());
  }
}

void ref_graph::insert(vertex_id u, vertex_id v) {
  if (u == v) return;
  const vertex_id hi = std::max(u, v);
  if (hi >= adj_.size()) adj_.resize(hi + 1);
  for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    auto& row = adj_[a];
    auto it = std::lower_bound(row.begin(), row.end(), b);
    if (it == row.end() || *it != b) row.insert(it, b);
  }
}

void ref_graph::erase(vertex_id u, vertex_id v) {
  if (u == v || std::max(u, v) >= adj_.size()) return;
  for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    auto& row = adj_[a];
    auto it = std::lower_bound(row.begin(), row.end(), b);
    if (it != row.end() && *it == b) row.erase(it);
  }
}

gbbs::graph<empty_weight> make_symmetric_input(const input_spec& spec,
                                               std::uint64_t seed) {
  if (spec.family == graph_family::torus) {
    return gbbs::torus3d_symmetric(spec.torus_side);
  }
  return gbbs::rmat_symmetric(
      spec.rmat_scale, kRmatEdgeFactor << spec.rmat_scale, seed);
}

std::vector<std::pair<vertex_id, vertex_id>> make_insert_edges(
    const input_spec& spec, std::size_t count, std::uint64_t seed) {
  const auto edges = gbbs::rmat_edges(spec.rmat_scale, count, seed);
  std::vector<std::pair<vertex_id, vertex_id>> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = {edges[i].u, edges[i].v};
  return out;
}

window_scope::window_scope(phase_window& w)
    : w_(w),
      cpu0_(cpu_times::now()),
      steals0_(parlib::scheduler::instance().total_steals()) {}

window_scope::~window_scope() {
  const cpu_times cpu1 = cpu_times::now();
  w_.user_s += cpu1.user_s - cpu0_.user_s;
  w_.sys_s += cpu1.sys_s - cpu0_.sys_s;
  w_.steals += parlib::scheduler::instance().total_steals() - steals0_;
}

}  // namespace perfbench
