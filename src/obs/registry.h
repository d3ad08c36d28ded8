// Named metric registry — the single source of truth the serving tools
// export. Three kinds of entries:
//
//   * owned metrics: get-or-create by name (counter / gauge / histogram),
//     stable references for the process lifetime. Stage-span histograms
//     (trace.h) and the ingest pipeline live here.
//   * attached metrics: a component that keeps per-instance stats (the
//     query engine's per-kind histograms and event counters) registers a
//     pointer under a name and gets an RAII handle; on detach the
//     metric's final contents are folded into the owned metric of the
//     same name, so a snapshot taken after the component dies still
//     carries its totals.
//   * callbacks: bridges to external state read at snapshot time — the
//     scheduler's steal/occupancy/participation internals (parlib does
//     not include obs, so it keeps its own monotone atomics).
//
// Every counter is monotone: nothing resets, and a reader that wants the
// count of one operation takes a before/after delta. The process-wide
// event counts no component owns (event_counts below) are named in one
// place and exist from process start.
//
// read() produces a consistent point-in-time snapshot under the registry
// mutex (metric *values* are still relaxed aggregates — consistent with
// respect to registration and detach-merge, not with respect to
// in-flight increments, which is the right trade for a monitoring path).
// to_json() / to_prometheus() render a snapshot for the -metrics-json
// file export and the live TCP endpoint respectively.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "parlib/scheduler.h"

namespace gbbs::obs {

// Point-in-time view of every registered metric, sorted by name.
struct metrics_snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, histogram::summary>> histograms;
  // Structured extras rendered verbatim into the JSON document as
  // top-level keys (the value must already be valid JSON). Used by
  // callback sources whose shape is richer than scalar metrics — e.g.
  // the slow-query exemplar store's per-request timelines. Omitted from
  // the Prometheus exposition (text format has no place for them).
  std::vector<std::pair<std::string, std::string>> sections;

  void add_counter(std::string name, std::uint64_t v) {
    counters.emplace_back(std::move(name), v);
  }
  void add_gauge(std::string name, std::int64_t v) {
    gauges.emplace_back(std::move(name), v);
  }
  void add_section(std::string name, std::string raw_json) {
    sections.emplace_back(std::move(name), std::move(raw_json));
  }
};

// Process-wide event counts, owned by the global registry. The first four
// are the software stand-ins for Table 6's hardware counters: slots
// written and edges examined by the sparse edgeMap kernels (the unblocked
// edge_map_data baseline writes one slot per edge, edgeMapBlocked one per
// live neighbor), and the contended k-core's fetch-and-adds vs the
// histogram variant's calls. Callers add once per block or round, never
// per edge. Dense vertices adds n per dense edgeMap call (the O(n) scan a
// round pays when it leaves the sparse mode). The last counts a published
// version's merged-CSR builds (snapshot_store.h); fresh serving analytics
// must leave it untouched.
struct event_counts {
  counter& edgemap_slots_written;
  counter& edgemap_edges_examined;
  counter& edgemap_dense_vertices;
  counter& fetch_add_ops;
  counter& histogram_calls;
  counter& merged_csr_materializations;
};

class registry {
 public:
  // RAII handle for an attached (externally owned) metric; detaches on
  // destruction, folding histogram contents into the registry (see file
  // header). Default-constructed handles are inert.
  class scoped_attach {
   public:
    scoped_attach() = default;
    scoped_attach(registry* r, std::uint64_t id) : reg_(r), id_(id) {}
    scoped_attach(scoped_attach&& o) noexcept
        : reg_(o.reg_), id_(o.id_) {
      o.reg_ = nullptr;
    }
    scoped_attach& operator=(scoped_attach&& o) noexcept {
      release();
      reg_ = o.reg_;
      id_ = o.id_;
      o.reg_ = nullptr;
      return *this;
    }
    scoped_attach(const scoped_attach&) = delete;
    scoped_attach& operator=(const scoped_attach&) = delete;
    ~scoped_attach() { release(); }

    void release() {
      if (reg_ != nullptr) {
        reg_->detach(id_);
        reg_ = nullptr;
      }
    }

   private:
    registry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };

  // The process-wide registry, with the scheduler bridge installed and
  // the event counts created, so every name is exported from the start.
  static registry& global() {
    static registry* r = [] {
      auto* reg = new registry();
      install_runtime_bridge(*reg);
      reg->events_.reset(new event_counts{
          reg->get_counter("edgemap.slots_written"),
          reg->get_counter("edgemap.edges_examined"),
          reg->get_counter("edgemap.dense_vertices"),
          reg->get_counter("parlib.fetch_add_ops"),
          reg->get_counter("parlib.histogram_calls"),
          reg->get_counter("serve.merged_csr_materializations")});
      // Query engines attach their reader-fork counters under this name.
      reg->get_counter("sched.reader_forks");
      return reg;
    }();
    return *r;
  }

  // The event counts; only the global registry has them.
  const event_counts& events() const { return *events_; }

  // Get-or-create; references are stable for the registry's lifetime.
  counter& get_counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(mutex_);
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<counter>();
    return *slot;
  }
  gauge& get_gauge(const std::string& name) {
    std::lock_guard<std::mutex> lk(mutex_);
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<gauge>();
    return *slot;
  }
  histogram& get_histogram(const std::string& name) {
    std::lock_guard<std::mutex> lk(mutex_);
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<histogram>();
    return *slot;
  }

  // Attach an externally owned histogram under `name`. Multiple
  // histograms may share a name (e.g. overlapping engines); snapshots
  // fold them together. The histogram must outlive the returned handle.
  scoped_attach attach_histogram(std::string name, const histogram* h) {
    std::lock_guard<std::mutex> lk(mutex_);
    const std::uint64_t id = next_attach_id_++;
    attached_.push_back({std::move(name), h, id});
    return scoped_attach(this, id);
  }

  // Attach an externally owned counter under `name`; same-name counters
  // (owned and attached) sum in snapshots, and detaching folds the
  // counter's value into the owned one. The counter must outlive the
  // returned handle.
  scoped_attach attach_counter(std::string name, const counter* c) {
    std::lock_guard<std::mutex> lk(mutex_);
    const std::uint64_t id = next_attach_id_++;
    attached_counters_.push_back({std::move(name), c, id});
    return scoped_attach(this, id);
  }

  // Snapshot-time bridge to external state; `fn` appends entries. Lives
  // for the registry's lifetime (intended for process-global sources).
  void add_callback(std::function<void(metrics_snapshot&)> fn) {
    std::lock_guard<std::mutex> lk(mutex_);
    callbacks_.push_back(std::move(fn));
  }

  metrics_snapshot read() const {
    metrics_snapshot s;
    std::lock_guard<std::mutex> lk(mutex_);
    std::map<std::string, std::uint64_t> counts;
    for (const auto& [name, c] : counters_) counts[name] += c->value();
    for (const auto& a : attached_counters_) counts[a.name] += a.ctr->value();
    s.counters.assign(counts.begin(), counts.end());
    for (const auto& [name, g] : gauges_) {
      s.gauges.emplace_back(name, g->value());
    }
    // Owned and attached histograms aggregate bucket-level by name, so
    // quantiles of a shared name are over the union of samples.
    std::map<std::string, histogram::aggregation> aggs;
    for (const auto& [name, h] : histograms_) h->accumulate(aggs[name]);
    for (const auto& a : attached_) a.hist->accumulate(aggs[a.name]);
    for (const auto& [name, agg] : aggs) {
      s.histograms.emplace_back(name, histogram::summarize(agg));
    }
    for (const auto& fn : callbacks_) fn(s);
    std::sort(s.counters.begin(), s.counters.end());
    std::sort(s.gauges.begin(), s.gauges.end());
    std::sort(s.histograms.begin(), s.histograms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::sort(s.sections.begin(), s.sections.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return s;
  }

  // ---- render --------------------------------------------------------------

  static std::string to_json(const metrics_snapshot& s) {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, v] : s.counters) {
      out += first ? "\n" : ",\n";
      out += "    \"" + name + "\": " + std::to_string(v);
      first = false;
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, v] : s.gauges) {
      out += first ? "\n" : ",\n";
      out += "    \"" + name + "\": " + std::to_string(v);
      first = false;
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    char buf[256];
    for (const auto& [name, h] : s.histograms) {
      out += first ? "\n" : ",\n";
      std::snprintf(buf, sizeof(buf),
                    "    \"%s\": {\"count\": %llu, \"sum_s\": %.9g, "
                    "\"max_s\": %.9g, \"p50_s\": %.9g, \"p90_s\": %.9g, "
                    "\"p99_s\": %.9g}",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    h.sum_s, h.max_s, h.p50_s, h.p90_s, h.p99_s);
      out += buf;
      first = false;
    }
    out += "\n  }";
    for (const auto& [name, raw] : s.sections) {
      out += ",\n  \"" + name + "\": " + raw;
    }
    out += "\n}\n";
    return out;
  }

  // Prometheus text exposition (version 0.0.4): counters and gauges as-is,
  // histograms as summaries (quantile series + _sum + _count).
  static std::string to_prometheus(const metrics_snapshot& s) {
    std::string out;
    char buf[256];
    for (const auto& [name, v] : s.counters) {
      const std::string m = prom_name(name);
      out += "# TYPE " + m + " counter\n";
      out += m + " " + std::to_string(v) + "\n";
    }
    for (const auto& [name, v] : s.gauges) {
      const std::string m = prom_name(name);
      out += "# TYPE " + m + " gauge\n";
      out += m + " " + std::to_string(v) + "\n";
    }
    for (const auto& [name, h] : s.histograms) {
      const std::string m = prom_name(name);
      out += "# TYPE " + m + " summary\n";
      std::snprintf(buf, sizeof(buf),
                    "%s{quantile=\"0.5\"} %.9g\n"
                    "%s{quantile=\"0.9\"} %.9g\n"
                    "%s{quantile=\"0.99\"} %.9g\n"
                    "%s_sum %.9g\n%s_count %llu\n",
                    m.c_str(), h.p50_s, m.c_str(), h.p90_s, m.c_str(),
                    h.p99_s, m.c_str(), h.sum_s, m.c_str(),
                    static_cast<unsigned long long>(h.count));
      out += buf;
    }
    return out;
  }

  // Write a snapshot to `path` as JSON (tmp file + rename, so a reader
  // never sees a torn document). Returns false on IO failure.
  bool write_json(const std::string& path) const {
    const std::string doc = to_json(read());
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  }

 private:
  struct attached_entry {
    std::string name;
    const histogram* hist;
    std::uint64_t id;
  };
  struct attached_counter {
    std::string name;
    const counter* ctr;
    std::uint64_t id;
  };

  void detach(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(mutex_);
    for (std::size_t i = 0; i < attached_.size(); ++i) {
      if (attached_[i].id != id) continue;
      // Preserve the departing component's totals under the same name.
      auto& slot = histograms_[attached_[i].name];
      if (slot == nullptr) slot = std::make_unique<histogram>();
      slot->merge_from(*attached_[i].hist);
      attached_.erase(attached_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
    for (std::size_t i = 0; i < attached_counters_.size(); ++i) {
      if (attached_counters_[i].id != id) continue;
      auto& slot = counters_[attached_counters_[i].name];
      if (slot == nullptr) slot = std::make_unique<counter>();
      slot->add(attached_counters_[i].ctr->value());
      attached_counters_.erase(attached_counters_.begin() +
                               static_cast<std::ptrdiff_t>(i));
      return;
    }
  }

  static std::string prom_name(const std::string& name) {
    std::string out = "gbbs_";
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out += ok ? c : '_';
    }
    return out;
  }

  // The parlib runtime bridge: scheduler internals, read live.
  static void install_runtime_bridge(registry& reg) {
    reg.add_callback([](metrics_snapshot& s) {
      auto& sched = parlib::scheduler::instance();
      s.add_counter("sched.steals", sched.total_steals());
      s.add_counter("sched.external_registrations",
                    sched.external_registrations());
      s.add_counter("sched.unregistered_pardos", sched.unregistered_pardos());
      s.add_counter("sched.inline_fallbacks", sched.inline_fallbacks());
      s.add_gauge("sched.num_workers",
                  static_cast<std::int64_t>(sched.num_workers()));
      s.add_gauge("sched.active_workers",
                  static_cast<std::int64_t>(sched.num_active_workers()));
      s.add_gauge("sched.deque_occupancy",
                  static_cast<std::int64_t>(sched.total_deque_occupancy()));
    });
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<counter>> counters_;
  std::map<std::string, std::unique_ptr<gauge>> gauges_;
  std::map<std::string, std::unique_ptr<histogram>> histograms_;
  std::vector<attached_entry> attached_;
  std::vector<attached_counter> attached_counters_;
  std::vector<std::function<void(metrics_snapshot&)>> callbacks_;
  std::uint64_t next_attach_id_ = 1;
  std::unique_ptr<const event_counts> events_;
};

inline const event_counts& events() { return registry::global().events(); }

}  // namespace gbbs::obs
