// Pipeline trace spans: RAII timers that record a stage's duration into a
// registry-owned histogram named "span.<stage>".
//
// Stage names are a *stable contract* (dashboards and the CI-archived
// metrics JSON key on them — see README "Observability"):
//   ingest.normalize        raw batch -> sorted, deduped, mirrored batch
//   ingest.apply            delta-overlay merge of a normalized batch
//   ingest.connectivity     incremental connectivity + link tracking
//   ingest.overlay_refresh  overlay-index distill + publish
//   ingest.publish          version publish into the snapshot store
// Sharded-ingest stages (sharded_ingest.h; the coordinator emits
// normalize/split/publish, each shard worker emits apply/refresh on its
// own thread under the batch's trace id):
//   ingest.shard.split      normalized batch -> per-shard sub-batches
//   ingest.shard.apply      one shard's delta-overlay merge of its slice
//   ingest.shard.refresh    one shard's overlay-index distill + publish
//   ingest.barrier.merge    per-shard connectivity deltas -> global view
//                           at the composite-publish barrier
// Query-side stages (queue wait -> view selection -> execute) are
// per-kind and live under "serve.query.*", attached by the query engine.
// Result-cache stages/events (result_cache.h; counters live under
// "serve.cache.{hits,misses,invalidations,entries}"):
//   serve.cache.lookup      cache probe ahead of view selection; the
//                           paired serve.cache.hit / serve.cache.miss
//                           instants mark the outcome on the timeline
//
// Spans nest: a thread-local depth tracks containment (purely
// observational — children are not linked to parents; each stage
// histogram stands alone). Cost per span: one steady_clock read at open,
// one at close, plus a sharded histogram record — cheap enough for
// per-batch and per-query granularity, not meant for per-edge loops.
//
// Spans opened on a stage_ref (stage_named) additionally write
// span_begin/span_end events into the flight recorder, tagged with the
// thread's current trace id — the per-request timeline view of the same
// stages (see flight_recorder.h / trace_export.h).
#pragma once

#include <chrono>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace gbbs::obs {

// Resolve (get-or-create) the histogram for a stage name. One mutex-guarded
// map lookup — call sites on hot paths cache the reference:
//   static obs::histogram& h = obs::stage("ingest.apply");
inline histogram& stage(const char* name) {
  return registry::global().get_histogram(std::string("span.") + name);
}

// A stage resolved for *both* sinks: the aggregate histogram and the
// flight recorder's interned name id. Call sites cache it once:
//   static const obs::stage_ref s = obs::stage_named("ingest.apply");
//   obs::trace_span span(s);
// A span opened on a stage_ref additionally emits span_begin/span_end
// events into the per-request timeline (tagged with the thread's current
// trace id), on top of the histogram record.
struct stage_ref {
  histogram* hist;
  std::uint32_t name_id;
};

inline stage_ref stage_named(const char* name) {
  return stage_ref{&stage(name), flight_recorder::global().intern(name)};
}

class trace_span {
 public:
  explicit trace_span(histogram& h)
      : hist_(&h), start_(std::chrono::steady_clock::now()) {
    ++depth_ref();
  }
  explicit trace_span(const char* stage_name)
      : trace_span(stage(stage_name)) {}
  explicit trace_span(const stage_ref& s) : trace_span(*s.hist) {
    name_id_ = s.name_id;
    flight_recorder::global().emit(event_type::span_begin, name_id_);
  }

  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

  ~trace_span() {
    --depth_ref();
    hist_->record_s(elapsed_s());
    if (name_id_ != 0) {
      flight_recorder::global().emit(event_type::span_end, name_id_);
    }
  }

  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // Current nesting depth of open spans on this thread (0 outside any).
  static int depth() { return depth_ref(); }

 private:
  static int& depth_ref() {
    thread_local int depth = 0;
    return depth;
  }

  histogram* hist_;
  std::chrono::steady_clock::time_point start_;
  std::uint32_t name_id_ = 0;  // nonzero: emit span events to the recorder
};

}  // namespace gbbs::obs
