// Scheduler tracing hooks: the thin seam between parlib and the
// observability layer's flight recorder.
//
// parlib must stay free of dependencies on gbbs::obs (the scheduler is the
// substrate everything else builds on), yet the flight recorder needs to see
// scheduler-internal transitions — fork, steal, stolen-job run begin/end,
// deque-overflow inline fallback — tagged with the *request* that caused
// them. Two pieces make that work without an upward dependency:
//
//  * a process-wide hook function pointer (atomic, null by default): the obs
//    layer installs its recorder callback at startup; when no recorder is
//    linked or tracing is compiled out, the hot path pays one relaxed load
//    and a predictable not-taken branch;
//  * a thread-local *current trace id*: request entry points (ingest batch,
//    query execution) bind an id with trace_id_scope; par_do stamps the id
//    into each forked job, and a thief temporarily adopts the job's id while
//    running it — so events emitted deep inside stolen subtasks still
//    attribute to the originating request.
//
// Trace id 0 means "no request context"; events still record, they are just
// not attributable to a request timeline.
#pragma once

#include <atomic>
#include <cstdint>

namespace parlib {
namespace trace {

// Scheduler transitions surfaced to the hook. Values are stable: they are
// part of the on-disk trace contract (see README "Tracing").
enum class sched_event : std::uint32_t {
  fork = 0,             // par_do pushed a stealable job
  steal = 1,            // a thief dequeued somebody else's job
  run_begin = 2,        // thief starts executing the stolen job
  run_end = 3,          // thief finished the stolen job
  inline_fallback = 4,  // deque full: par_do ran both branches inline
};

// (event, trace id of the originating request, opaque job identity — the
// job's address, used by the exporter to pair fork/steal flow arrows).
using sched_hook_fn = void (*)(sched_event, std::uint64_t trace_id,
                               std::uint64_t job_key);

inline std::atomic<sched_hook_fn>& sched_hook_slot() {
  static std::atomic<sched_hook_fn> hook{nullptr};
  return hook;
}

// Install (or clear, with nullptr) the process-wide scheduler event hook.
// The hook must be safe to call from any thread and must not fork.
inline void set_sched_hook(sched_hook_fn fn) {
  sched_hook_slot().store(fn, std::memory_order_release);
}

inline void emit_sched_event(sched_event e, std::uint64_t trace_id,
                             std::uint64_t job_key) {
  if (sched_hook_fn fn = sched_hook_slot().load(std::memory_order_acquire)) {
    fn(e, trace_id, job_key);
  }
}

// The calling thread's current trace id (0 = none). par_do reads this when
// forking; request entry points set it via trace_id_scope.
inline std::uint64_t& tls_trace_id() {
  thread_local std::uint64_t id = 0;
  return id;
}

inline std::uint64_t current_trace_id() { return tls_trace_id(); }

// RAII: bind `id` as the thread's current trace id for the scope's extent,
// restoring the previous binding on exit (scopes nest; an ingest batch
// running inside a traced tool round keeps the inner id only while active).
class trace_id_scope {
 public:
  explicit trace_id_scope(std::uint64_t id) : saved_(tls_trace_id()) {
    tls_trace_id() = id;
  }
  ~trace_id_scope() { tls_trace_id() = saved_; }

  trace_id_scope(const trace_id_scope&) = delete;
  trace_id_scope& operator=(const trace_id_scope&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace trace
}  // namespace parlib
