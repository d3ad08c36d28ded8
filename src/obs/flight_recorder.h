// Always-on, lock-free flight recorder: per-worker-slot ring buffers of
// fixed-size binary events, written with relaxed atomic stores on the hot
// path and decoded on demand into per-request timelines.
//
// PR 6's histograms aggregate; they cannot say why *one* query took 40 ms.
// The recorder keeps the last N events per worker slot — span begin/end,
// instants, queue hand-offs, scheduler forks/steals — each stamped with a
// tsc timestamp and the trace id of the request that caused it, so a
// snapshot reconstructs causal timelines across threads (see
// trace_export.h for the Chrome-trace rendering and exemplar.h for
// tail-sampled slow-query retention).
//
// Concurrency design:
//  * one ring per worker slot (parlib::worker_slot()), so registered
//    participants never contend on a head index. The shared overflow slot
//    (unregistered threads) can have concurrent writers — the ring index is
//    claimed with a relaxed fetch_add, so claims are unique; two claims a
//    full lap apart can interleave field writes on the same physical entry,
//    which the decoder rejects via the sequence check (observability data,
//    not a correctness channel — a vanishingly rare bad entry is skipped);
//  * every event field is an atomic written/read relaxed, bracketed by a
//    per-entry seqlock (odd = write in progress; an entry for ring index i
//    is stable only at seq == 2*i + 2). Snapshots run concurrently with
//    writers, retry unstable entries a few times, and skip entries that a
//    writer lapped mid-read. All accesses are atomics: TSan-clean by
//    construction, torn reads rejected by value;
//  * wraparound is never silent: head is monotone, so `head - capacity`
//    (when positive) is exactly the number of overwritten ("dropped")
//    events, exported as trace.events_dropped.
//
// Cost when enabled: a TLS lookup, one fetch_add, a tsc read, six relaxed
// stores — low tens of ns (bench_primitives records the number into
// BENCH_scheduler.json). When disabled at runtime: one relaxed load and a
// branch. Compiled out entirely with -DGBBS_NO_FLIGHT_RECORDER
// (cmake -DGBBS_FLIGHT_RECORDER=OFF).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "parlib/scheduler.h"
#include "parlib/trace_hooks.h"

namespace gbbs::obs {

// Event taxonomy — a stable contract (README "Tracing"): values are what
// tests and external tooling key on.
enum class event_type : std::uint32_t {
  none = 0,
  span_begin = 1,       // arg_a = interned stage-name id
  span_end = 2,         // arg_a = interned stage-name id
  instant = 3,          // arg_a = interned label id
  flow_begin = 4,       // arg_b = flow id (request hand-off source)
  flow_end = 5,         // arg_b = flow id (request hand-off destination)
  sched_fork = 6,       // arg_b = job key; par_do published a stealable job
  sched_steal = 7,      // arg_b = job key; a thief dequeued it
  sched_run_begin = 8,  // arg_b = job key; thief starts the stolen job
  sched_run_end = 9,    // arg_b = job key; thief finished it
  sched_inline = 10,    // arg_b = job key; deque-full inline fallback
};

// Stable wire names for the taxonomy (exports + the CI required-names
// check key on these).
inline const char* event_type_name(event_type t) {
  switch (t) {
    case event_type::none: return "none";
    case event_type::span_begin: return "span_begin";
    case event_type::span_end: return "span_end";
    case event_type::instant: return "instant";
    case event_type::flow_begin: return "flow_begin";
    case event_type::flow_end: return "flow_end";
    case event_type::sched_fork: return "sched_fork";
    case event_type::sched_steal: return "sched_steal";
    case event_type::sched_run_begin: return "sched_run_begin";
    case event_type::sched_run_end: return "sched_run_end";
    case event_type::sched_inline: return "sched_inline";
  }
  return "unknown";
}

// A decoded event, as returned by snapshot(): stable fields only.
struct recorded_event {
  std::uint64_t ts_ticks = 0;  // rdticks() at emit (see ticks_to_ns)
  std::uint64_t trace_id = 0;  // originating request, 0 = none
  std::uint64_t arg_b = 0;     // flow id / job key
  std::uint32_t arg_a = 0;     // interned stage/label id
  event_type type = event_type::none;
  std::uint32_t slot = 0;      // worker slot that recorded it
};

// Timestamp source: tsc where available (one instruction, monotone enough
// for intra-process timelines), steady_clock ns elsewhere. The recorder
// calibrates ticks -> ns at export time against a steady_clock anchor.
inline std::uint64_t rdticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

class flight_recorder {
 public:
  // Per-slot ring capacity: GBBS_TRACE_EVENTS env (rounded up to a power
  // of two, min 64) or 8192. ~40 B/event, rings allocate lazily per slot.
  static constexpr std::size_t kDefaultCapacity = 8192;

  // The process-wide recorder. Leaked (worker threads may emit during
  // static destruction); installs the parlib scheduler hook and the
  // registry bridge (trace.events_recorded / trace.events_dropped) once.
  static flight_recorder& global() {
    static flight_recorder* r = [] {
      auto* fr = new flight_recorder();
      parlib::trace::set_sched_hook(&sched_hook);
      registry::global().add_callback([](metrics_snapshot& s) {
        s.add_counter("trace.events_recorded", global().events_recorded());
        s.add_counter("trace.events_dropped", global().events_dropped());
      });
      return fr;
    }();
    return *r;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

  // Allocate a fresh trace id (never 0).
  std::uint64_t next_trace_id() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- hot path ------------------------------------------------------------

  // Record an event tagged with the calling thread's current trace id.
  void emit(event_type t, std::uint32_t arg_a = 0, std::uint64_t arg_b = 0) {
#if !defined(GBBS_NO_FLIGHT_RECORDER)
    emit_with_id(t, parlib::trace::current_trace_id(), arg_a, arg_b);
#else
    (void)t;
    (void)arg_a;
    (void)arg_b;
#endif
  }

  void emit_with_id(event_type t, std::uint64_t trace_id,
                    std::uint32_t arg_a = 0, std::uint64_t arg_b = 0) {
#if !defined(GBBS_NO_FLIGHT_RECORDER)
    if (!enabled_.load(std::memory_order_relaxed)) return;
    ring& r = ring_for(parlib::worker_slot());
    const std::uint64_t idx = r.head.fetch_add(1, std::memory_order_relaxed);
    entry& e = r.entries[idx & mask_];
    // Per-entry seqlock: odd marks the write in progress; the release
    // fence orders the marker before the field stores, the final release
    // store publishes the fields under the even (stable) sequence.
    e.seq.store(2 * idx + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    e.ts.store(rdticks(), std::memory_order_relaxed);
    e.trace_id.store(trace_id, std::memory_order_relaxed);
    e.arg_b.store(arg_b, std::memory_order_relaxed);
    e.type.store(static_cast<std::uint32_t>(t), std::memory_order_relaxed);
    e.arg_a.store(arg_a, std::memory_order_relaxed);
    e.seq.store(2 * idx + 2, std::memory_order_release);
#else
    (void)t;
    (void)trace_id;
    (void)arg_a;
    (void)arg_b;
#endif
  }

  // ---- stage-name interning ------------------------------------------------

  // Map a stage/label name to a dense id carried in arg_a. Mutex-guarded;
  // call sites cache the id (see trace.h's stage_ref). Id 0 is "".
  std::uint32_t intern(const std::string& name) {
    std::lock_guard<std::mutex> lk(intern_mutex_);
    auto it = intern_ids_.find(name);
    if (it != intern_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(intern_names_.size());
    intern_names_.push_back(name);
    intern_ids_.emplace(name, id);
    return id;
  }

  std::string intern_name(std::uint32_t id) const {
    std::lock_guard<std::mutex> lk(intern_mutex_);
    return id < intern_names_.size() ? intern_names_[id] : std::string();
  }

  // ---- snapshot ------------------------------------------------------------

  // Events ever recorded / overwritten by wraparound, across all slots.
  std::uint64_t events_recorded() const {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < num_slots_; ++s) {
      if (const ring* r = rings_[s].load(std::memory_order_acquire)) {
        total += r->head.load(std::memory_order_relaxed);
      }
    }
    return total;
  }
  std::uint64_t events_dropped() const {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < num_slots_; ++s) {
      if (const ring* r = rings_[s].load(std::memory_order_acquire)) {
        const std::uint64_t head = r->head.load(std::memory_order_relaxed);
        if (head > capacity_) total += head - capacity_;
      }
    }
    return total;
  }

  // Decode every stable event across all rings, sorted by timestamp.
  // Runs concurrently with writers: in-progress or lapped entries are
  // skipped (bounded retries), never blocked on.
  std::vector<recorded_event> snapshot() const {
    std::vector<recorded_event> out;
    for (std::size_t s = 0; s < num_slots_; ++s) {
      const ring* r = rings_[s].load(std::memory_order_acquire);
      if (r == nullptr) continue;
      const std::uint64_t head = r->head.load(std::memory_order_acquire);
      const std::uint64_t n = head < capacity_ ? head : capacity_;
      for (std::uint64_t idx = head - n; idx < head; ++idx) {
        recorded_event ev;
        if (decode(r->entries[idx & mask_], idx, ev)) {
          ev.slot = static_cast<std::uint32_t>(s);
          out.push_back(ev);
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const recorded_event& a, const recorded_event& b) {
                return a.ts_ticks < b.ts_ticks;
              });
    return out;
  }

  // The events of one request, in timestamp order.
  std::vector<recorded_event> snapshot_trace(std::uint64_t trace_id) const {
    std::vector<recorded_event> all = snapshot();
    std::vector<recorded_event> out;
    for (const auto& ev : all) {
      if (ev.trace_id == trace_id) out.push_back(ev);
    }
    return out;
  }

  // ---- tick calibration ----------------------------------------------------

  // ns per tick, measured against steady_clock since construction. The
  // measurement window grows with process lifetime, so export-time error
  // is far below event granularity.
  double ns_per_tick() const {
    const std::uint64_t t1 = rdticks();
    const auto c1 = std::chrono::steady_clock::now();
    const double dticks = static_cast<double>(t1 - anchor_ticks_);
    const double dns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(c1 -
                                                             anchor_clock_)
            .count());
    return dticks > 0 && dns > 0 ? dns / dticks : 1.0;
  }

  double ticks_to_us(std::uint64_t ticks, double ns_per_tick_v) const {
    return static_cast<double>(ticks - anchor_ticks_) * ns_per_tick_v / 1e3;
  }

  flight_recorder(const flight_recorder&) = delete;
  flight_recorder& operator=(const flight_recorder&) = delete;

 private:
  struct entry {
    std::atomic<std::uint64_t> seq{0};  // 2*idx+1 writing, 2*idx+2 stable
    std::atomic<std::uint64_t> ts{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> arg_b{0};
    std::atomic<std::uint32_t> type{0};
    std::atomic<std::uint32_t> arg_a{0};
  };
  struct ring {
    std::atomic<std::uint64_t> head{0};
    std::unique_ptr<entry[]> entries;
  };

  flight_recorder()
      : capacity_(capacity_from_env()),
        mask_(capacity_ - 1),
        num_slots_(parlib::max_worker_slots()),
        rings_(new std::atomic<ring*>[num_slots_]),
        anchor_ticks_(rdticks()),
        anchor_clock_(std::chrono::steady_clock::now()) {
    for (std::size_t s = 0; s < num_slots_; ++s) {
      rings_[s].store(nullptr, std::memory_order_relaxed);
    }
    intern_names_.push_back("");  // id 0 reserved
    intern_ids_.emplace("", 0);
  }

  static std::size_t capacity_from_env() {
    std::size_t cap = kDefaultCapacity;
    if (const char* env = std::getenv("GBBS_TRACE_EVENTS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) cap = static_cast<std::size_t>(v);
    }
    std::size_t pow2 = 64;
    while (pow2 < cap) pow2 <<= 1;
    return pow2;
  }

  ring& ring_for(std::size_t slot) {
    ring* r = rings_[slot].load(std::memory_order_acquire);
    if (r != nullptr) return *r;
    auto* fresh = new ring();
    fresh->entries = std::make_unique<entry[]>(capacity_);
    ring* expected = nullptr;
    if (rings_[slot].compare_exchange_strong(expected, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;  // another writer on the shared overflow slot won
    return *expected;
  }

  static bool decode(const entry& e, std::uint64_t idx, recorded_event& ev) {
    const std::uint64_t want = 2 * idx + 2;
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t s1 = e.seq.load(std::memory_order_acquire);
      if (s1 != want) return false;  // in progress, or lapped by a writer
      ev.ts_ticks = e.ts.load(std::memory_order_relaxed);
      ev.trace_id = e.trace_id.load(std::memory_order_relaxed);
      ev.arg_b = e.arg_b.load(std::memory_order_relaxed);
      ev.type = static_cast<event_type>(e.type.load(std::memory_order_relaxed));
      ev.arg_a = e.arg_a.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (e.seq.load(std::memory_order_relaxed) == s1) return true;
    }
    return false;
  }

  static void sched_hook(parlib::trace::sched_event e, std::uint64_t trace_id,
                         std::uint64_t job_key) {
    event_type t = event_type::none;
    switch (e) {
      case parlib::trace::sched_event::fork:
        t = event_type::sched_fork;
        break;
      case parlib::trace::sched_event::steal:
        t = event_type::sched_steal;
        break;
      case parlib::trace::sched_event::run_begin:
        t = event_type::sched_run_begin;
        break;
      case parlib::trace::sched_event::run_end:
        t = event_type::sched_run_end;
        break;
      case parlib::trace::sched_event::inline_fallback:
        t = event_type::sched_inline;
        break;
    }
    global().emit_with_id(t, trace_id, 0, job_key);
  }

  const std::size_t capacity_;
  const std::uint64_t mask_;
  const std::size_t num_slots_;
  std::unique_ptr<std::atomic<ring*>[]> rings_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_trace_id_{1};
  const std::uint64_t anchor_ticks_;
  const std::chrono::steady_clock::time_point anchor_clock_;

  mutable std::mutex intern_mutex_;
  std::vector<std::string> intern_names_;
  std::map<std::string, std::uint32_t> intern_ids_;
};

// Ensure the recorder (and its scheduler hook) exists before any traced
// work runs. Tools and the serving layer call this once at startup; emit()
// callers may rely on global() directly.
inline void ensure_flight_recorder() { flight_recorder::global(); }

}  // namespace gbbs::obs
