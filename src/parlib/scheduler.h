// Work-stealing fork-join scheduler.
//
// This is the substrate the paper obtains from Cilk Plus: a nested-parallel
// runtime whose work-stealing scheduler executes a computation with W work and
// D depth in expected time W/P + O(D) on P workers (Blumofe & Leiserson).
// The programming interface is `par_do` (fork two tasks, join both) plus the
// `parallel_for` built on top of it in parallel.h; every algorithm in this
// repository is written against those two calls only.
//
// Design (follows the classic child-stealing scheme):
//  * one worker thread per hardware thread (configurable via the
//    PARLIB_NUM_WORKERS environment variable or set_num_workers()); the
//    thread that first touches the scheduler becomes worker 0, the remaining
//    workers are spawned threads;
//  * each participant owns a *lock-free bounded Chase-Lev deque* of jobs
//    (Chase & Lev, SPAA 2005): the owner pushes and pops at the bottom with
//    plain release/acquire stores, thieves steal from the top, and only the
//    race for the last remaining element is arbitrated with a CAS on the top
//    index. The variant here uses seq_cst accesses at the two Dekker points
//    (owner's bottom-store/top-load in pop, thief's top-load/bottom-load in
//    steal) instead of standalone fences, so ThreadSanitizer models the
//    synchronization exactly. The deque is bounded (kCapacity pending jobs);
//    on overflow par_do simply runs both branches inline — correct, and in
//    practice unreachable for the log-depth frames our loops produce;
//  * par_do(f, g) pushes g, runs f inline, then pops g if nobody stole it;
//    pop_if verifies the popped job is the one this frame pushed, so a racing
//    thief can never cause a frame to execute a job belonging to an outer
//    frame. If g was stolen the waiting frame helps by stealing other jobs
//    until g's done flag is set;
//  * *external participation*: any non-scheduler thread (a query-engine
//    reader, a benchmark writer) can register itself with
//    register_external_worker() — RAII wrapper: worker_guard — which claims
//    it a deque slot of its own from a lock-free slot table. From then on its
//    par_do forks land on its *own* deque (stealable by everyone), and while
//    waiting for a stolen join it help-steals like a native worker. Threads
//    that do NOT register get the kNoWorker sentinel id and their par_do runs
//    both branches inline-sequentially — an unknown thread never enqueues
//    onto a deque it does not own (the pre-registration design funneled every
//    foreign fork through deque 0, serializing concurrent queries and
//    sharing one deque between unrelated threads);
//  * *idle native workers park*: a native worker that has found nothing to
//    steal for kSpinBeforePark blocks on a condition variable instead of
//    spinning on, so an idle pool does not compete for cores with threads
//    that do have work (a client looping on inline point reads, a writer,
//    a shard thread). par_do wakes one parked worker after each push while
//    any is parked and unclaimed; when none is, the fork path pays one
//    relaxed load. The push and the parker's re-check of the deques are
//    not fenced against each other, so a wake-up can be missed; a parked
//    worker therefore also wakes every kParkTimeout to look for work. A
//    missed wake-up costs parallelism for at most that long, never
//    progress: a forking frame always runs its own unstolen jobs;
//  * the number of *active* workers can be lowered at runtime (used by the
//    benchmark harness to measure T(1) and T(P) in one process): with one
//    active worker par_do degenerates to sequential calls and no job is ever
//    enqueued, so a "1-thread" measurement has no scheduling overhead. The
//    restriction applies to everyone, external workers included.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parlib/cancellation.h"
#include "parlib/trace_hooks.h"

namespace parlib {

namespace internal {

// A unit of stealable work. Jobs live on the forking frame's stack; `done`
// is the join flag the forking frame waits on when the job is stolen.
// `trace_id` is the forking request's trace id (0 = none), stamped before
// the job is published so a thief can attribute the stolen work — and any
// events the stolen subtask emits — to the originating request. `cancel`
// is the forking request's cancellation token (null = not cancellable),
// stamped the same way so a thief's polls observe the request's deadline /
// cancellation exactly like the forking thread's would.
class job {
 public:
  virtual ~job() = default;
  virtual void execute() = 0;
  std::atomic<bool> done{false};
  std::uint64_t trace_id = 0;
  cancel::token* cancel = nullptr;
};

template <typename F>
class func_job final : public job {
 public:
  explicit func_job(F& f) : f_(f) {}
  void execute() override { f_(); }

 private:
  F& f_;
};

// Bounded lock-free Chase-Lev deque. Owner pushes/pops at the bottom,
// thieves steal from the top; indices grow monotonically and wrap into the
// power-of-two ring by masking. Entries can never be overwritten while a
// thief may still read them: push refuses when bottom - top reaches the
// capacity, and a stale thief's CAS on top fails once top has moved on.
//
// The pop side is `pop_if(j)`: pop the bottom element only if it is exactly
// `j`. A frame's pushes and pops are balanced, so when a frame returns to
// its join point either its own job is still at the bottom, or the job was
// stolen and the bottom holds an *outer* frame's job — which pop_if must
// leave in place. This identity check is what makes nested par_do correct
// without any per-frame bookkeeping.
class work_deque {
 public:
  static constexpr std::size_t kCapacity = 1024;  // power of two
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  // Owner only. False when the deque is full (caller runs the job inline).
  bool push(job* j) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    buffer_[index(b)].store(j, std::memory_order_relaxed);
    // The release on bottom publishes both the slot write above and the
    // job's construction (sequenced before push) to acquiring thieves.
    bottom_.store(b + 1, std::memory_order_release);
    // Owner-only statistic: single writer, so load+store (not RMW).
    pushes_.store(pushes_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    return true;
  }

  // Owner only. True iff `expected` was still at the bottom (and is now
  // removed); false if it was stolen (bottom element, if any, belongs to an
  // outer frame and stays). The bottom-store/top-load pair is seq_cst: it
  // forms a Dekker handshake with steal() so that for the last element
  // exactly one of {owner, thief} proceeds to the CAS arbitration.
  bool pop_if(const job* expected) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      job* j = buffer_[index(b)].load(std::memory_order_relaxed);
      if (j != expected) {
        // Our job was stolen; the bottom element is an outer frame's.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
      }
      if (t == b) {
        // Last element: arbitrate with a concurrent thief via CAS on top.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;  // >= 2 elements: thieves cannot reach the bottom one
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // deque was empty
    return false;
  }

  // Any thread. Null when empty or when the CAS race was lost (the caller
  // probes another victim rather than retrying).
  job* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    job* j = buffer_[index(t)].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return j;
  }

  // Jobs ever pushed onto this deque (owner-maintained, monotone across
  // slot reuse). The scheduler exposes it per slot so callers can assert
  // *where* forks land — e.g. that a registered reader thread forks onto
  // its own deque and not deque 0.
  std::uint64_t pushes() const {
    return pushes_.load(std::memory_order_relaxed);
  }

  // Approximate pending-job count (racy by nature; an occupancy gauge for
  // the observability layer, not a synchronization primitive).
  std::size_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  static std::size_t index(std::int64_t i) {
    return static_cast<std::size_t>(i) & (kCapacity - 1);
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<std::uint64_t> pushes_{0};
  std::array<std::atomic<job*>, kCapacity> buffer_{};
};

}  // namespace internal

class scheduler {
 public:
  // Sentinel worker id of a thread the scheduler does not know about.
  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
  // Deque slots reserved for externally registered threads, beyond the
  // native workers. Registration beyond this returns kNoWorker and the
  // thread simply stays sequential.
  static constexpr std::size_t kMaxExternalWorkers = 128;

  // The process-wide scheduler. Created on first use with
  // PARLIB_NUM_WORKERS (or hardware_concurrency) workers.
  static scheduler& instance();

  // Must be called before the first use of instance() to take effect.
  static void set_num_workers(std::size_t n);

  std::size_t num_workers() const { return num_workers_; }

  // Total deque slots (native workers + external capacity). Slot ids are
  // always < max_slots().
  std::size_t max_slots() const {
    return num_workers_ + kMaxExternalWorkers;
  }

  // Worker id of the calling thread: 0 for the thread that created the
  // scheduler, 1..num_workers()-1 for native workers, >= num_workers() for
  // registered external threads, kNoWorker for everyone else.
  //
  // Caveat: worker 0 is bound to the *first thread that touches the
  // scheduler*, permanently. If that thread is short-lived (e.g. a pool
  // thread registering via worker_guard before main ever forks), slot 0
  // is orphaned when it exits and the real main thread stays unregistered
  // (inline-sequential par_do; unregistered_pardos() counts it).
  // Long-lived host threads should touch instance() before spawning pools
  // — query_engine's constructor does this for the serving layer.
  std::size_t worker_id() const;
  bool is_registered() const { return worker_id() != kNoWorker; }

  // Claim a deque slot for the calling thread so its par_do forks onto its
  // own deque and it help-steals while joining (see worker_guard for the
  // RAII form). Returns the slot id, the existing id if the thread is
  // already a worker, or kNoWorker if the external slot table is full (the
  // thread then keeps running par_do inline-sequentially). A registered
  // thread must call unregister_external_worker() before exiting, outside
  // any par_do.
  std::size_t register_external_worker();
  void unregister_external_worker();

  // Restrict execution to the first `n` workers (1 <= n <= num_workers()).
  // With n == 1, par_do runs both branches inline sequentially — for every
  // thread, external workers included (the T(1) measurement contract).
  void set_active_workers(std::size_t n);
  std::size_t num_active_workers() const {
    return active_workers_.load(std::memory_order_relaxed);
  }

  template <typename Lf, typename Rf>
  void par_do(Lf&& left, Rf&& right) {
    const std::size_t id = worker_id();
    if (id == kNoWorker) {
      // Unknown thread: never touch a deque we don't own. Counted so the
      // serving layer can detect readers that forgot to register.
      unregistered_pardos_.fetch_add(1, std::memory_order_relaxed);
      left();
      right();
      return;
    }
    if (num_active_workers() == 1) {
      left();
      right();
      return;
    }
    internal::func_job<Rf> rjob(right);
    rjob.trace_id = trace::current_trace_id();
    rjob.cancel = cancel::current_token();
    if (!deques_[id].push(&rjob)) {
      // Deque full: overflow fallback, run both inline. Counted so the
      // obs layer can surface workloads that fork deeper than the deque.
      inline_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      trace::emit_sched_event(trace::sched_event::inline_fallback,
                              rjob.trace_id,
                              reinterpret_cast<std::uint64_t>(&rjob));
      left();
      right();
      return;
    }
    trace::emit_sched_event(trace::sched_event::fork, rjob.trace_id,
                            reinterpret_cast<std::uint64_t>(&rjob));
    if (unclaimed_parked_.load(std::memory_order_relaxed) != 0) wake_one();
    left();
    if (deques_[id].pop_if(&rjob)) {
      rjob.execute();
    } else {
      wait_for(rjob);
    }
  }

  // Jobs ever pushed onto `slot`'s deque (monotone; see work_deque::pushes).
  std::uint64_t push_count(std::size_t slot) const {
    return slot < max_slots() ? deques_[slot].pushes() : 0;
  }

  // Participation counts since startup (monotone; exported by the obs
  // registry as sched.*). Successful steals across all participants;
  // register_external_worker() slot claims; par_dos that ran inline
  // because the calling thread never registered (non-zero under serving
  // load means a reader pool forgot its worker_guards); par_dos that ran
  // inline because the owner's deque was full (non-zero sustained values
  // mean a workload forks linearly).
  std::uint64_t total_steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  std::uint64_t external_registrations() const {
    return external_registrations_.load(std::memory_order_relaxed);
  }
  std::uint64_t unregistered_pardos() const {
    return unregistered_pardos_.load(std::memory_order_relaxed);
  }
  std::uint64_t inline_fallbacks() const {
    return inline_fallbacks_.load(std::memory_order_relaxed);
  }
  // Times a native worker parked (blocked after kSpinBeforePark without
  // work), and wake-ups par_do sent to parked workers.
  std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  // Native workers parked right now that no wake-up has been sent to.
  std::size_t parked_workers() const {
    return unclaimed_parked_.load(std::memory_order_relaxed);
  }

  // Approximate pending jobs on one deque / across every ever-claimed
  // slot (the obs layer's occupancy gauge). Racy reads by design.
  std::size_t deque_occupancy(std::size_t slot) const {
    return slot < max_slots() ? deques_[slot].size() : 0;
  }
  std::size_t total_deque_occupancy() const {
    std::size_t total = 0;
    const std::size_t limit = slot_limit_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < limit; ++i) total += deques_[i].size();
    return total;
  }

  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

 private:
  explicit scheduler(std::size_t num_workers);

  // Idle time after which a native worker parks, and the longest a parked
  // worker sleeps before it looks for work again (the bound on the cost of
  // a missed wake-up). The spin phase is sized to outlast the sequential
  // gap between two rounds of an algorithm, so that workers park between
  // requests rather than between rounds.
  static constexpr std::chrono::microseconds kSpinBeforePark{200};
  static constexpr std::chrono::milliseconds kParkTimeout{2};

  void worker_loop(std::size_t id);
  // Steal one job from a random victim and run it; returns whether one ran.
  bool steal_and_run(std::uint64_t& rng_state);
  void wait_for(internal::job& j);
  // Block the calling native worker until woken, kParkTimeout passes or
  // the scheduler shuts down.
  void park();
  // Hand a wake-up to one parked worker nobody has woken yet, if any.
  void wake_one();
  bool any_pending_job() const;

  std::size_t num_workers_;
  std::atomic<std::size_t> active_workers_;
  std::atomic<bool> shutting_down_{false};
  // Fixed slot table: [0, num_workers_) native, the rest claimable by
  // external threads. Deque storage is preallocated so a slot's deque is
  // valid for stealing the instant slot_limit_ covers it.
  std::unique_ptr<internal::work_deque[]> deques_;
  std::unique_ptr<std::atomic<bool>[]> slot_claimed_;
  // Upper bound of ever-claimed slots — the victim-scan range. Monotone;
  // scanning a freed slot is harmless (its deque is empty).
  std::atomic<std::size_t> slot_limit_;
  // Own cache line: kept off active_workers_, which every par_do reads.
  alignas(64) std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> external_registrations_{0};
  std::atomic<std::uint64_t> unregistered_pardos_{0};
  std::atomic<std::uint64_t> inline_fallbacks_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  // Parking. parked_ and wake_permits_ are guarded by park_mu_; a permit is
  // a wake-up sent but not yet taken by a parked worker. unclaimed_parked_
  // mirrors parked_ - wake_permits_ for par_do's lock-free check, on its
  // own cache line because every fork reads it. Deactivated workers wait
  // on active_cv_, so a wake-up meant for a parked worker never lands on
  // one that may not run jobs.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::condition_variable active_cv_;
  std::size_t parked_ = 0;
  std::size_t wake_permits_ = 0;
  alignas(64) std::atomic<std::size_t> unclaimed_parked_{0};
  std::vector<std::thread> threads_;
};

inline std::size_t num_workers() { return scheduler::instance().num_workers(); }
inline std::size_t num_active_workers() {
  return scheduler::instance().num_active_workers();
}
inline std::size_t worker_id() { return scheduler::instance().worker_id(); }
inline void set_active_workers(std::size_t n) {
  scheduler::instance().set_active_workers(n);
}

// Index for per-worker scratch arrays, always < max_worker_slots(). Every
// registered participant has a unique slot; all unregistered threads share
// the final overflow slot — safe, because par_do from an unregistered
// thread runs inline, so at most one unregistered thread (the caller)
// ever executes inside a given parallel region.
inline std::size_t max_worker_slots() {
  return scheduler::instance().max_slots() + 1;
}
inline std::size_t worker_slot() {
  const std::size_t id = scheduler::instance().worker_id();
  return id == scheduler::kNoWorker ? scheduler::instance().max_slots() : id;
}

// Fork-join: run `left` and `right` in parallel, return when both are done.
template <typename Lf, typename Rf>
void par_do(Lf&& left, Rf&& right) {
  scheduler::instance().par_do(std::forward<Lf>(left), std::forward<Rf>(right));
}

// RAII guard for temporarily changing the active worker count (benchmarks).
class active_workers_guard {
 public:
  explicit active_workers_guard(std::size_t n)
      : saved_(num_active_workers()) {
    set_active_workers(n);
  }
  ~active_workers_guard() { set_active_workers(saved_); }

 private:
  std::size_t saved_;
};

// RAII registration of the calling thread as an external worker: its
// par_do forks go onto its own deque (at full parallelism, stealable by
// every participant) instead of running inline-sequentially. No-op if the
// thread is already a worker, or if the slot table is full (registered()
// reports which). The serving layer's query_engine holds one per reader
// thread for the thread's lifetime; short-lived guards are fine too —
// registration is a bounded CAS scan over the free slots.
class worker_guard {
 public:
  worker_guard()
      : was_registered_(scheduler::instance().is_registered()),
        slot_(was_registered_
                  ? scheduler::instance().worker_id()
                  : scheduler::instance().register_external_worker()) {}
  ~worker_guard() {
    if (!was_registered_ && slot_ != scheduler::kNoWorker) {
      scheduler::instance().unregister_external_worker();
    }
  }

  worker_guard(const worker_guard&) = delete;
  worker_guard& operator=(const worker_guard&) = delete;

  bool registered() const { return slot_ != scheduler::kNoWorker; }
  std::size_t slot() const { return slot_; }

 private:
  bool was_registered_;
  std::size_t slot_;
};

}  // namespace parlib
