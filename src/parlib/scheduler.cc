#include "parlib/scheduler.h"

#include <chrono>
#include <cstdlib>
#include <string>

namespace parlib {

namespace {

std::size_t& configured_workers() {
  static std::size_t n = 0;  // 0 = not configured, use env / hardware
  return n;
}

std::size_t default_num_workers() {
  if (configured_workers() != 0) return configured_workers();
  if (const char* env = std::getenv("PARLIB_NUM_WORKERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_local std::size_t tls_worker_id = scheduler::kNoWorker;

std::uint64_t mix_rng(std::uint64_t& state) {
  // xorshift64*, good enough for victim selection.
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

}  // namespace

scheduler& scheduler::instance() {
  static scheduler s(default_num_workers());
  return s;
}

void scheduler::set_num_workers(std::size_t n) {
  configured_workers() = n == 0 ? 1 : n;
}

scheduler::scheduler(std::size_t num_workers)
    : num_workers_(num_workers == 0 ? 1 : num_workers),
      active_workers_(num_workers_),
      deques_(new internal::work_deque[num_workers_ + kMaxExternalWorkers]),
      slot_claimed_(
          new std::atomic<bool>[num_workers_ + kMaxExternalWorkers]),
      slot_limit_(num_workers_) {
  for (std::size_t s = 0; s < max_slots(); ++s) {
    slot_claimed_[s].store(s < num_workers_, std::memory_order_relaxed);
  }
  // The constructing thread (normally main, first to touch the scheduler)
  // is worker 0 for the lifetime of the process.
  tls_worker_id = 0;
  threads_.reserve(num_workers_ - 1);
  for (std::size_t id = 1; id < num_workers_; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

scheduler::~scheduler() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    shutting_down_.store(true, std::memory_order_release);
  }
  park_cv_.notify_all();
  active_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t scheduler::worker_id() const { return tls_worker_id; }

std::size_t scheduler::register_external_worker() {
  if (tls_worker_id != kNoWorker) return tls_worker_id;  // already a worker
  for (std::size_t s = num_workers_; s < max_slots(); ++s) {
    bool expected = false;
    if (slot_claimed_[s].compare_exchange_strong(
            expected, true, std::memory_order_acquire,
            std::memory_order_relaxed)) {
      // Publish the slot to thieves before any job can land on it.
      std::size_t limit = slot_limit_.load(std::memory_order_relaxed);
      while (limit < s + 1 &&
             !slot_limit_.compare_exchange_weak(limit, s + 1,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
      }
      tls_worker_id = s;
      external_registrations_.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
  }
  return kNoWorker;  // table full: the caller stays inline-sequential
}

void scheduler::unregister_external_worker() {
  const std::size_t id = tls_worker_id;
  if (id == kNoWorker || id < num_workers_) return;  // native ids persist
  tls_worker_id = kNoWorker;
  // The thread is outside any par_do, so its pushes and pops are balanced
  // and the deque is empty; the release pairs with the next claimer's
  // acquire CAS so it observes the deque's final indices.
  slot_claimed_[id].store(false, std::memory_order_release);
}

void scheduler::set_active_workers(std::size_t n) {
  if (n == 0) n = 1;
  if (n > num_workers_) n = num_workers_;
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    active_workers_.store(n, std::memory_order_relaxed);
  }
  active_cv_.notify_all();
}

void scheduler::worker_loop(std::size_t id) {
  tls_worker_id = id;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (id + 1);
  std::size_t idle_spins = 0;
  auto idle_since = std::chrono::steady_clock::now();
  while (!shutting_down_.load(std::memory_order_acquire)) {
    if (id >= num_active_workers()) {
      // Deactivated (a T(1) measurement): sleep until set_active_workers
      // re-admits this worker, outside the parking places par_do wakes.
      std::unique_lock<std::mutex> lock(park_mu_);
      active_cv_.wait(lock, [this, id] {
        return id < num_active_workers() ||
               shutting_down_.load(std::memory_order_acquire);
      });
      idle_since = std::chrono::steady_clock::now();
      continue;
    }
    if (steal_and_run(rng)) {
      idle_spins = 0;
      idle_since = std::chrono::steady_clock::now();
      continue;
    }
    if (++idle_spins > 64) {
      idle_spins = 0;
      const auto now = std::chrono::steady_clock::now();
      if (now - idle_since < kSpinBeforePark) {
        std::this_thread::yield();
      } else {
        park();
        // Spin again only once this worker has found work; a timeout that
        // found none goes straight back to sleep after one probe round.
        idle_since = std::chrono::steady_clock::now() - kSpinBeforePark;
      }
    }
  }
}

bool scheduler::any_pending_job() const {
  const std::size_t limit = slot_limit_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < limit; ++i) {
    if (deques_[i].size() != 0) return true;
  }
  return false;
}

void scheduler::park() {
  std::unique_lock<std::mutex> lock(park_mu_);
  ++parked_;
  unclaimed_parked_.store(parked_ - wake_permits_, std::memory_order_seq_cst);
  // Re-check after announcing: a job pushed before the announcement became
  // visible to its forker would otherwise wait out the timeout.
  if (!any_pending_job()) {
    parks_.fetch_add(1, std::memory_order_relaxed);
    park_cv_.wait_for(lock, kParkTimeout, [this] {
      return wake_permits_ != 0 ||
             shutting_down_.load(std::memory_order_acquire);
    });
  }
  if (wake_permits_ != 0) --wake_permits_;
  --parked_;
  unclaimed_parked_.store(parked_ - wake_permits_, std::memory_order_relaxed);
}

void scheduler::wake_one() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    if (parked_ == wake_permits_) return;  // every sleeper already woken
    ++wake_permits_;
    unclaimed_parked_.store(parked_ - wake_permits_,
                            std::memory_order_relaxed);
  }
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  park_cv_.notify_one();
}

namespace {

// Run a freshly stolen job on the thief's thread. The thief adopts the
// job's trace id for the duration — any spans, nested forks, or counters
// the stolen subtask emits attribute to the request that forked it, not to
// whatever the thief was doing before — and the steal/run transitions are
// surfaced to the flight-recorder hook with the job's address as the key
// so the exporter can draw a fork→steal flow arrow across threads.
void run_stolen(internal::job* j) {
  const std::uint64_t tid = j->trace_id;
  const std::uint64_t key = reinterpret_cast<std::uint64_t>(j);
  trace::emit_sched_event(trace::sched_event::steal, tid, key);
  trace::trace_id_scope scope(tid);
  // Adopt the forking request's cancellation token too: a stolen subtask
  // of a cancelled query polls its way out just like the owner would.
  cancel::token_scope cscope(j->cancel);
  trace::emit_sched_event(trace::sched_event::run_begin, tid, key);
  j->execute();
  trace::emit_sched_event(trace::sched_event::run_end, tid, key);
  j->done.store(true, std::memory_order_release);
}

}  // namespace

bool scheduler::steal_and_run(std::uint64_t& rng_state) {
  // Victims span every slot ever claimed: native workers *and* registered
  // external threads (an external reader's forks are stealable by anyone).
  // Inactive native slots stay in range — their deques are simply empty.
  const std::size_t limit = slot_limit_.load(std::memory_order_acquire);
  // A couple of random probes, then a linear sweep so that a lone ready job
  // is always found.
  for (std::size_t attempt = 0; attempt < 2; ++attempt) {
    const std::size_t victim = mix_rng(rng_state) % limit;
    if (internal::job* j = deques_[victim].steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      run_stolen(j);
      return true;
    }
  }
  for (std::size_t victim = 0; victim < limit; ++victim) {
    if (internal::job* j = deques_[victim].steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      run_stolen(j);
      return true;
    }
  }
  return false;
}

void scheduler::wait_for(internal::job& j) {
  std::uint64_t rng =
      0xBF58476D1CE4E5B9ULL * (tls_worker_id + 0x9E3779B9ULL);
  std::size_t idle_spins = 0;
  while (!j.done.load(std::memory_order_acquire)) {
    if (!steal_and_run(rng)) {
      if (++idle_spins > 64) {
        std::this_thread::yield();
        idle_spins = 0;
      }
    } else {
      idle_spins = 0;
    }
  }
}

}  // namespace parlib
