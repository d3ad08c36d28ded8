// Tests for the work-stealing fork-join scheduler: the lock-free
// Chase-Lev deques, external-thread worker registration, the unregistered
// sentinel contract, and their interplay with active_workers_guard. Runs
// in the TSan CI job — the deque orderings use seq_cst accesses at the
// Dekker points precisely so TSan models them exactly.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "parlib/parallel.h"
#include "parlib/scheduler.h"
#include "serve/query.h"
#include "serve/query_engine.h"
#include "serve/snapshot_manager.h"

namespace {

// Force a multi-worker scheduler even on 1-core CI hosts, so the deque
// code paths (push/pop_if/steal) actually execute. Static-initializer
// order within the test binary guarantees this runs before the first
// scheduler::instance() call.
struct force_workers {
  force_workers() { parlib::scheduler::set_num_workers(4); }
};
const force_workers kForceWorkers;

TEST(Scheduler, ReportsConfiguredWorkers) {
  EXPECT_EQ(parlib::num_workers(), 4u);
  EXPECT_GE(parlib::num_active_workers(), 1u);
  EXPECT_LE(parlib::num_active_workers(), parlib::num_workers());
  EXPECT_EQ(parlib::scheduler::instance().max_slots(),
            4u + parlib::scheduler::kMaxExternalWorkers);
}

TEST(Scheduler, MainThreadIsWorkerZero) {
  EXPECT_EQ(parlib::worker_id(), 0u);
  EXPECT_TRUE(parlib::scheduler::instance().is_registered());
  EXPECT_EQ(parlib::worker_slot(), 0u);
}

TEST(Scheduler, ParDoRunsBothBranches) {
  int a = 0, b = 0;
  parlib::par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, ParDoNestedCompletesAll) {
  std::atomic<int> count{0};
  parlib::par_do(
      [&] {
        parlib::par_do([&] { count++; }, [&] { count++; });
      },
      [&] {
        parlib::par_do([&] { count++; }, [&] { count++; });
      });
  EXPECT_EQ(count.load(), 4);
}

// Fibonacci via fork-join: a classic stress test of nested par_do with many
// joins, some of which are stolen.
std::uint64_t fib(int n) {
  if (n < 2) return n;
  std::uint64_t a = 0, b = 0;
  parlib::par_do_if(n > 12, [&] { a = fib(n - 1); }, [&] { b = fib(n - 2); });
  if (n <= 12) {
    a = fib(n - 1);
    b = fib(n - 2);
    return a + b;
  }
  return a + b;
}

TEST(Scheduler, ForkJoinFibonacci) { EXPECT_EQ(fib(28), 317811u); }

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parlib::parallel_for(0, n, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Scheduler, ParallelForEmptyAndSingleton) {
  std::atomic<int> count{0};
  parlib::parallel_for(5, 5, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parlib::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    count++;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(Scheduler, ParallelForExplicitGranularity) {
  const std::size_t n = 4097;
  std::vector<int> hits(n, 0);
  parlib::parallel_for(0, n, [&](std::size_t i) { hits[i]++; }, 13);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
}

TEST(Scheduler, ActiveWorkersGuardRestores) {
  const std::size_t before = parlib::num_active_workers();
  {
    parlib::active_workers_guard g(1);
    EXPECT_EQ(parlib::num_active_workers(), 1u);
    // Sequential mode still computes correctly (non-atomic sum is safe:
    // with one active worker par_do runs inline on this thread).
    std::vector<int> v(1000, 1);
    int sum = 0;
    parlib::parallel_for(0, v.size(), [&](std::size_t i) { sum += v[i]; });
    EXPECT_EQ(sum, 1000);
  }
  EXPECT_EQ(parlib::num_active_workers(), before);
}

// Polls `pred` for up to five seconds; the parking tests wait on worker
// threads that a loaded host may schedule late.
template <typename Pred>
bool eventually(Pred pred) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Two-iteration parallel_for whose first iteration (run by the forking
// thread) waits until another thread has run the second. It completes only
// if some worker steals the pushed job, so it proves a worker is awake.
bool second_iteration_stolen() {
  std::atomic<bool> second_done{false};
  std::atomic<bool> stolen{false};
  const auto forker = std::this_thread::get_id();
  parlib::parallel_for(
      0, 2,
      [&](std::size_t i) {
        if (i == 1) {
          stolen.store(std::this_thread::get_id() != forker);
          second_done.store(true);
          return;
        }
        eventually([&] { return second_done.load(); });
      },
      1);
  return stolen.load();
}

TEST(Scheduler, IdleWorkersParkAndAForkWakesOne) {
  auto& sched = parlib::scheduler::instance();
  const std::size_t sleepers = sched.num_workers() - 1;
  const std::uint64_t parks_before = sched.parks();
  // Idle well past the spin phase: every native worker parks. They may all
  // have parked before parks_before was read; a parked worker re-parks after
  // each timeout, so the count still moves.
  ASSERT_TRUE(eventually([&] { return sched.parked_workers() == sleepers; }));
  EXPECT_TRUE(eventually([&] { return sched.parks() > parks_before; }));
  const std::uint64_t wakeups_before = sched.wakeups();
  EXPECT_TRUE(second_iteration_stolen());
  EXPECT_GT(sched.wakeups(), wakeups_before);
}

TEST(Scheduler, ReactivatedWorkersStealAgain) {
  auto& sched = parlib::scheduler::instance();
  {
    parlib::active_workers_guard g(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Deactivated workers wait outside the parking places; restoring the
  // count must bring them back without any fork to wake them.
  ASSERT_TRUE(eventually([&] {
    return sched.parked_workers() == sched.num_workers() - 1;
  }));
  EXPECT_TRUE(second_iteration_stolen());
}

TEST(Scheduler, SkewedWorkIsBalanced) {
  // A loop where one iteration is vastly more expensive must still finish.
  const std::size_t n = 64;
  std::vector<std::uint64_t> out(n);
  parlib::parallel_for(
      0, n,
      [&](std::size_t i) {
        std::uint64_t acc = 0;
        const std::size_t reps = (i == 0) ? 2000000 : 100;
        for (std::size_t r = 0; r < reps; ++r) acc += r * r + i;
        out[i] = acc;
      },
      1);
  EXPECT_GT(out[0], out[1]);
}

// ---- external-worker registration -----------------------------------------

TEST(Scheduler, UnregisteredThreadHasSentinelIdAndRunsInline) {
  std::size_t id = 0;
  std::size_t slot = 0;
  bool registered = true;
  std::uint64_t fallback_delta = 0;
  int sum = 0;
  // Touch the scheduler here first, so the thread below is not bound as
  // worker 0 when this test runs alone.
  auto& sched = parlib::scheduler::instance();
  std::thread th([&] {
    const std::uint64_t before = sched.unregistered_pardos();
    id = parlib::worker_id();
    slot = parlib::worker_slot();
    registered = parlib::scheduler::instance().is_registered();
    // par_do from an unregistered thread runs inline-sequentially, so a
    // non-atomic accumulator is safe by contract.
    parlib::par_do([&] { sum += 1; }, [&] { sum += 2; });
    parlib::parallel_for(0, 100, [&](std::size_t) { sum += 1; });
    fallback_delta = sched.unregistered_pardos() - before;
  });
  th.join();
  EXPECT_EQ(id, parlib::scheduler::kNoWorker);
  EXPECT_FALSE(registered);
  // Unregistered threads share the final overflow slot.
  EXPECT_EQ(slot, parlib::scheduler::instance().max_slots());
  EXPECT_LT(slot, parlib::max_worker_slots());
  EXPECT_EQ(sum, 103);
  EXPECT_GE(fallback_delta, 1u);  // at least the bare par_do was counted
}

TEST(Scheduler, WorkerGuardClaimsAndReleasesExternalSlot) {
  auto& sched = parlib::scheduler::instance();
  std::size_t slot1 = 0, slot2 = 0;
  std::thread th([&] {
    {
      parlib::worker_guard g;
      ASSERT_TRUE(g.registered());
      slot1 = g.slot();
      EXPECT_EQ(parlib::worker_id(), slot1);
      EXPECT_GE(slot1, sched.num_workers());
      EXPECT_LT(slot1, sched.max_slots());
    }
    EXPECT_EQ(parlib::worker_id(), parlib::scheduler::kNoWorker);
    {
      // Freed slots are reusable (same thread, fresh guard).
      parlib::worker_guard g;
      ASSERT_TRUE(g.registered());
      slot2 = g.slot();
    }
  });
  th.join();
  EXPECT_GE(slot2, sched.num_workers());
}

TEST(Scheduler, WorkerGuardIsNoOpOnNativeWorker) {
  // Main thread is worker 0; a guard must not unregister it.
  {
    parlib::worker_guard g;
    EXPECT_TRUE(g.registered());
    EXPECT_EQ(g.slot(), 0u);
  }
  EXPECT_EQ(parlib::worker_id(), 0u);
  EXPECT_TRUE(parlib::scheduler::instance().is_registered());
}

TEST(Scheduler, ExternalForksLandOnOwnDequeNotDequeZero) {
  auto& sched = parlib::scheduler::instance();
  const std::uint64_t deque0_before = sched.push_count(0);
  std::uint64_t own_delta = 0;
  std::size_t slot = 0;
  std::vector<std::atomic<int>> hits(20000);
  std::thread th([&] {
    parlib::worker_guard g;
    ASSERT_TRUE(g.registered());
    slot = g.slot();
    const std::uint64_t own_before = sched.push_count(slot);
    parlib::parallel_for(0, hits.size(),
                         [&](std::size_t i) { hits[i]++; }, 1);
    own_delta = sched.push_count(slot) - own_before;
  });
  th.join();
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  // The registered thread forked onto its own deque; the main thread
  // (worker 0) was idle, so deque 0 saw none of these forks.
  EXPECT_GT(own_delta, 0u);
  EXPECT_EQ(sched.push_count(0), deque0_before);
}

TEST(Scheduler, NestedParDoUnderConcurrentExternalWorkers) {
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> fibs(kThreads, 0);
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      parlib::worker_guard g;
      fibs[t] = fib(24);
      std::vector<std::uint64_t> v(50000);
      parlib::parallel_for(0, v.size(),
                           [&](std::size_t i) { v[i] = i; });
      std::uint64_t s = 0;
      for (auto x : v) s += x;
      sums[t] = s;
    });
  }
  // The main thread works too — native and external forks interleave.
  const std::uint64_t main_fib = fib(24);
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fibs[t], 46368u);
    EXPECT_EQ(sums[t], 50000ull * 49999 / 2);
  }
  EXPECT_EQ(main_fib, 46368u);
}

TEST(Scheduler, RegistrationChurnUnderLoad) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 100;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        parlib::worker_guard g;
        ASSERT_TRUE(g.registered());
        std::uint64_t local = 0;
        parlib::parallel_for(
            0, 256, [&](std::size_t i) { local += i; }, 256);
        total.fetch_add(local, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), std::uint64_t{kThreads} * kRounds * 255 * 128);
}

TEST(Scheduler, ActiveWorkersGuardForcesExternalWorkersInline) {
  parlib::active_workers_guard guard(1);
  auto& sched = parlib::scheduler::instance();
  std::uint64_t own_delta = 1;
  int sum = 0;
  std::thread th([&] {
    parlib::worker_guard g;
    ASSERT_TRUE(g.registered());
    const std::uint64_t before = sched.push_count(g.slot());
    // active == 1: par_do inlines for external workers too, so nothing is
    // pushed and the non-atomic accumulator is safe.
    parlib::parallel_for(0, 1000, [&](std::size_t) { ++sum; });
    own_delta = sched.push_count(g.slot()) - before;
  });
  th.join();
  EXPECT_EQ(sum, 1000);
  EXPECT_EQ(own_delta, 0u);
}

// ---- Chase-Lev deque ------------------------------------------------------

struct count_job final : parlib::internal::job {
  std::atomic<std::uint64_t>* counter = nullptr;
  void execute() override {
    counter->fetch_add(1, std::memory_order_relaxed);
  }
};

// The last-element race: an owner push/pop_if loop against hammering
// thieves. Every job must execute exactly once — either the owner's
// pop_if wins the CAS and runs it, or a thief does and sets done.
TEST(WorkDeque, LastElementRaceExecutesEachJobExactlyOnce) {
  parlib::internal::work_deque dq;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<bool> stop{false};
  constexpr std::uint64_t kRounds = 100000;

  std::vector<std::thread> thieves;
  for (int t = 0; t < 2; ++t) {
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (parlib::internal::job* j = dq.steal()) {
          j->execute();
          j->done.store(true, std::memory_order_release);
        }
      }
    });
  }

  std::uint64_t owner_pops = 0;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    count_job cj;
    cj.counter = &executed;
    ASSERT_TRUE(dq.push(&cj));
    if (dq.pop_if(&cj)) {
      cj.execute();
      ++owner_pops;
    } else {
      while (!cj.done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  EXPECT_EQ(executed.load(), kRounds);
  // Sanity: the counter moved through both paths on most hosts; only the
  // exact total is a hard guarantee.
  EXPECT_LE(owner_pops, kRounds);
}

TEST(WorkDeque, OverflowRefusesPushAndLifoPopsRecover) {
  parlib::internal::work_deque dq;
  std::atomic<std::uint64_t> executed{0};
  std::vector<count_job> jobs(parlib::internal::work_deque::kCapacity + 1);
  for (auto& j : jobs) j.counter = &executed;
  for (std::size_t i = 0; i < parlib::internal::work_deque::kCapacity;
       ++i) {
    ASSERT_TRUE(dq.push(&jobs[i])) << i;
  }
  EXPECT_FALSE(dq.push(&jobs.back()));  // full: overflow fallback
  // LIFO drain: each pop_if must match the most recent push.
  for (std::size_t i = parlib::internal::work_deque::kCapacity; i-- > 0;) {
    ASSERT_TRUE(dq.pop_if(&jobs[i])) << i;
  }
  EXPECT_FALSE(dq.pop_if(&jobs[0]));  // empty
}

TEST(WorkDeque, PopIfLeavesOuterFramesJobInPlace) {
  parlib::internal::work_deque dq;
  std::atomic<std::uint64_t> executed{0};
  count_job outer, inner;
  outer.counter = inner.counter = &executed;
  ASSERT_TRUE(dq.push(&outer));
  // Inner frame's job was "stolen" (never pushed); its pop_if must not
  // disturb the outer frame's job.
  EXPECT_FALSE(dq.pop_if(&inner));
  EXPECT_TRUE(dq.pop_if(&outer));
}

// The serving-layer acceptance check: reader threads of a query_engine
// register with the scheduler, so analytics-internal forks land on
// per-reader deques — counted into the engine's reader forks — while deque 0
// (the idle main thread) sees none of them.
TEST(Scheduler, QueryEngineReaderForksLandOnReaderDeques) {
  using gbbs::vertex_id;
  // Star graph: BFS from the hub has an (n-1)-vertex frontier, so the
  // query's edge_map genuinely forks (a path graph's 1-vertex frontiers
  // would not).
  const vertex_id n = 20000;
  gbbs::serve::snapshot_manager<gbbs::empty_weight> mgr(n);
  std::vector<gbbs::dynamic::update<gbbs::empty_weight>> ups;
  ups.reserve(n - 1);
  for (vertex_id u = 1; u < n; ++u) {
    ups.push_back({0, u, {}, gbbs::dynamic::update_op::insert});
  }
  mgr.ingest(std::move(ups));
  mgr.publish();

  auto& sched = parlib::scheduler::instance();
  const auto registry_forks = [] {
    for (const auto& [name, v] :
         gbbs::obs::registry::global().read().counters) {
      if (name == "sched.reader_forks") return v;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t reader_forks_before = registry_forks();
  const std::uint64_t registrations_before = sched.external_registrations();
  std::uint64_t deque0_before = 0;
  std::uint64_t engine_forks = 0;
  {
    gbbs::serve::query_engine<gbbs::empty_weight> engine(
        mgr.store(), &mgr.overlay(), /*num_readers=*/4);
    // From here the main thread only blocks on futures: any deque-0
    // pushes below would be misrouted reader forks.
    deque0_before = sched.push_count(0);
    std::vector<std::future<gbbs::serve::query_result>> futs;
    for (int i = 0; i < 8; ++i) {
      futs.push_back(engine.submit(
          {gbbs::serve::query_kind::bfs_distance, 0, n - 1}));
    }
    for (auto& f : futs) {
      EXPECT_EQ(f.get().value, 1u);  // hub -> leaf
    }
    engine_forks = engine.reader_forks();
    // At least the reader(s) that executed these queries registered
    // (asserting all 4 would race reader-thread startup).
    EXPECT_GE(sched.external_registrations(), registrations_before + 1);
  }
  EXPECT_GT(engine_forks, 0u);
  EXPECT_EQ(registry_forks(), reader_forks_before + engine_forks);
  EXPECT_EQ(sched.push_count(0), deque0_before);
}

TEST(WorkDeque, StealObservesPushedJob) {
  parlib::internal::work_deque dq;
  std::atomic<std::uint64_t> executed{0};
  count_job cj;
  cj.counter = &executed;
  ASSERT_TRUE(dq.push(&cj));
  std::atomic<bool> stolen{false};
  std::thread thief([&] {
    while (!stolen.load(std::memory_order_acquire)) {
      if (parlib::internal::job* j = dq.steal()) {
        j->execute();
        stolen.store(true, std::memory_order_release);
      }
    }
  });
  thief.join();
  EXPECT_EQ(executed.load(), 1u);
  EXPECT_FALSE(dq.pop_if(&cj));  // it is gone
}

}  // namespace
