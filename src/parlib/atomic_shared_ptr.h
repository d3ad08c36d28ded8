// A std::shared_ptr that many threads load and replace concurrently: a
// one-byte spinlock around a plain shared_ptr.
//
// It stands in for std::atomic<std::shared_ptr<T>>. libstdc++ 12 builds that
// type on a lock bit too, but its load() drops the bit with a relaxed store
// after copying the pointer (shared_ptr_atomic.h), so the reader's copy does
// not happen-before the next writer's swap: a data race in the C++ memory
// model, which ThreadSanitizer reports. Here every operation takes the lock
// with acquire and drops it with release, so each load is ordered against
// each store, and a store that has returned is seen by every later load.
//
// The critical section is one pointer copy (a reference-count increment)
// or one pointer swap. A displaced value is released after the lock is
// dropped, so no destructor ever runs under it.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

namespace parlib {

template <typename T>
class atomic_shared_ptr {
 public:
  atomic_shared_ptr() = default;
  atomic_shared_ptr(const atomic_shared_ptr&) = delete;
  atomic_shared_ptr& operator=(const atomic_shared_ptr&) = delete;

  std::shared_ptr<T> load() const {
    guard g(locked_);
    return ptr_;
  }

  void store(std::shared_ptr<T> p) { exchange(std::move(p)); }

  // Install p; returns the value it replaced.
  std::shared_ptr<T> exchange(std::shared_ptr<T> p) {
    {
      guard g(locked_);
      ptr_.swap(p);
    }
    return p;
  }

  // Install `desired` iff the cell still holds `expected`'s pointer.
  bool compare_exchange(const std::shared_ptr<T>& expected,
                        std::shared_ptr<T> desired) {
    {
      guard g(locked_);
      if (ptr_ != expected) return false;
      ptr_.swap(desired);
    }
    return true;  // `desired` now holds the old value, released here
  }

 private:
  class guard {
   public:
    explicit guard(std::atomic<bool>& l) : l_(l) {
      while (l_.exchange(true, std::memory_order_acquire)) {
        while (l_.load(std::memory_order_relaxed)) std::this_thread::yield();
      }
    }
    ~guard() { l_.store(false, std::memory_order_release); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

   private:
    std::atomic<bool>& l_;
  };

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<T> ptr_;
};

}  // namespace parlib
