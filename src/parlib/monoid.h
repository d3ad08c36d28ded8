// Reduction monoids: an associative combine plus its identity, used by
// reduce/scan and the histogram.
#pragma once

#include <algorithm>
#include <limits>
#include <utility>

namespace parlib {

template <typename T, typename F>
struct monoid {
  using value_type = T;
  T identity;
  F combine;
  monoid(T id, F f) : identity(id), combine(std::move(f)) {}
};

template <typename T, typename F>
monoid<T, F> make_monoid(T identity, F combine) {
  return monoid<T, F>(identity, std::move(combine));
}

template <typename T>
auto plus_monoid() {
  return make_monoid(T{0}, [](T a, T b) { return a + b; });
}

template <typename T>
auto max_monoid() {
  return make_monoid(std::numeric_limits<T>::lowest(),
                     [](T a, T b) { return std::max(a, b); });
}

template <typename T>
auto min_monoid() {
  return make_monoid(std::numeric_limits<T>::max(),
                     [](T a, T b) { return std::min(a, b); });
}

}  // namespace parlib
