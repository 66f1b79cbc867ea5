// Minimal deterministic fork-join parallelism for the simulation core.
//
// The hot loops in this codebase (Floyd-Warshall bands, per-query
// experiment batches) are embarrassingly parallel over an index range,
// with every iteration writing to disjoint storage. ParallelFor covers
// exactly that shape: static contiguous chunking over std::thread, no
// work stealing, no shared mutable state. Determinism is the caller's
// contract — iterations must not depend on execution order — and every
// call site here pairs it with per-index RNG streams or disjoint
// output slots so that results are bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/error.h"

namespace np::util {

/// Maps the user-facing thread knob to a worker count: 0 means "use
/// the hardware" (hardware_concurrency, at least 1), anything else is
/// taken literally. Negative values are a caller bug.
inline int ResolveThreadCount(int requested) {
  NP_ENSURE(requested >= 0, "thread count must be >= 0");
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Runs fn(i) for every i in [begin, end), split into at most
/// `num_threads` contiguous chunks (0 = hardware_concurrency). Runs
/// inline when one worker suffices. Exceptions thrown by fn are
/// rethrown in the calling thread (the first worker's, by index).
///
/// fn must be safe to call concurrently for distinct i and must not
/// depend on the order iterations execute in.
inline void ParallelFor(std::size_t begin, std::size_t end, int num_threads,
                        const std::function<void(std::size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  const std::size_t total = end - begin;
  std::size_t workers =
      static_cast<std::size_t>(ResolveThreadCount(num_threads));
  if (workers > total) {
    workers = total;
  }
  if (workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }

  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const std::size_t chunk = (total + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = lo + chunk < end ? lo + chunk : end;
    if (lo >= hi) {
      break;
    }
    threads.emplace_back([lo, hi, w, &fn, &errors] {
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

/// Serial, index-ordered sum over per-index slots — the blessed
/// floating-point reduction for parallel regions (determinism contract
/// rule 5, np_lint NPL005). Accumulating into a shared double inside a
/// ParallelFor body is both a data race and an order-dependent sum;
/// writing slots[i] and reducing here is bit-identical for any thread
/// count.
inline double DeterministicSum(const std::vector<double>& slots) {
  double total = 0.0;
  for (double v : slots) {
    total += v;
  }
  return total;
}

}  // namespace np::util
