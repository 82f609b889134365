#pragma once

// Allocation accounting for the traced run.
//
// alloc_count.cpp replaces the global operator new/delete of the benchmark
// binary with malloc/free wrappers that
//   * count allocations (all threads) while counting is switched on, and
//   * time the allocator itself while the calling thread is inside a
//     CallTimer span, so a span can be reported net of allocator time.
// A layer call that happens to trigger a glibc fastbin consolidation would
// otherwise be charged milliseconds of allocator work it merely set off.
// Both switches are off in the plain run, where the wrappers cost one
// relaxed load and one thread-local read per call.

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench::alloc {

void set_counting(bool on);

/// Allocations counted since the process started (summed over threads).
std::uint64_t count();

namespace detail {
void span_begin();
/// Ends the span and returns the nanoseconds spent inside the allocator.
std::int64_t span_end();
}  // namespace detail

}  // namespace perfbench::alloc

namespace perfbench {

/// Per-call timings of one layer entry point, net of allocator time.
class CallTimer {
 public:
  template <typename F>
  decltype(auto) time(F&& fn) {
    struct Guard {
      CallTimer& timer;
      std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
      ~Guard() {
        const auto end = std::chrono::steady_clock::now();
        const std::int64_t alloc_ns = alloc::detail::span_end();
        const std::int64_t span_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
        timer.self_ns_.push_back(span_ns - alloc_ns);
        timer.alloc_ns_ += alloc_ns;
      }
    };
    alloc::detail::span_begin();
    Guard guard{*this};
    return fn();
  }

  [[nodiscard]] const std::vector<std::int64_t>& self_ns() const { return self_ns_; }
  [[nodiscard]] std::int64_t alloc_ns() const { return alloc_ns_; }

 private:
  std::vector<std::int64_t> self_ns_;
  std::int64_t alloc_ns_ = 0;
};

}  // namespace perfbench
