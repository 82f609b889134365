#include "alloc_count.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

// One padded counter per thread slot: worker threads never share a cache
// line, and a slot outlives the thread that used it.
constexpr unsigned kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
std::atomic<bool> g_counting{false};

thread_local unsigned t_slot = kSlots;
thread_local bool t_in_span = false;
thread_local std::int64_t t_span_alloc_ns = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void note_alloc() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == kSlots) t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[t_slot].allocs.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  note_alloc();
  if (size == 0) size = 1;
  void* p = nullptr;
  if (t_in_span) {
    const auto start = now_ns();
    p = std::malloc(size);
    t_span_alloc_ns += now_ns() - start;
  } else {
    p = std::malloc(size);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void deallocate(void* p) noexcept {
  if (t_in_span) {
    const auto start = now_ns();
    std::free(p);
    t_span_alloc_ns += now_ns() - start;
  } else {
    std::free(p);
  }
}

}  // namespace

void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

std::uint64_t count() {
  std::uint64_t total = 0;
  for (const auto& slot : g_slots) total += slot.allocs.load(std::memory_order_relaxed);
  return total;
}

namespace detail {
void span_begin() {
  t_span_alloc_ns = 0;
  t_in_span = true;
}

std::int64_t span_end() {
  t_in_span = false;
  return t_span_alloc_ns;
}
}  // namespace detail

}  // namespace perfbench::alloc

void* operator new(std::size_t size) { return perfbench::alloc::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::alloc::allocate(size); }
void operator delete(void* p) noexcept { perfbench::alloc::deallocate(p); }
void operator delete[](void* p) noexcept { perfbench::alloc::deallocate(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::alloc::deallocate(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::alloc::deallocate(p); }
