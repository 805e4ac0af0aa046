// Binary-wide operator new/delete replacement that counts allocations (see
// allocation_counter.hpp). Kept out of line in its own translation unit so
// no caller ever sees these bodies: inlining the malloc-backed new next to
// a free-backed sized delete is what GCC's -Wmismatched-new-delete flags.
#include "support/allocation_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(align, (size + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace rcp::test {

std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace rcp::test

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, alignment);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
