// The heap-allocation counter behind the allocation-contract tests
// (docs/PERF.md): allocation_counter.cpp replaces the global operator new
// and delete, so linking it makes a test binary count every heap
// allocation — plain, array and std::align_val_t forms alike — while
// memory still comes from malloc. Tests snapshot allocations() around the
// path under test and assert on the delta.
#pragma once

#include <cstdint>

namespace rcp::test {

/// Heap allocations made through any global operator new so far.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace rcp::test
