// Kernel dispatch table: scalar by default, upgraded to AVX2 during static
// initialization when the backend is compiled in (RCP_ENABLE_AVX2) and the
// CPU reports support. The AVX2 entry points themselves live in
// bitops_avx2.cpp — the only translation unit built with -mavx2 and the
// only one allowed to include <immintrin.h> (rcp-lint os-exclusive rule).

#include "core/bitops.hpp"

namespace rcp::core::bitops {

namespace detail {

#if defined(RCP_ENABLE_AVX2)
// Implemented in bitops_avx2.cpp.
std::size_t popcount_words_avx2(const std::uint64_t* words,
                                std::size_t count) noexcept;
void fill_words_avx2(std::uint64_t* words, std::size_t count,
                     std::uint64_t value) noexcept;
void copy_words_avx2(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t count) noexcept;
bool avx2_runtime_supported() noexcept;
#endif

namespace {

struct Dispatch {
  KernelTable table{};  // scalar defaults from the member initializers
  Backend backend = Backend::scalar;

  Dispatch() noexcept {
#if defined(RCP_ENABLE_AVX2)
    if (avx2_runtime_supported()) {
      table.popcount = &popcount_words_avx2;
      table.fill = &fill_words_avx2;
      table.copy = &copy_words_avx2;
      backend = Backend::avx2;
    }
#endif
  }
};

// Function-local static: initialized on first use, so kernels dispatched
// from other translation units' static initializers still see a resolved
// table (no static-init-order dependence).
Dispatch& dispatch() noexcept {
  static Dispatch instance;
  return instance;
}

}  // namespace

const KernelTable& kernels() noexcept { return dispatch().table; }

}  // namespace detail

Backend active_backend() noexcept { return detail::dispatch().backend; }

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::scalar:
      return "scalar";
    case Backend::avx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace rcp::core::bitops
