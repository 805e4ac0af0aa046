#include "net/fault.hpp"

#include "common/error.hpp"

namespace rcp::net {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed), fired_(plan_.disconnects.size()) {
  RCP_EXPECT(plan_.link.delay_min_ms <= plan_.link.delay_max_ms,
             "delay_min_ms must not exceed delay_max_ms");
  RCP_EXPECT(plan_.link.drop_probability >= 0.0 &&
                 plan_.link.drop_probability < 1.0,
             "drop_probability must be in [0, 1)");
}

bool FaultInjector::should_drop() {
  return plan_.link.drop_probability > 0.0 &&
         rng_.bernoulli(plan_.link.drop_probability);
}

std::uint32_t FaultInjector::delay_ms() {
  if (plan_.link.delay_max_ms == 0) {
    return 0;
  }
  return static_cast<std::uint32_t>(
      rng_.range(plan_.link.delay_min_ms, plan_.link.delay_max_ms));
}

}  // namespace rcp::net
