// Sample statistics for the benchmark's reports.
//
// Tail percentiles follow one rule: a percentile is reported only when at
// least kMinBeyond samples lie strictly beyond it (nearest-rank selection),
// so a "p99" always rests on >= 10 slower observations. A sample too small
// for the requested quantile falls back to the highest rank that still has
// kMinBeyond samples beyond it, and the caller learns that it did.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index of quantile q in a sorted sample of `count`.
[[nodiscard]] inline std::size_t rank_index(std::size_t count,
                                            double q) noexcept {
  if (count == 0) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(count));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, count) - 1;
}

/// Samples strictly beyond the nearest-rank quantile q.
[[nodiscard]] inline std::size_t beyond(std::size_t count, double q) noexcept {
  return count == 0 ? 0 : count - 1 - rank_index(count, q);
}

/// True when quantile q of `count` samples has >= kMinBeyond beyond it.
[[nodiscard]] inline bool supported(std::size_t count, double q) noexcept {
  return beyond(count, q) >= kMinBeyond;
}

struct Quantile {
  double value = 0.0;
  /// False when the sample could not support q and the highest supported
  /// rank was used instead.
  bool exact = true;
};

/// Quantile q of `v` (reordered in place). Empty samples give 0.
[[nodiscard]] inline Quantile select_quantile(std::vector<double>& v,
                                              double q) {
  if (v.empty()) {
    return {0.0, false};
  }
  Quantile out;
  std::size_t idx = rank_index(v.size(), q);
  if (!supported(v.size(), q)) {
    out.exact = false;
    idx = v.size() > kMinBeyond ? v.size() - 1 - kMinBeyond : 0;
    idx = std::min(idx, rank_index(v.size(), q));
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  out.value = v[idx];
  return out;
}

/// Median (the 0.5 nearest-rank quantile, which needs no tail support).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t idx = rank_index(v.size(), 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Quantile q computed per slice, then the median across the slices that
/// support q. Slicing a steady window and taking the median keeps one
/// scheduler hiccup from owning the run's tail. Slices that cannot
/// support q are skipped; when none can, the whole sample is used.
[[nodiscard]] inline Quantile sliced_quantile(
    std::vector<std::vector<double>>& slices, double q) {
  std::vector<double> per_slice;
  for (std::vector<double>& s : slices) {
    if (supported(s.size(), q)) {
      per_slice.push_back(select_quantile(s, q).value);
    }
  }
  if (!per_slice.empty()) {
    return {median(std::move(per_slice)), true};
  }
  std::vector<double> all;
  for (const std::vector<double>& s : slices) {
    all.insert(all.end(), s.begin(), s.end());
  }
  return select_quantile(all, q);
}

/// Process CPU time read at one instant of a run.
struct Snapshot {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
};

struct SliceRates {
  double per_s = 0.0;             ///< median events per second
  double cpu_us_per_event = 0.0;  ///< median process CPU per event
};

/// Cuts a run at consecutive snapshots and reports the median, across the
/// slices that saw at least one event, of each slice's event rate and CPU
/// per event. Events are timestamps on the snapshots' clock.
[[nodiscard]] inline SliceRates sliced_rates(const std::vector<Snapshot>& snaps,
                                             std::vector<std::int64_t> events) {
  std::sort(events.begin(), events.end());
  std::vector<double> rates, cpu;
  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
    const auto lo = std::lower_bound(events.begin(), events.end(),
                                     snaps[i].t_ns);
    const auto hi = std::lower_bound(lo, events.end(), snaps[i + 1].t_ns);
    const auto count = static_cast<double>(hi - lo);
    const double dt = static_cast<double>(snaps[i + 1].t_ns - snaps[i].t_ns) *
                      1e-9;
    if (count == 0.0 || dt <= 0.0) {
      continue;
    }
    rates.push_back(count / dt);
    cpu.push_back((snaps[i + 1].cpu_s - snaps[i].cpu_s) * 1e6 / count);
  }
  return {median(std::move(rates)), median(std::move(cpu))};
}

}  // namespace perfbench
