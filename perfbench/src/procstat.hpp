// CPU time readers: the whole process (getrusage) and each of its threads
// (/proc/self/task/<tid>/stat), so a traced run can split CPU by thread
// role — event loops, the control thread, trial workers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string_view>

namespace perfbench {

/// Process user+system CPU seconds.
[[nodiscard]] double process_cpu_seconds();

/// Process CPU seconds minus the calling thread's own: the CPU of the
/// system under test, read from the benchmark's control thread.
[[nodiscard]] double others_cpu_seconds();

/// utime + stime of one /proc/<pid>/task/<tid>/stat line, in clock ticks.
/// The comm field may hold spaces and parentheses, so fields are counted
/// from the last ')'. Returns nullopt for a malformed line.
[[nodiscard]] std::optional<std::uint64_t> parse_stat_ticks(
    std::string_view line);

/// tid -> CPU seconds for every live thread of this process.
[[nodiscard]] std::map<int, double> thread_cpu_seconds();

/// Calling thread's kernel id.
[[nodiscard]] int current_tid();

/// CPU seconds each tid in `tids` spent between two snapshots (threads
/// absent from `before` count from zero; absent from `after` count zero).
[[nodiscard]] double cpu_delta(const std::map<int, double>& before,
                               const std::map<int, double>& after,
                               const std::set<int>& tids);

}  // namespace perfbench
