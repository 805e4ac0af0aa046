#include "procstat.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double others_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return process_cpu_seconds() - (static_cast<double>(ts.tv_sec) +
                                  static_cast<double>(ts.tv_nsec) * 1e-9);
}

std::optional<std::uint64_t> parse_stat_ticks(std::string_view line) {
  const std::size_t close = line.rfind(')');
  if (close == std::string_view::npos) {
    return std::nullopt;
  }
  // After ") " come field 3 (state) onwards; utime and stime are fields
  // 14 and 15, i.e. the 12th and 13th tokens after the comm.
  std::string_view rest = line.substr(close + 1);
  std::uint64_t ticks = 0;
  int field = 2;
  int parsed = 0;
  while (!rest.empty() && parsed < 2) {
    const std::size_t start = rest.find_first_not_of(' ');
    if (start == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(start);
    const std::size_t end = rest.find(' ');
    const std::string_view token = rest.substr(0, end);
    ++field;
    if (field == 14 || field == 15) {
      std::uint64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec != std::errc{} || ptr != token.data() + token.size()) {
        return std::nullopt;
      }
      ticks += v;
      ++parsed;
    }
    rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  }
  if (parsed != 2) {
    return std::nullopt;
  }
  return ticks;
}

std::map<int, double> thread_cpu_seconds() {
  std::map<int, double> out;
  const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(entry.path() / "stat");
    const std::string line((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::optional<std::uint64_t> ticks = parse_stat_ticks(line);
    if (!ticks.has_value()) {
      continue;
    }
    int tid = 0;
    const std::string name = entry.path().filename().string();
    std::from_chars(name.data(), name.data() + name.size(), tid);
    out[tid] = static_cast<double>(*ticks) * tick;
  }
  return out;
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

double cpu_delta(const std::map<int, double>& before,
                 const std::map<int, double>& after,
                 const std::set<int>& tids) {
  double total = 0.0;
  for (const int tid : tids) {
    const auto a = after.find(tid);
    if (a == after.end()) {
      continue;
    }
    const auto b = before.find(tid);
    total += a->second - (b == before.end() ? 0.0 : b->second);
  }
  return total;
}

}  // namespace perfbench
