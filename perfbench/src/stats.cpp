#include "stats.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

template <typename T>
double nearest_rank(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

}  // namespace

double percentile(std::vector<std::int64_t>& v, double p) { return nearest_rank(v, p); }
double percentile(std::vector<double>& v, double p) { return nearest_rank(v, p); }

CpuTimes process_cpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
          static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6};
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
