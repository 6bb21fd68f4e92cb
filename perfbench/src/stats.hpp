// Small helpers shared by the benchmark programs: nearest-rank percentiles
// and this process's CPU time and peak memory. Result lines are built with
// the library's obs::JsonWriter.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 when empty. Reorders v.
double percentile(std::vector<std::int64_t>& v, double p);
double percentile(std::vector<double>& v, double p);

/// CPU time (user, system) of this process so far, in seconds.
struct CpuTimes {
  double user = 0;
  double sys = 0;
};
CpuTimes process_cpu();

/// CPU time (user + system) of this process so far, in seconds, at the
/// clock's nanosecond resolution.
double process_cpu_seconds();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
