#pragma once

// Small shared helpers of the benchmark driver: the clock, order statistics,
// peak RSS, and the metric map printed as the final JSON line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace xbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide origin (steady clock).
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Quantile of many short, clock-quantised durations: the mean of the
/// samples within ±1% of rank around q, so the figure is not stuck on one
/// nanosecond tick.
inline double smoothQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const auto pos = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  const std::size_t half = std::max<std::size_t>(1, n / 100);
  const std::size_t lo = pos > half ? pos - half : 0;
  const std::size_t hi = std::min(n - 1, pos + half);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

/// Peak resident set size of this process (VmHWM), in bytes.
inline std::size_t peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// One reported metric: value and unit, printed in name order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Formats a double with all significant digits (round-trippable).
inline std::string fullDigits(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace xbench
