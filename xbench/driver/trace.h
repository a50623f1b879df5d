#pragma once

// In-memory span recorder for the traced run. A span is one call into a
// layer's public function, timed from the benchmark's side: name
// "<layer>.<call>", start/end, and the span that caused it. Spans are kept
// in memory and written out once, when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace xbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = a root span
    std::string name;          ///< "<layer>.<call>"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t request = 0;  ///< stream window the span served (or 0)
  };

  /// RAII guard: opens a span on construction, closes it on destruction;
  /// spans opened while it lives become its children.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations in seconds of every span with this exact name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Self time per layer: each span's duration minus the part its children
  /// cover, summed by the layer prefix of the name.
  [[nodiscard]] std::map<std::string, double> selfSecondsByLayer() const;

  /// Writes one JSON object per span per line.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the open spans, innermost last
};

/// Opens a span when `tracer` is non-null; a no-op guard otherwise.
#define XBENCH_CONCAT_INNER(a, b) a##b
#define XBENCH_CONCAT(a, b) XBENCH_CONCAT_INNER(a, b)
#define XBENCH_SPAN(tracer, ...) \
  ::xbench::Tracer::Scope XBENCH_CONCAT(xbenchSpan, __LINE__)(tracer, __VA_ARGS__)

}  // namespace xbench
