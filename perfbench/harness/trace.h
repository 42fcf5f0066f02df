/// \file trace.h
/// \brief In-memory spans recorded by the benchmark around its calls into
/// the program's modules.
///
/// A span has a name `<layer>.<call>` (the layer is the `src/` module the
/// call enters: xml, storage, vpbn, query, server; `bench` marks the
/// benchmark's own root spans), start and end times, the span that caused
/// it, and the request it belongs to. Spans stay in memory until the run
/// ends. A layer's self time is its spans' durations minus the part of
/// each span's interval that its child spans cover.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string "<layer>.<call>"
  uint64_t id = 0;        ///< 1-based; 0 means "no span"
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe span store. Recording can be switched on and off at run
/// time so one run can alternate traced and untraced work.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Reserves an id for a span when it opens (0 when disabled), so its
  /// children can name it as parent; the span is added by Finish.
  uint64_t Reserve();
  void Finish(uint64_t id, const char* name, uint64_t parent,
              uint64_t request, int64_t start_ns, int64_t end_ns);

  std::vector<Span> spans() const;

  /// Writes every span as one JSON object per line. False on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Monotonic nanoseconds for span timestamps.
int64_t NowNs();

/// Times one call. Always measures elapsed time (the benchmark's timings
/// come from here, traced or not); records a span only when the tracer is
/// enabled. Children created while it is open pass id() as their parent.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint64_t parent = 0);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

  /// Ends the span (once) and returns its duration in milliseconds.
  double Stop();

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_ = 0;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it. Indexed like \p spans.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans);

/// Self time summed per layer (the name before the first '.'), in ms.
std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans);

}  // namespace perfbench
