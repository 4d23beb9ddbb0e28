// In-memory span and count recorder for the traced run.
//
// Spans are recorded by the benchmark itself around its calls into each
// layer's public functions (nothing inside the library is instrumented).
// A span has a name (the layer), start and end on one steady clock, the span
// that caused it, and the id of the job it belongs to.  Everything stays in
// memory until `writeJsonLines` at the end of the run.  A disabled tracer
// records nothing, so the untraced run pays one branch per boundary.
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
  std::string name;
  std::uint32_t id = 0;      ///< 1-based; 0 = none
  std::uint32_t parent = 0;  ///< causing span, 0 = root
  std::uint64_t job = 0;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
};

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover (overlapping children count once).
std::map<std::string, double> selfTimes(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switches recording on or off (the in-process workloads alternate
  /// traced and untraced passes to measure the tracing overhead).
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// Seconds since construction on the tracer's clock.
  double now() const;

  /// Opens a span and returns its id (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t job,
                      std::uint32_t parent = 0);
  void end(std::uint32_t id);
  /// Records a finished span with explicit times (tracer clock).
  std::uint32_t record(const char* name, std::uint64_t job,
                       std::uint32_t parent, double start, double end);
  void count(const std::string& name, double delta);

  std::vector<Span> spans() const;
  /// One JSON object per line: every span, then every count.
  bool writeJsonLines(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t job,
          std::uint32_t parent = 0)
        : t_(t), id_(t.begin(name, job, parent)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return id_; }

   private:
    Tracer& t_;
    std::uint32_t id_;
  };

 private:
  std::atomic<bool> enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_ and counts_
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

}  // namespace perfbench
