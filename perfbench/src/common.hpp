// Shared pieces of the benchmark: the clock, quantiles, the span tracer,
// and the result record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One recorded span: a call into a layer's public function, made by the
/// benchmark. `parent` is the index of the enclosing span (-1 at a root);
/// spans of one solve or request share `request`.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder. Disabled tracers record nothing, so the same
/// code path runs with and without tracing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  /// Pauses or resumes recording (warm-up passes are not traced).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Opens a span under the one this thread has open.
  int open(std::string name, std::uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard lock(mutex_);
    int& current = current_locked();
    spans_.push_back({std::move(name), now(), 0.0, current, request});
    current = static_cast<int>(spans_.size()) - 1;
    return current;
  }

  void close(int id) {
    if (id < 0) return;
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ms = now();
    current_locked() = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// The span this thread has open (-1 for none).
  int current() {
    std::lock_guard lock(mutex_);
    return current_locked();
  }
  /// Makes `parent`, opened on another thread, this thread's open span, so
  /// a worker's spans nest under the span that started the work.
  void adopt(int parent) {
    std::lock_guard lock(mutex_);
    current_locked() = parent;
  }

  /// Records a finished span measured elsewhere (e.g. a serve request,
  /// which starts on the submitter and ends on a server thread).
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request) {
    if (!enabled_) return;
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), ms_between(origin_, start),
                      ms_between(origin_, end), -1, request});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name: the list of durations, in ms.
  std::map<std::string, std::vector<double>> durations() const;
  /// Writes every span as one JSON array to `path`.
  bool write(const std::string& path) const;

 private:
  double now() const { return ms_between(origin_, Clock::now()); }
  int& current_locked() {
    return current_.try_emplace(std::this_thread::get_id(), -1).first->second;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::mutex mutex_;  // guards spans_ and current_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> current_;  // open span per thread
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.open(std::move(name), request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Set-up time of a workload's long-lived objects. The constructor makes
/// one untimed construction (the process's own lazy start-up is not
/// set-up); sample() then times `per_sample` constructions, and workloads
/// call it between their operations, so the samples are spread over the
/// whole run instead of resting on its first moments. seconds() is a low
/// quantile of all samples: a construction is a few ms of allocation-heavy
/// work that a busy moment of the machine easily doubles, and its quiet
/// moments are what repeats between runs.
class SetupClock {
 public:
  /// The reported quantile of the samples.
  static constexpr double kQuantile = 0.1;

  SetupClock(std::function<void()> make, std::size_t per_sample)
      : make_(std::move(make)), per_sample_(per_sample) {
    make_();
  }

  void sample() {
    for (std::size_t i = 0; i < per_sample_; ++i) {
      const Clock::time_point t0 = Clock::now();
      make_();
      seconds_.push_back(ms_between(t0, Clock::now()) * 1e-3);
    }
  }

  double seconds() const { return quantile(seconds_, kQuantile); }
  const std::vector<double>& samples() const noexcept { return seconds_; }

 private:
  std::function<void()> make_;
  std::size_t per_sample_;
  std::vector<double> seconds_;
};

/// What one workload run produced. `metrics` holds every end-to-end metric
/// (untraced run) or every per-layer metric (traced run); `report` holds
/// human-readable detail lines (sample counts, quartiles, flags).
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> report;
  std::vector<std::string> errors;  // first few correctness failures

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    if (errors.size() < 10) errors.push_back(why);
  }
  void note(std::string line) { report.push_back(std::move(line)); }
};

/// Sets setup_s from `clock`, with a report line on its samples.
void set_setup(RunResult& r, const SetupClock& clock, const std::string& what);

/// "name: median q1..q3 (n=N) unit" summary of one sample.
std::string describe(const std::string& name, const std::vector<double>& v,
                     const std::string& unit);

}  // namespace perfbench
