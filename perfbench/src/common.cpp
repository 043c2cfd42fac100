#include "common.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::map<std::string, std::vector<double>> Tracer::durations() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) out[s.name].push_back(s.end_ms - s.start_ms);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,"
                  "\"request\":%llu}",
                  s.start_ms, s.end_ms, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":" << quote(s.name)
        << buf;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

void set_setup(RunResult& r, const SetupClock& clock, const std::string& what) {
  r.set("setup_s", clock.seconds(), "s");
  char buf[96];
  std::snprintf(buf, sizeof buf, "; setup_s is their %.0fth percentile, %.6f s",
                SetupClock::kQuantile * 100.0, clock.seconds());
  r.note(describe("setup_s samples (" + what + ")", clock.samples(), "s") + buf);
}

std::string describe(const std::string& name, const std::vector<double>& v,
                     const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: median %.4f  q1 %.4f  q3 %.4f  (n=%zu) %s",
                name.c_str(), quantile(v, 0.5), quantile(v, 0.25),
                quantile(v, 0.75), v.size(), unit.c_str());
  return buf;
}

}  // namespace perfbench
