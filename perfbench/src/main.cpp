// nck_perfbench: runs one benchmark workload and prints its result.
//
//   nck_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --config perfbench/workloads.json --inputs perfbench/inputs
//                 [--spans <file>] [--git-sha <sha>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// untraced, the per-layer metrics when traced. The lines before it are the
// machine envelope and the human-readable report.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "nck_perfbench: " << why
            << "\nusage: nck_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --config <workloads.json> "
               "--inputs <dir> [--spans <file>] [--git-sha <sha>]\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string config_path;
  std::string spans_path;
  std::string git_sha = "unknown";
  int trace = -1;
  if (argc % 2 == 0) return usage("arguments come in pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    else if (key == "--config") config_path = value;
    else if (key == "--inputs") o.inputs_dir = value;
    else if (key == "--spans") spans_path = value;
    else if (key == "--git-sha") git_sha = value;
    else return usage("unknown argument " + key);
  }
  if (o.workload.empty() || trace < 0 || config_path.empty() ||
      o.inputs_dir.empty() || !(o.seconds > 0.0)) {
    return usage("missing or invalid argument");
  }
  o.trace = trace == 1;

  Json config;
  try {
    std::ifstream in(config_path);
    if (!in) return usage("cannot read " + config_path);
    std::stringstream text;
    text << in.rdbuf();
    config = parse_json(text.str());
  } catch (const std::exception& e) {
    std::cerr << "nck_perfbench: " << config_path << ": " << e.what() << "\n";
    return 1;
  }
  const Json* entry = config.at("workloads").find(o.workload);
  if (entry == nullptr) return usage("unknown workload " + o.workload);
  o.config = entry;

  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::cout << "envelope: {\"workload\":" << quote(o.workload)
            << ",\"seed\":" << o.seed << ",\"seconds\":" << number(o.seconds)
            << ",\"trace\":" << trace
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"omp_num_threads\":" << quote(omp ? omp : "unset")
            << ",\"build_type\":" << quote(NCK_BUILD_TYPE)
            << ",\"compiler\":" << quote(NCK_COMPILER)
            << ",\"z3\":" << (NCK_WITH_Z3_BUILD ? "true" : "false")
            << ",\"git_sha\":" << quote(git_sha)
            << ",\"setup_per_sample\":" << entry->at("setup_per_sample").num()
            << "}"
            << std::endl;

  Tracer tracer(o.trace);
  RunResult r;
  try {
    if (o.workload == "serve-hot") r = run_serve_hot(o, tracer);
    else if (o.workload == "batch-cold") r = run_batch_cold(o, tracer);
    else if (o.workload == "qaoa-sweep") r = run_qaoa_sweep(o, tracer);
    else if (o.workload == "decompose-large") r = run_decompose_large(o, tracer);
    else return usage("workload without a runner: " + o.workload);
  } catch (const std::exception& e) {
    std::cerr << "nck_perfbench: " << o.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (o.trace && !spans_path.empty() && !tracer.write(spans_path)) {
    std::cerr << "nck_perfbench: cannot write " << spans_path << "\n";
    return 1;
  }

  // Reported, not a metric: how many malloc arenas the worker threads
  // create depends on their timing, and moves the peak by up to a third
  // between runs of the same code.
  r.note("peak_rss_mb: " + number(peak_rss_mb()) + " MB");
  for (const std::string& line : r.report) std::cout << "  " << line << "\n";
  for (const std::string& e : r.errors) std::cout << "  ERROR " << e << "\n";
  std::cout << "  error_rate: "
            << number(r.attempted ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 0.0)
            << " (" << r.failed << " of " << r.attempted << " operations)\n";
  std::cout << "{\"correct\":" << (r.correct ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::cout << (first ? "" : ",") << quote(name) << ":{\"value\":"
              << number(value.first) << ",\"unit\":" << quote(value.second)
              << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
