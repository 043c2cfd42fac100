// serve-hot: an in-process serve::Server driven open-loop by one submitter
// thread at a fixed ladder of offered rates, after a warm-up pass that
// fills the plan cache. Each request is timed from when it was due.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "core/parse.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "runtime/solver.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "walk.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct OpKind {
  std::string op;       // solve | lint | simplify
  std::string backend;  // solve only
  double weight = 0.0;
};

struct Request {
  std::size_t kind = 0;
  std::size_t input = 0;
  std::string line;
  Clock::time_point due{};
  Clock::time_point sent{};
};

struct Response {
  Clock::time_point at;
  std::string line;
};

/// Collects server responses; the sink only copies the line and stamps it.
class Collector {
 public:
  nck::serve::Server::Sink sink() {
    return [this](const std::string& line) {
      const Clock::time_point now = Clock::now();
      std::lock_guard lock(mutex_);
      responses_.push_back({now, line});
      cv_.notify_all();
    };
  }
  std::size_t count() {
    std::lock_guard lock(mutex_);
    return responses_.size();
  }
  /// Waits until `n` responses arrived in total; false on timeout.
  bool wait_for(std::size_t n, double timeout_s) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return responses_.size() >= n; });
  }
  std::vector<Response> take() {
    std::lock_guard lock(mutex_);
    return std::exchange(responses_, {});
  }

 private:
  std::mutex mutex_;  // guards responses_
  std::condition_variable cv_;
  std::vector<Response> responses_;
};

/// Outcome of checking one phase's responses against its requests.
struct PhaseCheck {
  std::vector<double> latency_ms;  // from due time, every request
  std::vector<double> queue_ms;    // solve responses' queue_ms
  std::vector<double> service_ms;  // solve responses' wall_ms
  std::vector<double> late_ms;     // generator lateness
  double bytes = 0.0;
  std::size_t solves = 0;
  std::size_t optimal = 0;
};

class ServeHot {
 public:
  ServeHot(const RunOptions& o, Tracer& tracer)
      : o_(o), c_(*o.config), tracer_(tracer), rng_(o.seed ^ 0x5E12'7E5Eull) {
    for (const Json& p : c_.at("programs").array) {
      inputs_.push_back(program_input(o.inputs_dir + "/" + p.str()));
    }
    for (Input& in : family_inputs(c_.at("families"), o.seed)) {
      inputs_.push_back(std::move(in));
    }
    double total = 0.0;
    for (const Json& m : c_.at("mix").array) {
      OpKind k;
      k.op = m.at("op").str();
      if (const Json* b = m.find("backend")) k.backend = b->str();
      k.weight = m.at("weight").num();
      total += k.weight;
      kinds_.push_back(k);
    }
    for (OpKind& k : kinds_) k.weight /= total;
    options_.num_workers = static_cast<std::size_t>(c_.at("workers").num());
    options_.queue_depth = static_cast<std::size_t>(c_.at("queue_depth").num());
    reads_ = static_cast<std::size_t>(c_.at("reads").num());
  }

  RunResult run();

 private:
  std::string line_for(std::uint64_t id, const OpKind& k, const Input& in) const {
    std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" + k.op +
                       "\",\"program\":" + quote(in.text);
    if (k.op == "solve") {
      line += ",\"backend\":\"" + k.backend + "\"";
      if (k.backend == "annealer") line += ",\"reads\":" + std::to_string(reads_);
    }
    return line + "}";
  }

  std::size_t add_request(std::size_t kind, std::size_t input) {
    Request req;
    req.kind = kind;
    req.input = input;
    req.line = line_for(requests_.size(), kinds_[kind], inputs_[input]);
    requests_.push_back(std::move(req));
    return requests_.size() - 1;
  }

  /// The (kind, program) pairs of a window of `n` requests: every window
  /// holds the mix in exact proportions, each kind spread evenly over the
  /// programs, in a seeded order. Windows then carry the same work, and a
  /// window's figures do not depend on how a random draw fell.
  std::vector<std::pair<std::size_t, std::size_t>> window(std::size_t n) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      const auto m = static_cast<std::size_t>(
          kinds_[k].weight * static_cast<double>(n) + 0.5);
      const std::size_t offset = rng_.below(inputs_.size());
      for (std::size_t i = 0; i < m && out.size() < n; ++i) {
        out.emplace_back(k, (offset + i) % inputs_.size());
      }
    }
    while (out.size() < n) out.emplace_back(0, rng_.below(inputs_.size()));
    rng_.shuffle(out);
    return out;
  }

  /// Open loop at `rps` for `seconds`: requests are due every 1/rps s and
  /// sent when due, whatever the server is doing. Returns the ids sent.
  std::vector<std::size_t> open_loop(nck::serve::Server& server, double rps,
                                     double seconds, bool traced,
                                     std::size_t* backlog_at_end);
  /// Completions per bin while the server was saturated at `ids`' rate
  /// (from when the backlog reached saturation_start_backlog to the last
  /// send); fails the run if the backlog emptied in that span, since the
  /// count would then be the offered rate, not capacity.
  std::vector<double> saturated_bins(const std::vector<std::size_t>& ids,
                                     double bin_ms, RunResult& r);
  /// Waits for every response of `ids` and checks them.
  PhaseCheck finish(const std::vector<std::size_t>& ids, RunResult& r);
  void check(const Request& req, const Response& resp, PhaseCheck& pc,
             RunResult& r);

  const RunOptions& o_;
  const Json& c_;
  Tracer& tracer_;
  nck::Rng rng_;
  std::vector<Input> inputs_;
  std::vector<OpKind> kinds_;
  nck::serve::ServerOptions options_;
  std::size_t reads_ = 10;
  std::vector<Request> requests_;
  Collector collector_;
  std::size_t expected_ = 0;  // responses owed by the server so far
  std::map<std::size_t, Clock::time_point> done_at_;  // id -> response time
};

std::vector<std::size_t> ServeHot::open_loop(nck::serve::Server& server,
                                             double rps, double seconds,
                                             bool traced,
                                             std::size_t* backlog_at_end) {
  const auto n = static_cast<std::size_t>(rps * seconds);
  std::vector<std::size_t> ids;
  ids.reserve(n);
  for (const auto& [kind, input] : window(n)) {
    ids.push_back(add_request(kind, input));
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration<double>(1.0 / rps);
  for (std::size_t i = 0; i < n; ++i) {
    Request& req = requests_[ids[i]];
    req.due = start + std::chrono::duration_cast<Clock::duration>(
                          period * static_cast<double>(i));
    std::this_thread::sleep_until(req.due);
    req.sent = Clock::now();
    if (traced) {
      Scope s(tracer_, "serve.parse_request", ids[i]);
      nck::serve::Request parsed;
      std::string why;
      nck::serve::parse_request(req.line, parsed, why);
    }
    server.submit_line(req.line);
  }
  expected_ += n;
  *backlog_at_end = expected_ - collector_.count();
  return ids;
}

void ServeHot::check(const Request& req, const Response& resp, PhaseCheck& pc,
                     RunResult& r) {
  const OpKind& kind = kinds_[req.kind];
  const Input& in = inputs_[req.input];
  Json j;
  try {
    j = parse_json(resp.line);
  } catch (const std::exception& e) {
    r.fail(std::string("invalid JSON response: ") + e.what());
    return;
  }
  try {
    if (!j.at("ok").boolean) {
      r.fail("request failed: " + resp.line.substr(0, 200));
      return;
    }
    if (j.at("op").str() != kind.op) {
      r.fail("op mismatch on id " + std::to_string(&req - requests_.data()));
      return;
    }
    if (kind.op == "solve") {
      const Json& res = j.at("result");
      if (res.at("ran").type != Json::Type::kBool || !res.at("ran").boolean) {
        r.fail(in.label + ": solve did not run");
        return;
      }
      std::map<std::string, bool> values;
      for (const auto& [name, v] : res.at("assignment").object) {
        if (v.type != Json::Type::kBool) throw std::runtime_error("non-bool");
        values[name] = v.boolean;
      }
      std::vector<bool> bits;
      if (!assignment_from_names(in, values, bits)) {
        r.fail(in.label + ": assignment does not cover the program");
        return;
      }
      const Verdict v = classify(in, bits);
      if (v == Verdict::kWrong || res.at("quality").str() != verdict_name(v)) {
        r.fail(in.label + ": reported " + res.at("quality").str() +
               ", independent check says " + verdict_name(v));
        return;
      }
      ++pc.solves;
      if (v == Verdict::kOptimal) ++pc.optimal;
      pc.queue_ms.push_back(res.at("queue_ms").num());
      pc.service_ms.push_back(res.at("wall_ms").num());
    } else if (kind.op == "lint") {
      if (j.at("report").type != Json::Type::kObject) {
        throw std::runtime_error("lint report is not an object");
      }
    } else {
      const Json& s = j.at("simplify");
      if (s.at("rejected").boolean || s.at("reduced_vars").num() >
                                          s.at("original_vars").num()) {
        r.fail(in.label + ": simplify rejected or grew the program");
        return;
      }
    }
  } catch (const std::exception& e) {
    r.fail(in.label + ": malformed " + kind.op + " response (" + e.what() + ")");
  }
}

PhaseCheck ServeHot::finish(const std::vector<std::size_t>& ids, RunResult& r) {
  PhaseCheck pc;
  if (!collector_.wait_for(expected_, 120.0)) {
    r.fail("responses missing after 120 s");
  }
  std::vector<Response> responses = collector_.take();
  expected_ -= responses.size();
  std::map<std::size_t, const Response*> by_id;
  for (const Response& resp : responses) {
    // The id is the first member of every response line.
    std::size_t id = 0;
    if (std::sscanf(resp.line.c_str(), "{\"id\":%zu", &id) != 1 ||
        id >= requests_.size() || !by_id.emplace(id, &resp).second) {
      r.fail("response with unknown or repeated id: " + resp.line.substr(0, 80));
      continue;
    }
  }
  for (const std::size_t id : ids) {
    ++r.attempted;
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      r.fail("no response for id " + std::to_string(id));
      continue;
    }
    const Request& req = requests_[id];
    const Response& resp = *it->second;
    const std::size_t failed_before = r.failed;
    check(req, resp, pc, r);
    if (r.failed != failed_before) continue;
    pc.latency_ms.push_back(ms_between(req.due, resp.at));
    done_at_[id] = resp.at;

    pc.late_ms.push_back(ms_between(req.due, req.sent));
    pc.bytes += static_cast<double>(resp.line.size());
    if (tracer_.enabled()) tracer_.record("serve.request", req.sent, resp.at, id);
  }
  return pc;
}

std::vector<double> ServeHot::saturated_bins(const std::vector<std::size_t>& ids,
                                             double bin_ms, RunResult& r) {
  std::vector<Clock::time_point> sent, done;
  for (const std::size_t id : ids) {
    sent.push_back(requests_[id].sent);
    if (const auto it = done_at_.find(id); it != done_at_.end()) {
      done.push_back(it->second);  // failed responses are counted elsewhere
    }
  }
  std::sort(sent.begin(), sent.end());
  std::sort(done.begin(), done.end());
  // Backlog (sent, not yet answered) right after each completion.
  std::vector<std::size_t> backlog(done.size());
  std::size_t sent_by = 0;
  for (std::size_t k = 0; k < done.size(); ++k) {
    while (sent_by < sent.size() && sent[sent_by] <= done[k]) ++sent_by;
    backlog[k] = sent_by - std::min(sent_by, k + 1);
  }
  // Counting starts once the backlog has built up to `start_backlog`
  // (early on, a few fast requests can still empty a small one) and ends
  // at the last send, after which it only drains.
  const auto start_backlog =
      static_cast<std::size_t>(c_.at("saturation_start_backlog").num());
  std::size_t first = 0;
  while (first < done.size() && backlog[first] < start_backlog) ++first;
  const double span =
      first < done.size() ? ms_between(done[first], sent.back()) : 0.0;
  std::vector<double> per_bin(span > 0.0 ? static_cast<std::size_t>(span / bin_ms) : 0,
                              0.0);
  std::size_t min_backlog = SIZE_MAX;
  for (std::size_t k = first; k < done.size() && !per_bin.empty(); ++k) {
    const double at = ms_between(done[first], done[k]);
    if (at >= bin_ms * static_cast<double>(per_bin.size())) break;
    min_backlog = std::min(min_backlog, backlog[k]);
    per_bin[std::min(static_cast<std::size_t>(at / bin_ms), per_bin.size() - 1)] += 1.0;
  }
  if (per_bin.empty() || min_backlog == 0) {
    r.fail("saturation window: the backlog emptied while completions were "
           "counted, so they do not measure capacity");
  }
  r.note("saturation: " + std::to_string(per_bin.size()) +
         " bins counted; smallest backlog after a counted completion " +
         std::to_string(min_backlog == SIZE_MAX ? 0 : min_backlog) + " requests");
  return per_bin;
}

RunResult ServeHot::run() {
  RunResult r;
  // Set-up: a Server whose workers build their Solvers (device calibration)
  // on their own threads, so it lasts until the server answers a
  // one-variable probe. Each sample is a separate server, made while the
  // measured one is idle.
  const std::string probe =
      "{\"id\":0,\"op\":\"solve\",\"program\":\"nck({a},{1})\"}";
  Collector setup_answers;
  SetupClock setup(
      [&] {
        nck::serve::Server server(options_, setup_answers.sink());
        server.submit_line(probe);
        if (!setup_answers.wait_for(1, 60.0)) r.fail("server never answered the probe");
        const std::vector<Response> answer = setup_answers.take();
        if (answer.empty() ||
            answer.front().line.find("\"ok\":true") == std::string::npos) {
          r.fail("set-up probe failed");
        }
      },
      static_cast<std::size_t>(c_.at("setup_per_sample").num()));
  setup.sample();
  nck::serve::Server server(options_, collector_.sink());

  // Warm-up: every (op, program) pair once, closed loop, so the plan cache
  // holds every plan before timing starts.
  std::size_t backlog = 0;
  std::vector<std::size_t> warm;
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      warm.push_back(add_request(k, i));
      server.submit_line(requests_[warm.back()].line);
      ++expected_;
      collector_.wait_for(expected_, 120.0);
    }
  }
  finish(warm, r);
  // Then an untimed open-loop window at the reference rate, so the first
  // timed window does not pay the process's remaining start-up.
  const std::vector<std::size_t> warm_window =
      open_loop(server, c_.at("reference_rps").num(),
                c_.at("warmup_seconds").num(), false, &backlog);
  finish(warm_window, r);
  r.note("warm-up: " + std::to_string(warm.size()) + " requests over " +
         std::to_string(inputs_.size()) + " programs, then " +
         std::to_string(warm_window.size()) + " at the reference rate");
  setup.sample();

  const double reference = c_.at("reference_rps").num();
  const double slo = c_.at("slo_p99_ms").num();
  const double late_limit = c_.at("generator_late_limit_ms").num();
  const double scale = o_.seconds / c_.at("nominal_seconds").num();

  if (!o_.trace) {
    std::size_t solves = 0;
    std::size_t optimal = 0;
    const double saturation = c_.at("saturation_rps").num();
    const double bin_ms = c_.at("capacity_bin_ms").num();
    std::map<double, double> window_seconds;  // rung rps -> window length
    for (const Json& rung : c_.at("ladder").array) {
      window_seconds[rung.at("rps").num()] = rung.at("seconds").num() * scale;
    }
    // Windows run in the schedule's order, each with the backlog drained
    // before the next. The reference rate's windows are spread over the
    // run, so a slow stretch of the machine reaches few of them. A rung's
    // quantiles are taken over the pooled requests of its windows where the
    // generator kept to its schedule; a late window is reported and left
    // out. Pooling puts some 15 requests above the reference p99, where a
    // single window holds 3 or 4. With three or more on-time windows, the
    // one with the highest p99 is left out too, so that one disturbed
    // window cannot carry the pooled tail.
    struct Rung {
      std::vector<std::vector<double>> on_time;  // latencies per window
      std::size_t windows = 0;
      std::size_t late = 0;
      std::size_t worst_backlog = 0;
    };
    std::map<double, Rung> rungs;
    std::vector<double> per_bin;  // completions per bin at saturation
    for (const Json& step : c_.at("schedule").array) {
      const double rps = step.num();
      Rung& rung = rungs[rps];
      ++rung.windows;
      const std::vector<std::size_t> ids =
          open_loop(server, rps, window_seconds.at(rps), false, &backlog);
      rung.worst_backlog = std::max(rung.worst_backlog, backlog);
      const PhaseCheck pc = finish(ids, r);
      solves += pc.solves;
      optimal += pc.optimal;
      const double late = quantile(pc.late_ms, 0.99);
      const bool on_time = late <= late_limit;
      if (on_time) {
        rung.on_time.push_back(pc.latency_ms);
      } else {
        ++rung.late;
      }
      char buf[240];
      std::snprintf(buf, sizeof buf,
                    "%.0f rps window %zu: n=%zu p50 %.3f ms p99 %.3f ms "
                    "(%zu beyond p99), backlog %zu, generator p99 late %.3f ms%s",
                    rps, rung.windows, ids.size(), quantile(pc.latency_ms, 0.5),
                    quantile(pc.latency_ms, 0.99), ids.size() / 100, backlog,
                    late, on_time ? "" : " (LATE: left out)");
      r.note(buf);
      if (rps == saturation) {
        const std::vector<double> bins = saturated_bins(ids, bin_ms, r);
        per_bin.insert(per_bin.end(), bins.begin(), bins.end());
      }
      setup.sample();
    }
    const double capacity = quantile(per_bin, 0.5) * 1e3 / bin_ms;
    r.set("solves_per_s", capacity, "1/s");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "capacity: %.1f requests/s completed at an offered %.0f rps "
                  "(median of %zu bins of %.0f ms over its windows)",
                  capacity, saturation, per_bin.size(), bin_ms);
    r.note(buf);

    // A rung's pooled latencies and the number of windows they come from.
    const auto pooled = [](const Rung& rung) {
      using Window = const std::vector<double>*;
      std::vector<Window> kept;
      for (const std::vector<double>& w : rung.on_time) kept.push_back(&w);
      if (kept.size() >= 3) {
        kept.erase(std::max_element(kept.begin(), kept.end(), [](Window a, Window b) {
          return quantile(*a, 0.99) < quantile(*b, 0.99);
        }));
      }
      std::vector<double> out;
      for (Window w : kept) out.insert(out.end(), w->begin(), w->end());
      return std::make_pair(out, kept.size());
    };
    double max_rps = 0.0;
    for (const auto& [rps, rung] : rungs) {
      const std::vector<double> latency_ms = pooled(rung).first;
      const bool growing =
          static_cast<double>(rung.worst_backlog) >
          rps * slo * 1e-3 + static_cast<double>(options_.num_workers);
      if (!latency_ms.empty() && !growing && quantile(latency_ms, 0.99) <= slo) {
        max_rps = std::max(max_rps, rps);
      }
      if (rung.late > 0) {
        r.note("rung " + std::to_string(static_cast<int>(rps)) + " rps: " +
               std::to_string(rung.late) + " of " + std::to_string(rung.windows) +
               " windows left out: generator p99 lateness above " +
               std::to_string(static_cast<int>(late_limit)) + " ms");
      }
    }
    const auto [ref_ms, ref_kept] = pooled(rungs[reference]);
    if (ref_ms.empty()) {
      r.fail("generator fell behind in every reference-rate window; "
             "latency not measured");
    }
    r.set("latency_p50_ms", quantile(ref_ms, 0.5), "ms");
    r.set("latency_p99_ms", quantile(ref_ms, 0.99), "ms");
    std::snprintf(buf, sizeof buf,
                  "reference-rate latency pooled over %zu of %zu windows (late "
                  "ones and, of three or more, the highest p99 left out): "
                  "p50 %.3f ms, p99 %.3f ms, n=%zu",
                  ref_kept, rungs[reference].windows, quantile(ref_ms, 0.5),
                  quantile(ref_ms, 0.99), ref_ms.size());
    r.note(buf);
    set_setup(r, setup, "Server with " + std::to_string(options_.num_workers) +
                            " workers, until it answers a probe");
    r.set("optimal_rate",
          solves ? static_cast<double>(optimal) / static_cast<double>(solves) : 0.0,
          "frac");
    std::snprintf(buf, sizeof buf,
                  "max_rps_within_slo: %.0f rps (pooled p99 of on-time windows <= "
                  "%.0f ms, no growing backlog)",
                  max_rps, slo);
    r.note(buf);
    r.note("device_ms_per_solve: not in serve responses; the traced run's "
           "anneal.modeled_device_ms gives it per solve");
    return r;
  }

  // Traced run: the reference rate untraced, then traced, then the layer
  // walk of every program against the same warm state.
  const double secs = o_.seconds / 2.0;
  const auto phase_ms = [&](const std::vector<std::size_t>& ids) {
    Clock::time_point last = requests_[ids.front()].due;
    for (const std::size_t id : ids) {
      if (const auto it = done_at_.find(id); it != done_at_.end()) {
        last = std::max(last, it->second);
      }
    }
    return ms_between(requests_[ids.front()].due, last);
  };
  tracer_.set_enabled(false);
  const std::vector<std::size_t> plain_ids =
      open_loop(server, reference, secs, false, &backlog);
  finish(plain_ids, r);
  tracer_.set_enabled(true);
  const nck::backend::PlanCacheStats before = server.plan_cache().stats();
  const std::vector<std::size_t> traced_ids =
      open_loop(server, reference, secs, true, &backlog);
  const PhaseCheck traced = finish(traced_ids, r);
  nck::backend::PlanCacheStats cache = server.plan_cache().stats();
  cache.hits -= before.hits;
  cache.misses -= before.misses;
  const nck::serve::ServerStats stats = server.stats();

  nck::AnnealBackendOptions anneal = options_.annealer;
  anneal.sampler.num_reads = reads_;
  tracer_.set_enabled(false);
  Walk walk(tracer_, options_.seed, anneal, options_.circuit);
  std::unique_ptr<nck::Solver> solver;
  tracer_.set_enabled(true);
  {
    Scope s(tracer_, "runtime.solver_ctor", 0);
    solver = std::make_unique<nck::Solver>(options_.seed);
  }
  solver->annealer_options() = anneal;
  const std::vector<nck::BackendKind> backends = {nck::BackendKind::kAnnealer,
                                                  nck::BackendKind::kClassical};
  std::uint64_t request = requests_.size();
  std::vector<nck::obs::TraceData> real;
  double walk_wall_ms = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    tracer_.set_enabled(pass > 0);  // pass 0 warms both caches
    for (const Input& in : inputs_) {
      for (const nck::BackendKind b : backends) {
        ++request;
        nck::Env env;
        {
          Scope s(tracer_, "core.parse", request);
          env = nck::parse_program(in.text);
        }
        const nck::SolveReport rep = solver->solve(env, b);
        const Clock::time_point t0 = Clock::now();
        const WalkResult wr = walk.solve(env, b, request);
        if (pass > 0) {
          walk_wall_ms += ms_between(t0, Clock::now());
          real.push_back(rep.trace);
        }
        ++r.attempted;
        if (!rep.ran || !wr.ran ||
            classify(in, rep.best_assignment) == Verdict::kWrong ||
            classify(in, wr.best) == Verdict::kWrong) {
          r.fail(in.label + ": walk or solve failed");
        }
      }
    }
  }

  set_layer_metrics(r, tracer_, walk, cache, real);
  r.set("serve.service_ms", quantile(traced.service_ms, 0.5), "ms");
  r.set("serve.response_bytes",
        traced.latency_ms.empty()
            ? 0.0
            : traced.bytes / static_cast<double>(traced.latency_ms.size()),
        "bytes");
  r.set("serve.queue_wait_p50_ms", quantile(traced.queue_ms, 0.5), "ms");
  r.set("serve.queue_wait_p99_ms", quantile(traced.queue_ms, 0.99), "ms");
  r.set("serve.shed", static_cast<double>(stats.shed), "count");
  r.set("serve.deadline_expired", static_cast<double>(stats.rejected_deadline),
        "count");
  r.set("serve.worker_stuck", static_cast<double>(stats.worker_stuck), "count");
  r.set("serve.generator_late_ms", quantile(traced.late_ms, 0.99), "ms");
  // The traced phase has the same schedule as the untraced one, so its
  // extra wall is the layer walk's.
  r.set("obs.tracing_overhead_frac",
        overhead_frac(phase_ms(traced_ids) + walk_wall_ms, phase_ms(plain_ids)),
        "frac");
  r.note(describe("traced reference-rate latency", traced.latency_ms, "ms"));
  return r;
}

}  // namespace

RunResult run_serve_hot(const RunOptions& options, Tracer& tracer) {
  return ServeHot(options, tracer).run();
}

}  // namespace perfbench
