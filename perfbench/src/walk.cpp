#include "walk.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>

#include "analysis/reduce/reduce.hpp"
#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/sampler.hpp"
#include "backend/fingerprint.hpp"
#include "circuit/coupling.hpp"
#include "core/compile.hpp"
#include "decompose/decompose.hpp"
#include "qubo/ising.hpp"
#include "runtime/backends.hpp"

namespace perfbench {
namespace {

using nck::backend::Fingerprint;
using nck::backend::PlanPtr;

/// A memoized stage result stored in the walk's plan cache.
template <class T>
struct Memo final : nck::backend::Plan {
  T value;
  std::size_t bytes() const noexcept override { return sizeof(Memo); }
};

struct Presolved {
  nck::ReduceResult result;
  nck::ReductionVerdict verdict;
};

struct AnnealMemo final : nck::backend::Plan {
  nck::AnnealPrepared prepared;
  std::size_t bytes() const noexcept override { return prepared.bytes(); }
};

struct CircuitMemo final : nck::backend::Plan {
  nck::CircuitPrepared prepared;
  std::size_t bytes() const noexcept override { return prepared.bytes(); }
};

Fingerprint stage_key(const char* stage, const nck::Env& env) {
  Fingerprint key;
  key.mix(std::string("perfbench.") + stage);
  nck::backend::mix_env(key, env);
  return key;
}

/// Looks `key` up in `cache`, computing and inserting on a miss.
template <class P, class F>
std::shared_ptr<const P> memo(nck::backend::PlanCache& cache,
                              const Fingerprint& key, F&& compute) {
  if (PlanPtr hit = cache.find(key)) {
    return std::static_pointer_cast<const P>(hit);
  }
  std::shared_ptr<const P> made = compute();
  if (made) cache.insert(key, made);
  return made;
}

}  // namespace

void WalkStats::merge(const WalkStats& o) {
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  compiles += o.compiles;
  qubo_vars += o.qubo_vars;
  ancillas += o.ancillas;
  presolve_vars_in += o.presolve_vars_in;
  presolve_vars_removed += o.presolve_vars_removed;
  embed_attempts += o.embed_attempts;
  embed_ok += o.embed_ok;
  append(qubits_used, o.qubits_used);
  append(max_chain_length, o.max_chain_length);
  chain_breaks += o.chain_breaks;
  chain_slots += o.chain_slots;
  spin_updates += o.spin_updates;
  append(anneal_device_ms, o.anneal_device_ms);
  append(circuit_depth, o.circuit_depth);
  append(swap_count, o.swap_count);
  append(circuit_device_ms, o.circuit_device_ms);
  statevector_runs += o.statevector_runs;
  amplitude_updates += o.amplitude_updates;
}

Walk::Walk(Tracer& tracer, std::uint64_t seed,
           const nck::AnnealBackendOptions& anneal,
           const nck::CircuitBackendOptions& circuit,
           std::shared_ptr<nck::backend::PlanCache> cache)
    : tracer_(tracer),
      seed_(seed),
      rng_(seed),
      coupling_(nck::brooklyn_coupling()),
      anneal_(anneal),
      circuit_(circuit),
      cache_(cache ? std::move(cache)
                   : std::make_shared<nck::backend::PlanCache>()) {
  {
    Scope s(tracer_, "anneal.calibrate", 0);
    nck::Rng device_rng(seed ^ 0xD3071CEull);  // the Solver's calibration seed
    device_ = nck::advantage_4_1(device_rng);
  }
  nck::register_builtin_backends(registry_, &anneal_, &device_, &circuit_,
                                 &coupling_);
  engine_.set_shared_cache(&cache_->synth_cache());
}

void Walk::run_pool(std::size_t tasks, std::size_t threads,
                    const std::function<void(Walk&, std::size_t)>& task) {
  const int parent = tracer_.current();
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards the merge into this walk
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) return;
      Walk walk(tracer_, seed_, anneal_, circuit_, cache_);
      task(walk, i);
      const nck::SynthEngineStats st = walk.synth_stats();
      std::lock_guard lock(mutex);
      stats_.merge(walk.stats_);
      pool_synth_.requests += st.requests;
      pool_synth_.cache_hits += st.cache_hits;
      pool_synth_.shared_hits += st.shared_hits;
      pool_synth_.builtin_hits += st.builtin_hits;
      pool_synth_.z3_calls += st.z3_calls;
      pool_synth_.lp_calls += st.lp_calls;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::min(threads, tasks); ++t) {
    pool.emplace_back([&] {
      tracer_.adopt(parent);
      work();
      tracer_.adopt(-1);
    });
  }
  work();  // the calling thread is one of the workers
  for (std::thread& t : pool) t.join();
}

nck::SynthEngineStats Walk::synth_stats() const {
  nck::SynthEngineStats st = engine_.stats();
  st.requests += pool_synth_.requests;
  st.cache_hits += pool_synth_.cache_hits;
  st.shared_hits += pool_synth_.shared_hits;
  st.builtin_hits += pool_synth_.builtin_hits;
  st.z3_calls += pool_synth_.z3_calls;
  st.lp_calls += pool_synth_.lp_calls;
  return st;
}

WalkResult Walk::solve(const nck::Env& env, nck::BackendKind backend,
                       std::uint64_t request, std::size_t truth_max_vars) {
  Scope root(tracer_, "runtime.walk", request);
  WalkResult out;

  std::shared_ptr<const Memo<Presolved>> pres;
  {
    Scope s(tracer_, "analysis.presolve", request);
    pres = memo<Memo<Presolved>>(*cache_, stage_key("presolve", env), [&] {
      auto m = std::make_shared<Memo<Presolved>>();
      m->value.result = nck::reduce_program(env);
      m->value.verdict = nck::verify_reduction(env, m->value.result);
      return m;
    });
  }
  const nck::ReduceResult& red = pres->value.result;
  const bool reduced = red.changed() && !red.proved_unsat &&
                       !(pres->value.verdict.checked && !pres->value.verdict.ok);
  const nck::Env& work = reduced ? red.reduced : env;
  stats_.presolve_vars_in += static_cast<double>(env.num_vars());
  stats_.presolve_vars_removed +=
      static_cast<double>(env.num_vars() - work.num_vars());
  const auto lift = [&](const std::vector<bool>& bits) {
    return reduced ? red.trace.lift(bits) : bits;
  };
  const auto lift_truth = [&](nck::GroundTruth t) {
    if (reduced && t.feasible) t.best_soft_satisfied += red.trace.soft_always_satisfied;
    return t;
  };

  if (reduced && work.num_constraints() == 0) {
    out.ran = true;
    out.best = lift(std::vector<bool>(work.num_vars(), false));
    out.truth = {true, red.trace.soft_always_satisfied};
    return out;
  }

  {
    Scope s(tracer_, "synth.synthesize", request);
    for (const nck::Constraint& c : work.constraints()) {
      engine_.synthesize(c.pattern());
    }
  }

  const nck::backend::Backend& be = *registry_.find(backend);
  nck::AnalysisReport analysis;
  {
    Scope s(tracer_, "analysis.analyze", request);
    analysis = analyzer_.analyze(work, engine_, be.analysis_target());
  }
  if (analysis.has_errors()) return out;

  if (work.num_vars() > truth_max_vars) {
    out.truth_exact = false;
  } else {
    Scope s(tracer_, "classical.truth", request);
    out.truth = memo<Memo<nck::GroundTruth>>(
                    *cache_, stage_key("truth", work), [&] {
                      auto m = std::make_shared<Memo<nck::GroundTruth>>();
                      m->value = nck::ground_truth(work);
                      return m;
                    })
                    ->value;
    if (!out.truth.feasible) return out;
  }

  nck::backend::PrepareContext pctx;
  pctx.env = &work;
  pctx.engine = &engine_;
  pctx.device = &device_;
  pctx.key = be.plan_key(pctx);

  std::vector<std::vector<bool>> samples;
  std::vector<nck::Evaluation> evals;
  bool single_answer = false;

  const auto compile = [&] {
    Scope s(tracer_, "core.compile", request);
    nck::CompiledQubo q = nck::compile(work, engine_, anneal_.compile);
    ++stats_.compiles;
    stats_.qubo_vars += static_cast<double>(q.num_qubo_vars());
    stats_.ancillas += static_cast<double>(q.num_ancillas);
    return q;
  };

  if (backend == nck::BackendKind::kAnnealer) {
    std::shared_ptr<const AnnealMemo> plan;
    if (PlanPtr hit = cache_->find(pctx.key)) {
      plan = std::static_pointer_cast<const AnnealMemo>(hit);
    } else {
      // prepare_annealer without QUBO presolve (the adapter default), one
      // span per call, with the adapter's content-addressed embedding RNG.
      auto m = std::make_shared<AnnealMemo>();
      nck::AnnealPrepared& p = m->prepared;
      p.env = work;
      p.compiled = compile();
      p.num_sampled_vars = p.compiled.qubo.num_variables();
      p.logical = nck::qubo_to_ising(p.compiled.qubo);
      {
        Scope s(tracer_, "anneal.embed", request);
        nck::Graph logical(p.compiled.qubo.num_variables());
        for (const auto& [i, j, c] : p.compiled.qubo.quadratic_terms()) {
          (void)c;
          logical.add_edge(i, j);
        }
        const nck::Graph working = device_.working_graph();
        nck::Rng prep_rng(pctx.key.lo() ^
                          (pctx.key.hi() * 0x9E3779B97F4A7C15ull));
        const auto embedding =
            nck::find_embedding(logical, working, prep_rng, anneal_.embed);
        ++stats_.embed_attempts;
        if (embedding) {
          ++stats_.embed_ok;
          p.embedded = true;
          p.embedding = *embedding;
          p.qubits_used = embedding->total_qubits();
          p.max_chain_length = embedding->max_chain_length();
          p.problem = nck::embed_ising(p.logical, p.embedding, working,
                                       anneal_.chain_strength);
        }
      }
      if (!p.embedded) return out;
      cache_->insert(pctx.key, m);
      plan = m;
    }
    const nck::AnnealPrepared& p = plan->prepared;
    nck::AnnealSampleResult sampled;
    {
      Scope s(tracer_, "anneal.sample", request);
      sampled = nck::sample_annealer(p.logical, p.problem, anneal_.sampler, rng_);
    }
    const std::size_t reads = sampled.reads.size();
    const double replicas = static_cast<double>(
        std::max<std::size_t>(1, anneal_.sampler.num_replicas));
    stats_.qubits_used.push_back(static_cast<double>(p.qubits_used));
    stats_.max_chain_length.push_back(static_cast<double>(p.max_chain_length));
    stats_.anneal_device_ms.push_back(sampled.timing.total_us * 1e-3);
    stats_.spin_updates += static_cast<double>(reads) *
                           static_cast<double>(anneal_.sampler.num_sweeps) *
                           replicas * static_cast<double>(p.qubits_used);
    stats_.chain_slots +=
        static_cast<double>(reads) * static_cast<double>(p.problem.chain.size());
    for (const auto& read : sampled.reads) {
      stats_.chain_breaks += static_cast<double>(read.chain_breaks);
      // Without QUBO presolve the sampled variables are the QUBO's, whose
      // leading block is the program's variables.
      std::vector<bool> program(read.logical.begin(),
                                read.logical.begin() +
                                    static_cast<std::ptrdiff_t>(work.num_vars()));
      evals.push_back(work.evaluate(program));
      samples.push_back(std::move(program));
    }
  } else if (backend == nck::BackendKind::kCircuit) {
    std::shared_ptr<const CircuitMemo> plan;
    if (PlanPtr hit = cache_->find(pctx.key)) {
      plan = std::static_pointer_cast<const CircuitMemo>(hit);
    } else {
      auto m = std::make_shared<CircuitMemo>();
      nck::CircuitPrepared& p = m->prepared;
      p.env = work;
      p.compiled = compile();
      if (p.compiled.num_qubo_vars() > coupling_.num_vertices()) return out;
      {
        Scope s(tracer_, "circuit.transpile", request);
        p.qaoa = nck::prepare_qaoa(p.compiled.qubo, coupling_, circuit_.qaoa);
      }
      p.fits = true;
      cache_->insert(pctx.key, m);
      plan = m;
    }
    const nck::CircuitPrepared& p = plan->prepared;
    nck::CircuitOutcome outcome;
    {
      Scope s(tracer_, "circuit.optimize", request);
      outcome = nck::execute_circuit_backend(p, rng_, circuit_);
    }
    stats_.circuit_depth.push_back(static_cast<double>(p.qaoa.depth));
    stats_.swap_count.push_back(static_cast<double>(p.qaoa.swap_count));
    stats_.circuit_device_ms.push_back(outcome.total_seconds * 1e3);
    stats_.statevector_runs += static_cast<double>(outcome.num_jobs);
    stats_.amplitude_updates += static_cast<double>(outcome.num_jobs) *
                                std::ldexp(1.0, static_cast<int>(p.qaoa.qubits));
    samples = std::move(outcome.samples);
    evals = std::move(outcome.evaluations);
    single_answer = true;
  } else {
    Scope s(tracer_, "classical.solve", request);
    nck::backend::PrepareOutcome prep = be.prepare(pctx);
    if (!prep.plan) return out;
    nck::backend::ExecuteContext ectx;
    ectx.rng = &rng_;
    ectx.budget = be.initial_budget({});
    nck::backend::ExecutionResult res = be.execute(*prep.plan, ectx);
    samples = std::move(res.samples);
    evals = std::move(res.evaluations);
    single_answer = res.single_answer;
  }
  if (samples.empty()) return out;

  // Best sample: the backend's answer, else the best by Definition 6.
  std::size_t best = 0;
  if (!single_answer) {
    for (std::size_t i = 1; i < evals.size(); ++i) {
      if (nck::decompose::improves(evals[i], evals[best])) best = i;
    }
  }
  if (!out.truth_exact) {
    out.truth = {evals[best].feasible(), evals[best].soft_satisfied};
  }
  out.ran = true;
  out.best = lift(samples[best]);
  out.truth = lift_truth(out.truth);
  return out;
}

}  // namespace perfbench
