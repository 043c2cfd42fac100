#include "anneal/adapter.hpp"

#include <cmath>
#include <string>

#include "resilience/policy.hpp"

namespace nck::backend {
namespace {

bool finite_nonnegative(double value, const char* what, std::string* why) {
  if (std::isnan(value) || value < 0.0 || !std::isfinite(value)) {
    if (why) *why = std::string(what) + " must be finite and >= 0";
    return false;
  }
  return true;
}

}  // namespace

bool AnnealAdapter::validate(std::string* why) const {
  const AnnealerSamplerOptions& s = options_->sampler;
  const auto reject = [&](const std::string& what) {
    if (why) *why = what;
    return false;
  };
  if (s.num_reads == 0) return reject("annealer num_reads must be > 0");
  if (s.num_sweeps == 0) return reject("annealer num_sweeps must be > 0");
  if (s.num_replicas == 0) return reject("annealer num_replicas must be > 0");
  if (s.exchange_interval == 0) {
    return reject("annealer exchange_interval must be > 0");
  }
  const DWaveTimingModel& t = s.timing_model;
  std::string timing_why;
  if (!finite_nonnegative(t.anneal_us, "anneal_us", &timing_why) ||
      !finite_nonnegative(t.programming_us, "programming_us", &timing_why) ||
      !finite_nonnegative(t.readout_us_per_anneal, "readout_us_per_anneal",
                          &timing_why) ||
      !finite_nonnegative(t.delay_us, "delay_us", &timing_why) ||
      !finite_nonnegative(t.postprocess_us, "postprocess_us", &timing_why)) {
    return reject(timing_why);
  }
  if (std::isnan(s.ice_sigma) || s.ice_sigma < 0.0) {
    return reject("ice_sigma must be >= 0");
  }
  std::string embed_why;
  if (!finite_nonnegative(options_->embed.penalty_base, "embed penalty_base",
                          &embed_why)) {
    return reject(embed_why);
  }
  return true;
}

AnalysisTarget AnnealAdapter::analysis_target() const noexcept {
  AnalysisTarget target;
  target.annealer = device_;
  return target;
}

Fingerprint AnnealAdapter::plan_key(const PrepareContext& ctx) const {
  Fingerprint fp;
  fp.mix(std::string("anneal"));
  mix_env(fp, *ctx.env);
  mix_device(fp, device_for(ctx));
  fp.mix(options_->compile.hard_margin);
  fp.mix(options_->embed.max_passes);
  fp.mix(options_->embed.penalty_base);
  fp.mix(options_->embed.tries);
  fp.mix(options_->chain_strength);
  // The flag of the retired QUBO presolve, always off. prepare() seeds the
  // embedding RNG from this key, so dropping the mix would move every
  // chain.
  fp.mix(false);
  return fp;
}

PrepareOutcome AnnealAdapter::prepare(const PrepareContext& ctx) const {
  // Content-addressed preparation RNG: derived from the plan key, never
  // from the solve's sample stream, so the embedding a plan carries is a
  // function of its inputs alone (warm and cold solves agree exactly, and
  // batch results do not depend on which worker built the plan first).
  Rng prep_rng(ctx.key.lo() ^ (ctx.key.hi() * 0x9E3779B97F4A7C15ull));
  AnnealPrepared prepared = prepare_annealer(*ctx.env, device_for(ctx),
                                             *ctx.engine, prep_rng, *options_,
                                             ctx.trace);
  PrepareOutcome outcome;
  if (!prepared.embedded) {
    outcome.failure = FailureKind::kNoEmbedding;
    outcome.detail = "no minor embedding found on the device";
    return outcome;
  }
  const std::size_t bytes = prepared.bytes();
  outcome.plan =
      std::make_shared<const Memo<AnnealPrepared>>(std::move(prepared), bytes);
  return outcome;
}

ExecutionResult AnnealAdapter::execute(const Plan& plan,
                                       ExecuteContext& ctx) const {
  AnnealBackendOptions options = *options_;
  options.sampler.num_reads = ctx.budget.samples;
  options.faults = ctx.faults;
  AnnealOutcome outcome =
      execute_annealer(memo_value<AnnealPrepared>(plan), *ctx.rng, options,
                       ctx.trace);

  ExecutionResult result;
  result.device_seconds = outcome.timing.total_us * 1e-6;
  result.qubits_used = outcome.qubits_used;
  if (outcome.fault) {
    result.failure = failure_from_fault(*outcome.fault);
    result.detail = failure_kind_description(result.failure);
    result.dead_qubits = outcome.dead_qubits;
    if (!result.dead_qubits.empty()) {
      result.detail = std::to_string(result.dead_qubits.size()) +
                      " embedded qubit(s) died mid-session";
    }
    return result;
  }
  if (outcome.samples.empty()) {
    result.failure = FailureKind::kNoSamples;
    result.detail = "annealer returned no samples";
    return result;
  }
  result.samples = std::move(outcome.samples);
  result.evaluations = std::move(outcome.evaluations);
  return result;
}

Budget AnnealAdapter::initial_budget(
    const SampleFloors& floors) const noexcept {
  return {options_->sampler.num_reads, 0, floors.min_reads, 0};
}

double AnnealAdapter::estimate_attempt_ms(const Budget& budget) const noexcept {
  return options_->sampler.timing_model.qpu_access_time_us(budget.samples) *
         1e-3;
}

bool AnnealAdapter::degrade(Budget& budget) const noexcept {
  if (budget.samples <= budget.min_samples) return false;
  budget.samples = degrade_samples(budget.samples, budget.min_samples);
  return true;
}

}  // namespace nck::backend
