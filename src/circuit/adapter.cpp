#include "circuit/adapter.hpp"

#include <string>

#include "resilience/policy.hpp"

namespace nck::backend {

bool CircuitAdapter::validate(std::string* why) const {
  const QaoaOptions& q = options_->qaoa;
  if (q.shots == 0) {
    if (why) *why = "circuit shots must be > 0";
    return false;
  }
  if (q.p < 1) {
    if (why) *why = "QAOA depth p must be >= 1";
    return false;
  }
  return true;
}

AnalysisTarget CircuitAdapter::analysis_target() const noexcept {
  AnalysisTarget target;
  target.coupling = coupling_;
  return target;
}

Fingerprint CircuitAdapter::plan_key(const PrepareContext& ctx) const {
  Fingerprint fp;
  fp.mix(std::string("circuit"));
  mix_env(fp, *ctx.env);
  mix_graph(fp, *coupling_);
  fp.mix(options_->compile.hard_margin);
  fp.mix(options_->qaoa.p);
  return fp;
}

PrepareOutcome CircuitAdapter::prepare(const PrepareContext& ctx) const {
  CircuitPrepared prepared = prepare_circuit_backend(
      *ctx.env, *coupling_, *ctx.engine, *options_, ctx.trace);
  PrepareOutcome outcome;
  if (!prepared.fits) {
    outcome.failure = FailureKind::kDeviceTooSmall;
    outcome.detail =
        "problem does not fit the " +
        std::to_string(coupling_->num_vertices()) + "-qubit device";
    return outcome;
  }
  const std::size_t bytes = prepared.bytes();
  outcome.plan =
      std::make_shared<const Memo<CircuitPrepared>>(std::move(prepared), bytes);
  return outcome;
}

ExecutionResult CircuitAdapter::execute(const Plan& plan,
                                        ExecuteContext& ctx) const {
  CircuitBackendOptions options = *options_;
  options.qaoa.shots = ctx.budget.samples;
  options.qaoa.optimizer.max_evaluations = ctx.budget.aux;
  options.faults = ctx.faults;
  CircuitOutcome outcome = execute_circuit_backend(
      memo_value<CircuitPrepared>(plan), *ctx.rng, options, ctx.trace);

  ExecutionResult result;
  result.device_seconds = outcome.total_seconds;
  result.qubits_used = outcome.qubits_used;
  result.circuit_depth = outcome.depth;
  if (outcome.fault) {
    result.failure = failure_from_fault(*outcome.fault);
    result.detail = failure_kind_description(result.failure);
    return result;
  }
  if (outcome.samples.empty()) {
    result.failure = FailureKind::kNoSamples;
    result.detail = "circuit backend returned no samples";
    return result;
  }
  // QAOA reports a single answer: the lowest-energy sample.
  result.single_answer = true;
  result.samples = std::move(outcome.samples);
  result.evaluations = std::move(outcome.evaluations);
  return result;
}

Budget CircuitAdapter::initial_budget(
    const SampleFloors& floors) const noexcept {
  return {options_->qaoa.shots, options_->qaoa.optimizer.max_evaluations,
          floors.min_shots, 4};
}

double CircuitAdapter::estimate_attempt_ms(const Budget& budget) const noexcept {
  const IbmTimingModel& t = options_->timing;
  const double jobs = static_cast<double>(budget.aux) + 1.0;
  return (t.server_overhead_s +
          jobs * (t.job_base_s + 0.5 * t.job_jitter_s +
                  t.optimizer_s_per_job)) *
         1e3;
}

bool CircuitAdapter::degrade(Budget& budget) const noexcept {
  if (budget.samples <= budget.min_samples && budget.aux <= budget.min_aux) {
    return false;
  }
  budget.samples = degrade_samples(budget.samples, budget.min_samples);
  budget.aux = degrade_samples(budget.aux, budget.min_aux);
  return true;
}

}  // namespace nck::backend
