#include "classical/adapter.hpp"

#include "classical/exact_solver.hpp"

namespace nck::backend {
namespace {

std::size_t env_bytes(const Env& env) noexcept {
  std::size_t total = sizeof(Env);
  for (const Constraint& c : env.constraints()) {
    total += c.collection().capacity() * sizeof(VarId);
    total += c.distinct_vars().capacity() * sizeof(VarId);
  }
  return total;
}

}  // namespace

bool ClassicalAdapter::validate(std::string* why) const {
  (void)why;
  return true;  // no options to get wrong
}

Fingerprint ClassicalAdapter::plan_key(const PrepareContext& ctx) const {
  Fingerprint fp;
  fp.mix(std::string("classical"));
  mix_env(fp, *ctx.env);
  return fp;
}

PrepareOutcome ClassicalAdapter::prepare(const PrepareContext& ctx) const {
  Env env = *ctx.env;
  const std::size_t bytes = env_bytes(env);  // of the copy the plan keeps
  PrepareOutcome outcome;
  outcome.plan = std::make_shared<const Memo<Env>>(std::move(env), bytes);
  return outcome;
}

ExecutionResult ClassicalAdapter::execute(const Plan& plan,
                                          ExecuteContext& ctx) const {
  (void)ctx;
  const Env& env = memo_value<Env>(plan);
  ExecutionResult result;
  const ClassicalSolution solution = solve_exact(env);
  result.single_answer = true;
  result.evaluations.push_back(env.evaluate(solution.assignment));
  result.samples.push_back(solution.assignment);
  return result;
}

Budget ClassicalAdapter::initial_budget(
    const SampleFloors& floors) const noexcept {
  (void)floors;
  return {1, 0, 1, 0};
}

}  // namespace nck::backend
