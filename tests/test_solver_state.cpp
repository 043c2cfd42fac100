// A Solver lives across many solves (a serve worker keeps one for the whole
// process), so no stage may leave it changed when the stage fails. These
// tests make a stage throw part-way and check that the next solve on the
// same Solver behaves like a solve on a fresh one.
//
// The throw is an injected allocation failure: while armed, the next
// allocation of at least kFailBytes on this thread throws std::bad_alloc.
// Every unaligned operator new and delete of this binary is replaced below
// (all of them, so a sanitizer never sees memory cross allocators).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "runtime/solver.hpp"

namespace {

constexpr std::size_t kFailBytes = 64 * 1024;
thread_local bool fail_next_large_allocation = false;

}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size) {
  if (fail_next_large_allocation && size >= kFailBytes) {
    fail_next_large_allocation = false;
    throw std::bad_alloc();
  }
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nck {
namespace {

/// One hard constraint and 34 softs: enough softs that the heuristic
/// NCK-P007 scale-separation warning fires on a plain solve.
Env many_softs() {
  Env env;
  const auto vars = env.new_vars(34, "x");
  env.at_least({vars[0], vars[1]}, 1);
  for (VarId v : vars) env.prefer_false(v);
  return env;
}

TEST(SolverState, ThrowingCertifyingAnalysisKeepsP007OnLaterSolves) {
  const Env env = many_softs();
  Solver solver(42);

  // Certifying analysis switches NCK-P007 off for its own run. The
  // annealer target makes it copy the device's working graph, the first
  // large allocation of the solve, which the armed hook fails.
  solver.solve_options().certify = true;
  fail_next_large_allocation = true;
  EXPECT_THROW(solver.solve(env, BackendKind::kAnnealer), std::bad_alloc);
  ASSERT_FALSE(fail_next_large_allocation) << "no allocation failed";

  solver.solve_options().certify = false;
  const SolveReport plain = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(plain.ran) << plain.failure_message();
  EXPECT_TRUE(plain.analysis.has_code(DiagCode::kScaleSeparation))
      << plain.analysis.summary(Severity::kNote);
}

}  // namespace
}  // namespace nck
