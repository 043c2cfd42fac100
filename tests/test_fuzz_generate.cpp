// The fuzz subsystem's own test coverage (DESIGN.md §3j):
//   * the structured generator is total — 200 seeded byte strings decode
//     to valid programs that parse, print-fixpoint, and round-trip
//     through the simplify/--emit reduction path;
//   * every generated program's classification agrees with brute-forced
//     truth on all three backends (the ctest-registered, non-fuzz slice
//     of the differential oracle);
//   * the oracle itself has teeth: a deliberately-injected synthesis bug
//     (one flipped coefficient) must trip it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/reduce/reduce.hpp"
#include "core/parse.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generate.hpp"
#include "runtime/result.hpp"
#include "util/rng.hpp"

namespace nck::fuzz {
namespace {

std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng());
  }
  return bytes;
}

GeneratorOptions small_options() {
  GeneratorOptions options;
  options.max_vars = 6;
  options.max_constraints = 3;
  options.max_collection = 5;
  return options;
}

// The 200 generator seeds run in kSeedShards value-parameterized ranges,
// one ctest entry each, so `ctest -j` spreads them over the cores.
constexpr std::uint64_t kSeeds = 200;
constexpr std::uint64_t kSeedShards = 8;
constexpr std::uint64_t kSeedsPerShard = kSeeds / kSeedShards;
static_assert(kSeeds % kSeedShards == 0, "the shards must cover every seed");

// Shard k runs seeds first_seed(k) .. first_seed(k) + kSeedsPerShard - 1.
std::uint64_t first_seed(std::uint64_t shard) {
  return 1 + shard * kSeedsPerShard;
}

std::string seed_range_name(
    const ::testing::TestParamInfo<std::uint64_t>& info) {
  const std::uint64_t first = first_seed(info.param);
  return "Seeds" + std::to_string(first) + "To" +
         std::to_string(first + kSeedsPerShard - 1);
}

using TwoHundredSeeds = ::testing::TestWithParam<std::uint64_t>;

TEST_P(TwoHundredSeeds, DecodeParseAndSimplifyRoundTrip) {
  const GeneratorOptions options = small_options();
  const std::uint64_t first = first_seed(GetParam());
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const std::vector<std::uint8_t> bytes =
        seeded_bytes(seed, 8 + static_cast<std::size_t>(seed % 64));
    const Env env = generate_program(bytes.data(), bytes.size(), options);
    ASSERT_GE(env.num_constraints(), 1u) << "seed " << seed;
    ASSERT_LE(env.num_constraints(), options.max_constraints);
    ASSERT_GE(env.num_vars(), 1u);
    ASSERT_LE(env.num_vars(), options.max_vars);

    // Printer/parser agreement: parse(to_string) reaches a fixpoint.
    const std::string text = env.to_string();
    Env reparsed;
    ASSERT_NO_THROW(reparsed = parse_program(text)) << text;
    EXPECT_EQ(reparsed.to_string(), text) << "seed " << seed;
    EXPECT_EQ(reparsed.num_vars(), env.num_vars());
    EXPECT_EQ(reparsed.num_constraints(), env.num_constraints());
    EXPECT_EQ(reparsed.num_hard(), env.num_hard());

    // simplify/--emit round trip: the reduced program must itself parse,
    // and reduction must preserve feasibility and the soft optimum up to
    // the statically-decided offset (exactly what `nck_cli simplify
    // --emit` writes and what downstream consumers re-read).
    const GroundTruth original = brute_force_truth(env);
    const ReduceResult reduced = reduce_program(env);
    if (reduced.proved_unsat) {
      EXPECT_FALSE(original.feasible) << "seed " << seed << "\n" << text;
      continue;
    }
    if (reduced.reduced.num_constraints() > 0) {
      const std::string emitted = reduced.reduced.to_string();
      Env reloaded;
      ASSERT_NO_THROW(reloaded = parse_program(emitted))
          << "seed " << seed << "\n" << emitted;
      EXPECT_EQ(reloaded.to_string(), emitted);
    }
    const GroundTruth after = brute_force_truth(reduced.reduced);
    ASSERT_EQ(after.feasible, original.feasible)
        << "seed " << seed << "\n" << text;
    if (original.feasible) {
      EXPECT_EQ(after.best_soft_satisfied +
                    reduced.trace.soft_always_satisfied,
                original.best_soft_satisfied)
          << "seed " << seed << "\n" << text;
    }
  }
}

TEST_P(TwoHundredSeeds, AgreeWithBruteForceOnAllBackends) {
  const GeneratorOptions options = small_options();
  DifferentialOptions diff;
  diff.check_synthesis = false;  // backend slice; synthesis slice below
  diff.anneal_reads = 10;
  diff.circuit_shots = 64;
  const std::uint64_t first = first_seed(GetParam());
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    const std::vector<std::uint8_t> bytes =
        seeded_bytes(seed, 8 + static_cast<std::size_t>(seed % 64));
    const Env env = generate_program(bytes.data(), bytes.size(), options);
    const DifferentialReport report = run_differential(env, diff);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                             << env.to_string() << report.to_string();
    EXPECT_EQ(report.backends_checked, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzGenerate, TwoHundredSeeds,
                         ::testing::Range<std::uint64_t>(0, kSeedShards),
                         seed_range_name);

TEST(FuzzGenerate, SynthesisOracleAcceptsGeneratedPrograms) {
  const GeneratorOptions options = small_options();
  DifferentialOptions diff;
  diff.check_backends = false;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const std::vector<std::uint8_t> bytes = seeded_bytes(seed * 977, 40);
    const Env env = generate_program(bytes.data(), bytes.size(), options);
    const DifferentialReport report = run_differential(env, diff);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                             << env.to_string() << report.to_string();
    EXPECT_GE(report.syntheses_checked, 1u);
  }
}

TEST(FuzzGenerate, ExhaustedInputYieldsMinimalValidProgram) {
  const Env env = generate_program(nullptr, 0);
  EXPECT_EQ(env.num_vars(), 1u);
  EXPECT_EQ(env.num_constraints(), 1u);
  EXPECT_NO_THROW(parse_program(env.to_string()));
}

TEST(FuzzGenerate, DecoderIsDeterministic) {
  const std::vector<std::uint8_t> bytes = seeded_bytes(42, 64);
  const Env a = generate_program(bytes.data(), bytes.size());
  const Env b = generate_program(bytes.data(), bytes.size());
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(FuzzOracle, BruteForceTruthMatchesRuntimeGroundTruth) {
  for (const char* text : {
           "nck({a, b}, {1}) /\\ nck({b, c}, {1}) /\\ nck({a}, {0}, soft)",
           "nck({a, a, b}, {0, 2}) /\\ nck({b}, {1}, soft)",
           "nck({a}, {1}) /\\ nck({a}, {0})",  // infeasible
       }) {
    const Env env = parse_program(text);
    const GroundTruth ours = brute_force_truth(env);
    const GroundTruth theirs = ground_truth(env);
    EXPECT_EQ(ours.feasible, theirs.feasible) << text;
    if (ours.feasible) {
      EXPECT_EQ(ours.best_soft_satisfied, theirs.best_soft_satisfied) << text;
    }
  }
}

TEST(FuzzOracle, CleanProgramPassesBothOracles) {
  const Env env = parse_program(
      "nck({u0, u1}, {1}) /\\ nck({u0, v0}, {0, 1}) /\\ "
      "nck({v0, v1}, {1}) /\\ nck({u0}, {0}, soft)");
  const DifferentialReport report = run_differential(env);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.patterns_checked, 2u);
  EXPECT_EQ(report.backends_checked, 3u);
}

// Acceptance pin: the differential harness demonstrably catches a
// deliberately-injected synthesis bug. Flipping a single coefficient of
// any synthesized QUBO must break certification — if this test ever
// passes with report.ok(), the oracle has gone blind.
TEST(FuzzOracle, InjectedCoefficientFlipTripsTheOracle) {
  const Env env = parse_program("nck({a, b}, {1})");
  DifferentialOptions diff;
  diff.check_backends = false;
  diff.synth_mutator = [](SynthesizedQubo& synth) {
    synth.qubo.add_linear(0, 0.75);  // corrupt one diagonal coefficient
  };
  const DifferentialReport report = run_differential(env, diff);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.divergences.size(), 1u);
  EXPECT_NE(report.to_string().find("failed certification"),
            std::string::npos)
      << report.to_string();
}

// The mutator hook is surgical: an identity mutator must not trip.
TEST(FuzzOracle, IdentityMutatorDoesNotTrip) {
  const Env env = parse_program("nck({a, b}, {1})");
  DifferentialOptions diff;
  diff.check_backends = false;
  diff.synth_mutator = [](SynthesizedQubo&) {};
  const DifferentialReport report = run_differential(env, diff);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace nck::fuzz
