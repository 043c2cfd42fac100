// Workload inputs and the independent correctness check. Every input
// carries a ground truth that does not come from the solver under test:
// the paper-family instances carry bench::Instance's problem-specific
// exact optimum, the small example programs are enumerated here, and the
// large set-cover program's optimum is a constant in workloads.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "runtime/result.hpp"
#include "common.hpp"

namespace perfbench {

struct Input {
  std::string label;
  std::string text;    // the program as .nck text
  nck::Env env;        // what `text` parses to
  nck::GroundTruth truth;
};

/// A .nck program read from `path`, with truth by exhaustive enumeration
/// (at most 24 variables).
Input program_input(const std::string& path);

/// The `families` list of a workload config: [[problem, size], ...], with
/// problems named as bench::all_instances names them and sizes in vertices
/// (graph problems), elements (cover problems) or variables (3-SAT). Random
/// families draw from `seed`; an entry [problem, size, instance_seed] pins
/// the instance.
std::vector<Input> family_inputs(const Json& families, std::uint64_t seed);

/// A copy of `in` with its variables renamed by `seed`. Constraint order,
/// and so the solver's variable numbering, is kept: the structure the
/// solver sees, and the optimum, are unchanged.
Input renamed(const Input& in, std::uint64_t seed);

enum class Verdict { kOptimal, kSuboptimal, kIncorrect, kWrong };

/// Classifies `assignment` (over in.env's variables) against the truth
/// with Env::evaluate. kWrong means the assignment beats the truth, which
/// only a wrong truth or a wrong evaluation can produce.
Verdict classify(const Input& in, const std::vector<bool>& assignment);

/// Builds an assignment over in.env's variables from a name -> bool map;
/// false when a variable is missing.
bool assignment_from_names(const Input& in,
                           const std::map<std::string, bool>& values,
                           std::vector<bool>& out);

const char* verdict_name(Verdict v);

}  // namespace perfbench
