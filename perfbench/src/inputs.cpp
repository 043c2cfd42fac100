#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/parse.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

Input family_input(const std::string& problem, std::size_t size,
                   std::uint64_t seed) {
  std::vector<nck::bench::Instance> candidates;
  if (problem == "exact-cover" || problem == "min-set-cover") {
    candidates = nck::bench::cover_instances(problem, size, seed);
  } else if (problem == "3-sat") {
    candidates = nck::bench::ksat_instances(size, seed);
  } else {
    candidates = nck::bench::graph_instances(problem, size);
  }
  if (candidates.empty()) {
    throw std::invalid_argument("no " + problem + " instance of size " +
                                std::to_string(size));
  }
  // The generators step their sizes; the last one is the largest <= size.
  nck::bench::Instance& inst = candidates.back();
  Input in;
  in.label = problem + " " + inst.label;
  // The program is what its .nck text parses to, as for every other input,
  // so assignments from any interface index the same variables.
  in.text = inst.env.to_string();
  in.env = nck::parse_program(in.text);
  in.truth = inst.truth;
  return in;
}

}  // namespace

Input program_input(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  Input in;
  in.label = path.substr(path.find_last_of('/') + 1);
  in.text = buffer.str();
  in.env = nck::parse_program(in.text);
  const std::size_t n = in.env.num_vars();
  if (n > 24) {
    // Too large to enumerate: the caller supplies the truth.
    return in;
  }
  in.truth = {false, 0};
  std::vector<bool> bits(n, false);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    for (std::size_t v = 0; v < n; ++v) bits[v] = (mask >> v) & 1u;
    const nck::Evaluation e = in.env.evaluate(bits);
    if (e.hard_violated != 0) continue;
    if (!in.truth.feasible || e.soft_satisfied > in.truth.best_soft_satisfied) {
      in.truth = {true, e.soft_satisfied};
    }
  }
  return in;
}

std::vector<Input> family_inputs(const Json& families, std::uint64_t seed) {
  std::vector<Input> out;
  nck::Rng rng(seed);
  for (const Json& f : families.array) {
    // An optional third entry pins the instance seed of a random family.
    const std::uint64_t draw = rng();
    const std::uint64_t instance_seed =
        f.array.size() > 2 ? static_cast<std::uint64_t>(f.array[2].num()) : draw;
    out.push_back(family_input(f.array.at(0).str(),
                               static_cast<std::size_t>(f.array.at(1).num()),
                               instance_seed));
  }
  return out;
}

Input renamed(const Input& in, std::uint64_t seed) {
  nck::Rng rng(seed);
  const std::size_t n = in.env.num_vars();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::string> names(n);
  for (std::size_t v = 0; v < n; ++v) names[v] = "p" + std::to_string(order[v]);
  Input out;
  out.label = in.label;
  for (std::size_t i = 0; i < in.env.num_constraints(); ++i) {
    out.text += (i ? " /\\\n" : "") + in.env.constraints()[i].to_string(names);
  }
  out.env = nck::parse_program(out.text);
  out.truth = in.truth;
  return out;
}

bool assignment_from_names(const Input& in,
                           const std::map<std::string, bool>& values,
                           std::vector<bool>& out) {
  out.assign(in.env.num_vars(), false);
  for (std::size_t v = 0; v < in.env.num_vars(); ++v) {
    const auto it = values.find(in.env.var_name(static_cast<nck::VarId>(v)));
    if (it == values.end()) return false;
    out[v] = it->second;
  }
  return values.size() == in.env.num_vars();
}

Verdict classify(const Input& in, const std::vector<bool>& assignment) {
  if (assignment.size() != in.env.num_vars()) return Verdict::kWrong;
  const nck::Evaluation e = in.env.evaluate(assignment);
  if (e.hard_violated != 0) return Verdict::kIncorrect;
  if (!in.truth.feasible) return Verdict::kWrong;
  if (e.soft_satisfied == in.truth.best_soft_satisfied) return Verdict::kOptimal;
  if (e.soft_satisfied < in.truth.best_soft_satisfied) return Verdict::kSuboptimal;
  return Verdict::kWrong;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOptimal: return "optimal";
    case Verdict::kSuboptimal: return "suboptimal";
    case Verdict::kIncorrect: return "incorrect";
    case Verdict::kWrong: return "wrong";
  }
  return "?";
}

}  // namespace perfbench
