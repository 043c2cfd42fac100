// Batch-solver study: what the shared plan cache and the SolverPool's
// thread pool buy on a sweep of distinct programs.
//
// Two measurements over one 16-program batch (annealer backend, where
// prepare = QUBO synthesis + minor embedding dominates a small-read
// sample budget):
//
//   cold vs warm   the same pool solves the batch twice; the second pass
//                  serves every plan from the cache and should beat the
//                  first by well over 1.5x;
//   thread scaling the cold batch on fresh pools with 1, 4, and 8
//                  workers; tasks are independent, so 1 -> 4 should be
//                  near-linear.
//
// Then the annealing kernel on its own: the retired scalar loop against
// the packed tempering kernel, and the packed sweep's cost per proposal at
// each tempering rung. Last, minor embedding on its own: find_embedding
// wall time per annealer batch family on the Advantage 4.1 analogue, and
// the cost of one edge relaxation of the router's shortest-path search.
//
// Writes BENCH_batch.json (override with --out=<file>); CI validates the
// JSON and checks the cold/warm speedup floor.
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/embedding.hpp"
#include "anneal/packed.hpp"
#include "anneal/topology.hpp"
#include "harness.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "runtime/pool.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nck;

namespace {

/// 16 structurally distinct programs: every task needs its own synthesis
/// and embedding, so a cold batch is 16 prepares and a warm batch is 0.
/// Dense graphs on purpose — complete-graph QUBOs need chain-heavy minor
/// embeddings, the expensive prepare work the cache exists to amortize.
std::vector<Env> batch_programs() {
  std::vector<Env> envs;
  for (std::size_t n = 6; n < 14; ++n) {
    envs.push_back(MaxCutProblem{complete_graph(n)}.encode());
    envs.push_back(
        VertexCoverProblem{circulant_graph(n + 4, std::size_t{4})}.encode());
  }
  return envs;
}

PoolOptions pool_options(std::size_t threads) {
  PoolOptions options;
  options.num_threads = threads;
  // Small sample budget: keeps execute cheap so prepare (the cacheable
  // part) dominates, which is the regime batch pipelines run in.
  options.annealer.sampler.num_reads = 20;
  options.annealer.sampler.num_sweeps = 128;
  return options;
}

double solve_batch_ms(SolverPool& pool, const std::vector<Env>& envs) {
  const auto start = std::chrono::steady_clock::now();
  const BatchReport report = pool.solve_all(envs, BackendKind::kAnnealer);
  const auto stop = std::chrono::steady_clock::now();
  std::size_t solved = report.solved();
  if (solved != envs.size()) {
    std::cerr << "bench_batch: only " << solved << "/" << envs.size()
              << " tasks solved\n";
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Before/after timing of the annealing hot loop itself: the retired scalar
/// per-read path (QUBO conversion + adjacency-list Metropolis, what
/// sample_annealer ran before the packed kernel) against the bit-packed
/// parallel-tempering kernel, on an embedded-problem-density random Ising
/// with an equal total sweep budget per read.
/// Cost of one Metropolis proposal at one tempering rung: a replica held
/// at the rung's beta, after warm-up sweeps, timed over repeated blocks of
/// sweeps. A sweep proposes every spin once, so the popcount of the change
/// in the spin words is exactly its accepted flips.
struct RungCost {
  double beta = 0.0;
  Summary ns_per_proposal;
  double accept_rate = 0.0;
};

struct KernelTimings {
  std::string label;
  std::size_t num_spins = 0;
  std::size_t num_reads = 0;
  std::size_t num_sweeps = 0;
  double scalar_ms = 0.0;
  double packed_ms = 0.0;
  double speedup = 0.0;
  std::vector<RungCost> rungs;
};

constexpr std::size_t kRungWarmSweeps = 64;
constexpr std::size_t kRungBlockSweeps = 512;
constexpr std::size_t kRungBlocks = 11;

std::vector<RungCost> rung_costs(const PackedWorkspace& workspace,
                                 const TemperingOptions& options) {
  const std::size_t n = workspace.packed().num_spins();
  std::vector<RungCost> rungs;
  Rng rng(13);
  for (double beta : tempering_ladder(options)) {
    PackedState state;
    state.words.resize(workspace.packed().num_words());
    state.field.resize(n);
    workspace.randomize(state, rng);
    workspace.refresh(state);
    for (std::size_t s = 0; s < kRungWarmSweeps; ++s) {
      workspace.sweep(state, beta, rng);
    }
    std::vector<std::uint64_t> before;
    std::vector<double> block_ns;
    std::size_t flips = 0;
    for (std::size_t block = 0; block < kRungBlocks; ++block) {
      Timer timer;
      for (std::size_t s = 0; s < kRungBlockSweeps; ++s) {
        before = state.words;
        workspace.sweep(state, beta, rng);
        for (std::size_t w = 0; w < before.size(); ++w) {
          flips += static_cast<std::size_t>(
              std::popcount(before[w] ^ state.words[w]));
        }
      }
      block_ns.push_back(timer.milliseconds() * 1e6 /
                         static_cast<double>(kRungBlockSweeps * n));
    }
    RungCost rung;
    rung.beta = beta;
    rung.ns_per_proposal = summarize(block_ns);
    rung.accept_rate = static_cast<double>(flips) /
                       static_cast<double>(kRungBlocks * kRungBlockSweeps * n);
    rungs.push_back(rung);
  }
  return rungs;
}

KernelTimings kernel_study(const std::string& label, const Graph& g) {
  KernelTimings k;
  k.label = label;
  k.num_spins = g.num_vertices();
  k.num_reads = 20;
  k.num_sweeps = 1024;

  Rng gen(99);
  IsingModel ising;
  ising.h.resize(k.num_spins);
  for (double& h : ising.h) h = gen.uniform(-1.0, 1.0);
  for (const Graph::Edge& e : g.edges()) {
    ising.j.emplace_back(e.first, e.second, gen.uniform(-1.0, 1.0));
  }

  // Scalar "before": per read, convert to QUBO and run the adjacency-list
  // annealer — exactly what each sampler read used to cost.
  AnnealParams params;
  params.num_sweeps = k.num_sweeps;
  params.beta_initial = 0.05;
  params.beta_final = 6.0;
  Rng scalar_rng(7);
  Timer scalar_timer;
  double scalar_best = 0.0;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    const Qubo q = ising_to_qubo(ising);
    const Sample s = anneal_once(q, params, scalar_rng);
    if (r == 0 || s.energy < scalar_best) scalar_best = s.energy;
  }
  k.scalar_ms = scalar_timer.milliseconds();

  // Packed "after": the CSR program is built once per problem (as in
  // sample_annealer) and each read reuses a workspace.
  const PackedIsing packed(ising);
  PackedWorkspace workspace(packed);
  workspace.load_clean();
  TemperingOptions options;
  options.num_sweeps = k.num_sweeps;
  Rng packed_rng(7);
  Timer packed_timer;
  double packed_best = 0.0;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    const PackedState& state = workspace.anneal(options, packed_rng);
    if (r == 0 || state.energy < packed_best) packed_best = state.energy;
  }
  k.packed_ms = packed_timer.milliseconds();
  k.speedup = k.packed_ms > 0.0 ? k.scalar_ms / k.packed_ms : 0.0;
  k.rungs = rung_costs(workspace, options);

  // Sanity line (offset is zero, so QUBO and packed energies compare 1:1).
  std::cout << "kernel [" << label << "]: best energy scalar " << scalar_best
            << " vs packed " << packed_best << "\n";
  return k;
}

/// find_embedding on one family: wall time over seeds, and wall time per
/// edge relaxation of the router's searches (about 96% of embedding time
/// is spent in them).
struct EmbedCost {
  std::string label;
  Summary ms;
  double relaxations = 0.0;  // median over seeds
  double ns_per_relaxation = 0.0;
};

constexpr std::uint64_t kEmbedSeeds = 9;

/// The annealer batch families (the batch-cold workload's list, random
/// families at the harness seeds), each compiled and presolved as a solve
/// prepares it, then embedded at kEmbedSeeds seeds. Only find_embedding is
/// timed: the device's working graph is built once, outside the timer.
std::vector<EmbedCost> embedding_study() {
  std::vector<bench::Instance> families;
  const auto take = [&](std::vector<bench::Instance> sized) {
    families.push_back(std::move(sized.back()));
  };
  for (const char* problem : {"max-cut", "min-vertex-cover"}) {
    take(bench::graph_instances(problem, 9));
    take(bench::graph_instances(problem, 15));
  }
  take(bench::graph_instances("map-coloring", 9));
  take(bench::graph_instances("clique-cover", 9));
  for (const char* problem : {"exact-cover", "min-set-cover"}) {
    take(bench::cover_instances(problem, 6));
    take(bench::cover_instances(problem, 12));
  }
  take(bench::ksat_instances(4));
  take(bench::ksat_instances(8));

  Rng device_rng(0xD3071CEull);  // the Solver's device
  const Device device = advantage_4_1(device_rng);
  const Graph working = device.working_graph();
  SynthEngine engine;
  std::vector<EmbedCost> costs;
  for (const bench::Instance& inst : families) {
    Rng prepare_rng(0);
    const AnnealPrepared prepared =
        prepare_annealer(inst.env, device, engine, prepare_rng);
    Graph logical(prepared.num_sampled_vars);
    for (const auto& [a, b, w] : prepared.logical.j) logical.add_edge(a, b);
    std::vector<double> ms, relaxations;
    for (std::uint64_t seed = 1; seed <= kEmbedSeeds; ++seed) {
      Rng rng(seed);
      Timer timer;
      const auto embedding = find_embedding(logical, working, rng);
      ms.push_back(timer.milliseconds());
      relaxations.push_back(
          embedding ? static_cast<double>(embedding->relaxations) : 0.0);
    }
    EmbedCost cost;
    cost.label = inst.problem + " " + inst.label;
    cost.ms = summarize(ms);
    cost.relaxations = summarize(relaxations).median;
    double total_ms = 0.0, total_relaxations = 0.0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      total_ms += ms[i];
      total_relaxations += relaxations[i];
    }
    cost.ns_per_relaxation =
        total_relaxations > 0.0 ? total_ms * 1e6 / total_relaxations : 0.0;
    costs.push_back(cost);
  }
  return costs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_batch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_batch [--out=<file>]\n";
      return 2;
    }
  }

  const std::vector<Env> envs = batch_programs();
  std::cout << "=== Batch solver: plan cache + thread scaling ===\n\n";
  std::cout << "batch: " << envs.size()
            << " distinct programs, annealer backend, 20 reads/task\n\n";

  // --- cold vs warm on one 4-worker pool --------------------------------
  SolverPool pool(pool_options(4));
  const double cold_ms = solve_batch_ms(pool, envs);
  // Best of three warm passes: the cache is already hot, so repetition
  // only strips scheduler noise from the measurement.
  double warm_ms = solve_batch_ms(pool, envs);
  for (int rep = 0; rep < 2; ++rep) {
    const double ms = solve_batch_ms(pool, envs);
    if (ms < warm_ms) warm_ms = ms;
  }
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const backend::PlanCacheStats cache = pool.plan_cache().stats();

  Table cache_table({"pass", "wall(ms)", "speedup"});
  cache_table.row().cell("cold (16 prepares)").cell(cold_ms, 2).cell("1.00x");
  cache_table.row().cell("warm (all cached)").cell(warm_ms, 2).cell(
      format_double(speedup, 2) + "x");
  cache_table.print(std::cout);
  std::cout << "\nplan cache: " << cache.hits << " hits, " << cache.misses
            << " misses, " << cache.bytes << " bytes\n\n";

  // --- cold-batch thread scaling on fresh pools -------------------------
  const std::size_t thread_counts[] = {1, 4, 8};
  std::vector<double> scaling_ms;
  for (std::size_t t : thread_counts) {
    SolverPool fresh(pool_options(t));
    scaling_ms.push_back(solve_batch_ms(fresh, envs));
  }
  Table scaling({"threads", "wall(ms)", "speedup vs 1"});
  for (std::size_t i = 0; i < scaling_ms.size(); ++i) {
    scaling.row()
        .cell(thread_counts[i])
        .cell(scaling_ms[i], 2)
        .cell(format_double(scaling_ms[0] / scaling_ms[i], 2) + "x");
  }
  scaling.print(std::cout);

  // --- annealing kernel: scalar adjacency loop vs packed tempering ------
  // Two density regimes: a degree-12 circulant at embedded-problem density
  // (chain-heavy minor embeddings on Pegasus have physical degree <= 15),
  // and a complete graph at logical density (NchooseK constraint blocks are
  // cliques, the regime the heuristic solver and boltzmann surrogate run).
  std::cout << "\n=== Annealing kernel: scalar vs bit-packed ===\n\n";
  const std::vector<KernelTimings> kernels = {
      kernel_study("embedded-density", circulant_graph(128, std::size_t{12})),
      kernel_study("logical-clique", complete_graph(96)),
  };
  Table kernel_table({"problem", "scalar(ms)", "packed(ms)", "speedup"});
  for (const KernelTimings& k : kernels) {
    kernel_table.row()
        .cell(k.label)
        .cell(k.scalar_ms, 2)
        .cell(k.packed_ms, 2)
        .cell(format_double(k.speedup, 2) + "x");
  }
  kernel_table.print(std::cout);
  std::cout << "\n(per problem: " << kernels[0].num_reads << " reads x "
            << kernels[0].num_sweeps
            << " total sweeps, equal budget both kernels)\n";

  // Per-rung cost of the packed sweep: hot rungs accept most proposals and
  // pay the neighbor-field update on each, cold rungs reject almost all.
  std::cout << "\n=== Packed sweep cost per tempering rung ===\n\n";
  Table rung_table({"problem", "beta", "ns/proposal", "p10-p90", "accepted"});
  for (const KernelTimings& k : kernels) {
    for (const RungCost& rung : k.rungs) {
      rung_table.row()
          .cell(k.label)
          .cell(rung.beta, 3)
          .cell(rung.ns_per_proposal.median, 2)
          .cell(format_double(rung.ns_per_proposal.p10, 2) + "-" +
                format_double(rung.ns_per_proposal.p90, 2))
          .cell(rung.accept_rate, 3);
    }
  }
  rung_table.print(std::cout);
  std::cout << "\n(" << kRungBlocks << " blocks of " << kRungBlockSweeps
            << " sweeps per rung after " << kRungWarmSweeps
            << " warm-up sweeps; median and p10-p90 over blocks)\n";

  std::cout << "\n=== Minor embedding per batch family ===\n\n";
  const std::vector<EmbedCost> embeds = embedding_study();
  Table embed_table(
      {"family", "embed(ms)", "p10-p90", "relaxations", "ns/relaxation"});
  for (const EmbedCost& e : embeds) {
    embed_table.row()
        .cell(e.label)
        .cell(e.ms.median, 2)
        .cell(format_double(e.ms.p10, 2) + "-" + format_double(e.ms.p90, 2))
        .cell(e.relaxations, 0)
        .cell(e.ns_per_relaxation, 2);
  }
  embed_table.print(std::cout);
  std::cout << "\n(" << kEmbedSeeds
            << " embedding seeds per family on the Advantage 4.1 analogue; "
               "median and p10-p90 over seeds; ns per relaxation is the "
               "family's total embedding time over its total relaxations)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_batch: cannot write " << out_path << "\n";
    return 1;
  }
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  out << "{\"bench\":\"batch\",\"machine\":{\"nproc\":"
      << std::thread::hardware_concurrency() << ",\"omp_num_threads\":"
      << (omp_env ? "\"" + std::string(omp_env) + "\"" : std::string("null"))
      << "},\"tasks\":" << envs.size()
      << ",\"backend\":\"annealer\",\"reads_per_task\":20"
      << ",\"cold_ms\":" << cold_ms << ",\"warm_ms\":" << warm_ms
      << ",\"speedup_cold_over_warm\":" << speedup << ",\"cache\":{\"hits\":"
      << cache.hits << ",\"misses\":" << cache.misses << ",\"evictions\":"
      << cache.evictions << ",\"bytes\":" << cache.bytes << "},\"scaling\":[";
  for (std::size_t i = 0; i < scaling_ms.size(); ++i) {
    if (i) out << ",";
    out << "{\"threads\":" << thread_counts[i] << ",\"ms\":" << scaling_ms[i]
        << ",\"speedup_vs_1\":" << scaling_ms[0] / scaling_ms[i] << "}";
  }
  out << "],\"kernel\":[";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelTimings& k = kernels[i];
    if (i) out << ",";
    out << "{\"problem\":\"" << k.label << "\",\"num_spins\":" << k.num_spins
        << ",\"num_reads\":" << k.num_reads
        << ",\"num_sweeps\":" << k.num_sweeps
        << ",\"scalar_ms\":" << k.scalar_ms << ",\"packed_ms\":" << k.packed_ms
        << ",\"speedup\":" << k.speedup << ",\"rungs\":[";
    for (std::size_t r = 0; r < k.rungs.size(); ++r) {
      const RungCost& rung = k.rungs[r];
      if (r) out << ",";
      out << "{\"beta\":" << rung.beta
          << ",\"ns_per_proposal\":" << rung.ns_per_proposal.median
          << ",\"ns_per_proposal_p10\":" << rung.ns_per_proposal.p10
          << ",\"ns_per_proposal_p90\":" << rung.ns_per_proposal.p90
          << ",\"accept_rate\":" << rung.accept_rate << "}";
    }
    out << "]}";
  }
  out << "],\"embedding\":[";
  for (std::size_t i = 0; i < embeds.size(); ++i) {
    const EmbedCost& e = embeds[i];
    if (i) out << ",";
    out << "{\"family\":\"" << e.label << "\",\"seeds\":" << kEmbedSeeds
        << ",\"ms\":" << e.ms.median << ",\"ms_p10\":" << e.ms.p10
        << ",\"ms_p90\":" << e.ms.p90 << ",\"relaxations\":" << e.relaxations
        << ",\"ns_per_relaxation\":" << e.ns_per_relaxation << "}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
