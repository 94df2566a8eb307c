// online_replay: the 99 production-trace MapReduce jobs, each planned by
// the critical-path scheduler and replayed through ExecutionEngine::run
// with the repair ladder and straggler speculation under seeded runtime
// noise.  One round replays all 99 jobs under perturbation seeds drawn from
// the run's seed and the round; a run replays whole rounds.  The re-search
// is heuristic-guided, so no policy network runs here.

#include <algorithm>
#include <memory>

#include "bench.h"
#include "obs/obs.h"
#include "sched/critical_path.h"
#include "trace/mapreduce.h"
#include "trace/trace.h"
#include "traced.h"

namespace spearbench {
namespace {

/// Set-ups per run: each is short and noisy, so the median takes nine.
constexpr int kSetups = 9;
/// Rounds every run completes; the quality metrics cover exactly these.
/// Each round has its own arrival stream, so mean_jct_slots averages over
/// ten streams.
constexpr std::size_t kQualityRounds = 10;
/// Rounds in each pass of the traced run.
constexpr std::size_t kTracedRounds = 2;
/// Mean slots between job arrivals of the FIFO queue behind mean_jct_slots.
/// Realized makespans average about 800 slots, so this keeps the queue at
/// about a third of full load: stable, with queueing that makespans move.
constexpr double kMeanInterarrival = 2400.0;
/// The production trace is one fixed set of 99 jobs (bench_online_replay's
/// default seed); the run's seed drives the runtime noise and the arrivals.
constexpr std::uint64_t kTraceSeed = 42;
constexpr std::uint64_t kWarmupSeed = 0x5eed;

struct State {
  std::vector<std::shared_ptr<const Dag>> dags;
  std::vector<Schedule> plans;
};

/// The runtime noise and ladder settings of bench_online_replay.
spear::exec::ExecOptions exec_options(std::uint64_t seed, std::size_t round,
                                      std::size_t job) {
  spear::exec::ExecOptions options;
  options.perturb.sigma = 0.6;
  options.perturb.straggler_rate = 0.10;
  options.perturb.straggler_factor = 4.0;
  options.perturb.seed = (seed * 0x9e3779b97f4a7c15ULL) ^
                         ((round + 1) * 0xbf58476d1ce4e5b9ULL) ^
                         ((job + 1) * 0x94d049bb133111ebULL);
  options.research_initial_budget = 128;
  options.research_min_budget = 32;
  options.seed = options.perturb.seed ^ 0xec5dec5dULL;
  return options;
}

std::vector<std::shared_ptr<const Dag>> trace_dags(std::uint64_t seed,
                                                   std::size_t jobs) {
  spear::TraceOptions options;
  options.num_jobs = jobs;
  spear::Rng rng(seed);
  std::vector<std::shared_ptr<const Dag>> dags;
  for (const auto& job : spear::generate_trace(options, rng)) {
    dags.push_back(std::make_shared<Dag>(spear::mapreduce_to_dag(job)));
  }
  return dags;
}

std::unique_ptr<State> set_up(RunResult& out) {
  auto state = std::make_unique<State>();
  state->dags = trace_dags(kTraceSeed, 99);
  auto planner = spear::make_critical_path_scheduler();
  for (const auto& dag : state->dags) {
    state->plans.push_back(planner->schedule(*dag, bench_capacity()));
    const Checked checked =
        check_schedule(*dag, bench_capacity(), state->plans.back());
    if (!checked.error.empty()) out.fail("CP plan: " + checked.error);
  }

  const auto warmup = trace_dags(kWarmupSeed, 1).front();
  spear::exec::ExecutionEngine engine(warmup, bench_capacity(),
                                      exec_options(kWarmupSeed, 0, 0));
  const auto result = engine.run(planner->schedule(*warmup, bench_capacity()));
  const Checked checked =
      check_events(*warmup, bench_capacity(), result.events, nullptr);
  if (!checked.error.empty()) out.fail("warm-up replay: " + checked.error);
  return state;
}

struct Replay {
  spear::exec::ExecResult result;
  double ms = 0.0;
};

/// Replays rounds [first, first + rounds) and appends each job's result
/// (the traced run compares whole event logs).
void replay_rounds(const State& state, std::uint64_t seed, std::size_t first,
                   std::size_t rounds, std::vector<Replay>& out) {
  for (std::size_t r = first; r < first + rounds; ++r) {
    for (std::size_t j = 0; j < state.dags.size(); ++j) {
      spear::exec::ExecutionEngine engine(state.dags[j], bench_capacity(),
                                          exec_options(seed, r, j));
      const auto start = Clock::now();
      Replay replay{engine.run(state.plans[j]), 0.0};
      replay.ms = ms_since(start);
      out.push_back(std::move(replay));
    }
  }
}

/// Checks one replay; returns makespan / lower bound over the realized
/// winning-attempt durations, or 0 on a check failure.
double check_replay(const Dag& dag, const spear::exec::ExecResult& result,
                    RunResult& out) {
  std::vector<Time> realized;
  const Checked checked =
      check_events(dag, bench_capacity(), result.events, &realized);
  if (!checked.error.empty()) {
    out.fail("event log: " + checked.error);
    return 0.0;
  }
  if (checked.makespan != result.makespan) {
    out.fail("engine makespan differs from its event log");
    return 0.0;
  }
  spear::DagBuilder builder(dag.resource_dims());
  for (const auto& task : dag.tasks()) {
    builder.add_task(realized[task.id], task.demand, task.name);
  }
  for (const auto& task : dag.tasks()) {
    for (TaskId parent : dag.parents(task.id)) {
      builder.add_edge(parent, task.id);
    }
  }
  const double bound =
      lower_bound(std::move(builder).build(), bench_capacity());
  if (static_cast<double>(checked.makespan) < bound - 1e-9) {
    out.fail("realized makespan below its lower bound");
  }
  return static_cast<double>(checked.makespan) / bound;
}

RunResult traced_run(const RunOptions& options) {
  RunResult out;
  set_layer_defaults(out);
  const auto state = set_up(out);

  std::vector<Replay> plain, traced;
  auto start = Clock::now();
  replay_rounds(*state, options.seed, 0, kTracedRounds, plain);
  const double plain_s = seconds_since(start);

  // The program's own registry keeps the re-search histogram and the
  // per-schedule search counters.
  auto registry = std::make_shared<spear::obs::MetricsRegistry>();
  spear::obs::install_metrics(registry);
  start = Clock::now();
  replay_rounds(*state, options.seed, 0, kTracedRounds, traced);
  const double traced_s = seconds_since(start);
  const auto snapshot = registry->snapshot();
  spear::obs::shutdown();

  std::vector<double> run_ms;
  double researches = 0.0, speculations = 0.0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const Dag& dag = *state->dags[i % state->dags.size()];
    check_replay(dag, traced[i].result, out);
    if (spear::exec::format_events(plain[i].result.events) !=
        spear::exec::format_events(traced[i].result.events)) {
      out.fail("traced event log differs from untraced");
    }
    run_ms.push_back(plain[i].ms);
    researches += static_cast<double>(traced[i].result.stats.researches);
    speculations += static_cast<double>(traced[i].result.stats.speculations);
  }
  const double jobs = static_cast<double>(plain.size());
  out.attempted = static_cast<std::int64_t>(2 * plain.size());

  const auto counter = [&](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? std::int64_t{0} : it->second;
  };
  const auto histogram_ms = [&](const std::string& name) {
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0.0 : it->second.sum;
  };
  spear::MctsScheduler::Stats stats;
  stats.iterations = counter("mcts.iterations");
  stats.nodes_expanded = counter("mcts.nodes_expanded");
  stats.env_copies = counter("mcts.env_copies");
  stats.search_seconds = histogram_ms("mcts.schedule.ms") / 1e3;
  stats.batched_rows = counter("mcts.batched_rows");
  stats.guide_forwards = counter("mcts.guide_forwards");
  stats.guide_forward_rows = counter("mcts.guide_forward_rows");
  stats.leaf_ticks = counter("mcts.leaf_ticks");
  stats.tt_hits = counter("mcts.tt_hits");
  stats.tt_misses = counter("mcts.tt_misses");
  stats.rollout_cache_hits = counter("mcts.rollout_cache_hits");
  stats.rollout_cache_misses = counter("mcts.rollout_cache_misses");
  set_search_metrics(stats, jobs, out);

  out.set("exec.run_ms_p50", median(run_ms), "ms");
  out.set("exec.research_ms_per_job", histogram_ms("exec.research.ms") / jobs,
          "ms");
  out.set("exec.researches_per_job", researches / jobs, "count");
  out.set("exec.speculations_per_job", speculations / jobs, "count");
  out.set("obs.trace_overhead", traced_s / plain_s, "x");

  std::vector<Dag> sample;
  for (std::size_t j = 0; j < 8; ++j) sample.push_back(*state->dags[j]);
  measure_layers(sample, *load_bench_policy(), out);
  return out;
}

}  // namespace

RunResult run_online_replay(const RunOptions& options) {
  if (options.trace) return traced_run(options);

  RunResult out;
  const auto state = repeated_setup(kSetups, [&] { return set_up(out); }, out);

  // Each replay is checked as soon as it is timed, so that no event log
  // outlives its check and peak memory does not grow with the run length.
  const std::size_t jobs = state->dags.size();
  std::vector<double> latency_ms, round_rate, ratio;
  std::vector<Time> makespans;  // of the quality rounds, in replay order
  std::size_t rounds = 0;
  const auto begin = Clock::now();
  while (rounds < kQualityRounds || seconds_since(begin) < options.seconds) {
    double round_ms = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
      spear::exec::ExecutionEngine engine(state->dags[j], bench_capacity(),
                                          exec_options(options.seed, rounds, j));
      const auto start = Clock::now();
      const spear::exec::ExecResult result = engine.run(state->plans[j]);
      latency_ms.push_back(ms_since(start));
      round_ms += latency_ms.back();
      const double r = check_replay(*state->dags[j], result, out);
      if (rounds < kQualityRounds) {
        ratio.push_back(r);
        makespans.push_back(result.makespan);
      }
    }
    round_rate.push_back(1e3 * static_cast<double>(jobs) / round_ms);
    ++rounds;
  }
  const double rss = peak_rss_mib();

  // FIFO single-server queue: each job runs alone on the whole cluster,
  // under one Poisson arrival stream per quality round.
  std::vector<double> jct;
  for (std::size_t r = 0; r < kQualityRounds; ++r) {
    spear::ArrivalOptions stream;
    stream.mean_interarrival = kMeanInterarrival;
    stream.seed = options.seed ^ ((r + 1) * 0x5bf03635ULL);
    const std::vector<Time> arrivals =
        spear::generate_poisson_arrivals(jobs, stream);
    Time busy = 0;
    for (std::size_t j = 0; j < jobs; ++j) {
      busy = std::max(busy, arrivals[j]) + makespans[r * jobs + j];
      jct.push_back(static_cast<double>(busy - arrivals[j]));
    }
  }

  out.attempted = static_cast<std::int64_t>(latency_ms.size());
  out.set("jobs_per_s", median(round_rate), "1/s");
  out.set("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
  out.set("latency_p90_ms", percentile(latency_ms, 0.9), "ms");
  out.set("makespan_vs_lb", mean(ratio), "x");
  out.set("mean_jct_slots", mean(jct), "slots");
  out.set("peak_rss_mb", rss, "MiB");
  return out;
}

}  // namespace spearbench
