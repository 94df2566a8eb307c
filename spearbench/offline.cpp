// offline_serial and offline_leaf: Spear::schedule on the paper's random
// layered DAGs at the paper budget (1000/100) with one search thread, on
// 40-task DAGs in the serial search (fig6b) or on 100-task DAGs in the leaf
// search (Table I).

#include <memory>

#include "bench.h"
#include "core/spear.h"
#include "dag/generator.h"
#include "traced.h"

namespace spearbench {
namespace {

constexpr std::size_t kSerialTasks = 40;
constexpr std::size_t kLeafTasks = 100;
/// Leaf workers of the untimed worker-count check and of the traced run's
/// mcts.leaf_speedup.  The timed leaf search runs one worker: at three or
/// four, every synchronized tick waited for whichever vCPU the host held,
/// and jobs_per_s of the seeds spread by 25-42% of its median (README).
constexpr int kParallelWorkers = 4;
/// DAGs generated per seed; a run cycles through them.
constexpr std::size_t kDagsPerSeed = 16;
/// Jobs every run completes however slow the host, so that the quality
/// metrics cover the same jobs in every run of a seed and repeat exactly.
constexpr std::size_t kQualityJobs = 8;
/// Set-ups per run (each runs a warm-up job of about two seconds).
constexpr int kSetups = 3;
/// Jobs per throughput window (jobs_per_s is the median over windows).
constexpr std::size_t kRateWindow = 2;
/// Jobs the traced run schedules in each of its passes.
constexpr std::size_t kTracedJobs = 3;
/// Seed of the warm-up DAG: fixed, so set-up does the same work per seed.
constexpr std::uint64_t kWarmupSeed = 0x5eed;

struct Config {
  std::size_t tasks = kSerialTasks;
  spear::SearchMode mode = spear::SearchMode::kRoot;
};

spear::SpearOptions spear_options(const Config& config, int workers) {
  spear::SpearOptions options;
  options.initial_budget = 1000;
  options.min_budget = 100;
  options.num_threads = workers;
  options.search_mode = config.mode;
  return options;
}

struct State {
  std::shared_ptr<const spear::Policy> policy;
  std::vector<Dag> dags;
  std::unique_ptr<spear::MctsScheduler> scheduler;
};

std::unique_ptr<State> set_up(const Config& config, std::uint64_t seed,
                              RunResult& out) {
  auto state = std::make_unique<State>();
  state->policy = load_bench_policy();
  spear::DagGeneratorOptions generator;
  generator.num_tasks = config.tasks;
  spear::Rng rng(seed);
  state->dags = spear::generate_random_dags(generator, kDagsPerSeed, rng);
  state->scheduler = spear::make_spear_scheduler(
      state->policy, spear_options(config, 1));
  spear::Rng warmup_rng(kWarmupSeed);
  const Dag warmup = spear::generate_random_dag(generator, warmup_rng);
  const Checked checked =
      check_schedule(warmup, bench_capacity(),
                     state->scheduler->schedule(warmup, bench_capacity()));
  if (!checked.error.empty()) out.fail("warm-up schedule: " + checked.error);
  return state;
}

bool same_placements(const Schedule& a, const Schedule& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.placements()[i].task != b.placements()[i].task ||
        a.placements()[i].start != b.placements()[i].start) {
      return false;
    }
  }
  return true;
}

/// Schedules dags[0..n) in order; returns the wall seconds of the pass.
double schedule_pass(spear::MctsScheduler& scheduler, const State& state,
                     std::size_t n, bool with_window,
                     std::vector<Schedule>& schedules,
                     spear::MctsScheduler::Stats* stats) {
  schedules.clear();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Dag& dag = state.dags[i];
    schedules.push_back(
        with_window ? schedule_with_window(scheduler, dag, *state.policy)
                    : scheduler.schedule(dag, bench_capacity()));
    if (stats) accumulate(*stats, scheduler.last_stats());
  }
  return seconds_since(start);
}

void check_pass(const State& state, const std::vector<Schedule>& schedules,
                RunResult& out) {
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const Checked checked =
        check_schedule(state.dags[i], bench_capacity(), schedules[i]);
    if (!checked.error.empty()) {
      out.fail("job " + std::to_string(i) + ": " + checked.error);
    }
  }
}

RunResult traced_run(const Config& config, const RunOptions& options) {
  RunResult out;
  set_layer_defaults(out);
  const auto state = set_up(config, options.seed, out);
  const std::size_t n = kTracedJobs;

  std::vector<Schedule> plain, traced;
  const double plain_s =
      schedule_pass(*state->scheduler, *state, n, false, plain, nullptr);

  // The same scheduler configuration with a timing decorator on the guide.
  spear::MctsOptions mcts;
  mcts.initial_budget = 1000;
  mcts.min_budget = 100;
  mcts.search_mode = config.mode;
  mcts.name = "Spear";
  auto clock = std::make_shared<GuideClock>();
  spear::MctsScheduler timed(
      mcts, make_timed_guide(std::make_shared<spear::DrlDecisionPolicy>(
                                 state->policy, /*greedy=*/true),
                             clock));
  spear::MctsScheduler::Stats stats;
  const double traced_s = schedule_pass(timed, *state, n, true, traced, &stats);
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_placements(plain[i], traced[i])) {
      out.fail("traced placements differ from untraced on job " +
               std::to_string(i));
    }
  }
  check_pass(*state, traced, out);
  out.attempted = static_cast<std::int64_t>(2 * n);

  const double jobs = static_cast<double>(n);
  set_search_metrics(stats, jobs, out);
  out.set("rl.guide_busy_ms_per_job", clock->ms() / jobs, "ms");
  out.set("rl.guide_share", clock->ms() / (1e3 * traced_s), "ratio");
  if (config.mode == spear::SearchMode::kRoot) {
    out.set("rl.search_self_ms_per_job", (1e3 * traced_s - clock->ms()) / jobs,
            "ms");
  } else {
    // Leaf results do not depend on the worker count (DESIGN.md §11).
    auto parallel = spear::make_spear_scheduler(
        state->policy, spear_options(config, kParallelWorkers));
    std::vector<Schedule> many;
    const double parallel_s =
        schedule_pass(*parallel, *state, n, false, many, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_placements(plain[i], many[i])) {
        out.fail("leaf placements differ between 1 and " +
                 std::to_string(kParallelWorkers) + " workers on job " +
                 std::to_string(i));
      }
    }
    out.attempted += static_cast<std::int64_t>(n);
    out.set("mcts.leaf_speedup", plain_s / parallel_s, "x");
  }
  out.set("obs.trace_overhead", traced_s / plain_s, "x");
  measure_layers({state->dags.begin(), state->dags.begin() + 4},
                 *state->policy, out);
  return out;
}

}  // namespace

RunResult run_offline(const RunOptions& options, bool leaf) {
  Config config;
  if (leaf) {
    config.tasks = kLeafTasks;
    config.mode = spear::SearchMode::kLeaf;
  }
  if (options.trace) return traced_run(config, options);

  RunResult out;
  const auto state = repeated_setup(
      kSetups, [&] { return set_up(config, options.seed, out); }, out);

  std::vector<Schedule> schedules;
  std::vector<double> latency_ms, done_s;
  const auto begin = Clock::now();
  while (schedules.size() < kQualityJobs ||
         seconds_since(begin) < options.seconds) {
    const Dag& dag = state->dags[schedules.size() % kDagsPerSeed];
    const auto start = Clock::now();
    schedules.push_back(state->scheduler->schedule(dag, bench_capacity()));
    latency_ms.push_back(ms_since(start));
    done_s.push_back(seconds_since(begin));
  }
  const double rss = peak_rss_mib();

  std::vector<double> ratio, makespan;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const Dag& dag = state->dags[i % kDagsPerSeed];
    const Checked checked = check_schedule(dag, bench_capacity(), schedules[i]);
    if (!checked.error.empty()) {
      out.fail("job " + std::to_string(i) + ": " + checked.error);
      continue;
    }
    const double bound = lower_bound(dag, bench_capacity());
    if (static_cast<double>(checked.makespan) < bound - 1e-9) {
      out.fail("makespan below the lower bound on job " + std::to_string(i));
    }
    if (i >= kDagsPerSeed &&
        !same_placements(schedules[i], schedules[i - kDagsPerSeed])) {
      out.fail("a repeated job was placed differently");
    }
    if (i < kQualityJobs) {
      ratio.push_back(static_cast<double>(checked.makespan) / bound);
      makespan.push_back(static_cast<double>(checked.makespan));
    }
  }
  if (leaf) {
    // Leaf results do not depend on the worker count (DESIGN.md §11).
    auto parallel = spear::make_spear_scheduler(
        state->policy, spear_options(config, kParallelWorkers));
    if (!same_placements(parallel->schedule(state->dags[0], bench_capacity()),
                         schedules[0])) {
      out.fail("leaf placements differ between 1 and " +
               std::to_string(kParallelWorkers) + " workers");
    }
  }

  out.attempted = static_cast<std::int64_t>(schedules.size());
  out.set("jobs_per_s", windowed_rate(done_s, kRateWindow), "1/s");
  out.set("latency_p50_ms", median(latency_ms), "ms");
  // A run has 8-17 jobs, fewer than the 40 a tail needs: the median is the
  // highest percentile the sample supports.
  out.set("latency_p90_ms", median(latency_ms), "ms");
  out.set("makespan_vs_lb", mean(ratio), "x");
  out.set("mean_jct_slots", mean(makespan), "slots");
  out.set("peak_rss_mb", rss, "MiB");
  return out;
}

}  // namespace spearbench
