// The traced run's instruments: a timing decorator around the search's
// guide policy, direct timings of the layer functions on states sampled
// from a workload, and the per-layer metric table every traced run fills.

#include "traced.h"

#include <algorithm>
#include <cstring>

#include "dag/io.h"
#include "env/env.h"
#include "sched/critical_path.h"
#include "svc/protocol.h"

namespace spearbench {
namespace {

using spear::DecisionPolicy;
using spear::SchedulingEnv;

/// Forwards every call to the wrapped guide and adds the time spent in its
/// scoring calls to a clock shared with all of its clones.
class TimedGuide final : public DecisionPolicy {
 public:
  TimedGuide(std::shared_ptr<DecisionPolicy> inner,
             std::shared_ptr<GuideClock> clock)
      : inner_(std::move(inner)), clock_(std::move(clock)) {}

  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override {
    const Span span(*clock_);
    return inner_->action_weights(env);
  }
  int pick(const SchedulingEnv& env, spear::Rng& rng) override {
    const Span span(*clock_);
    return inner_->pick(env, rng);
  }
  void pick_batch(const SchedulingEnv* const* envs, std::size_t n,
                  spear::Rng* const* rngs, int* out) override {
    const Span span(*clock_);
    inner_->pick_batch(envs, n, rngs, out);
  }
  bool supports_batch_eval() const override {
    return inner_->supports_batch_eval();
  }
  std::vector<std::vector<std::pair<int, double>>> action_weights_batch(
      const SchedulingEnv* const* envs, std::size_t n) override {
    const Span span(*clock_);
    return inner_->action_weights_batch(envs, n);
  }
  std::shared_ptr<DecisionPolicy> clone() const override {
    auto copy = inner_->clone();
    return copy ? std::make_shared<TimedGuide>(std::move(copy), clock_)
                : nullptr;
  }
  void enable_rollout_cache(std::size_t capacity) override {
    inner_->enable_rollout_cache(capacity);
  }
  std::int64_t rollout_cache_hits() const override {
    return inner_->rollout_cache_hits();
  }
  std::int64_t rollout_cache_misses() const override {
    return inner_->rollout_cache_misses();
  }
  void share_rollout_cache(
      std::shared_ptr<spear::SharedActionCache> cache) override {
    inner_->share_rollout_cache(std::move(cache));
  }
  std::int64_t forward_calls() const override {
    return inner_->forward_calls();
  }
  std::int64_t forward_rows() const override { return inner_->forward_rows(); }
  const std::vector<std::int64_t>* forward_hist() const override {
    return inner_->forward_hist();
  }
  void reset_forward_stats() override { inner_->reset_forward_stats(); }

 private:
  struct Span {
    explicit Span(GuideClock& clock) : clock(clock), start(Clock::now()) {}
    ~Span() {
      clock.ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start)
                             .count(),
                         std::memory_order_relaxed);
    }
    GuideClock& clock;
    Clock::time_point start;
  };

  std::shared_ptr<DecisionPolicy> inner_;
  std::shared_ptr<GuideClock> clock_;
};

/// Runs `body` over `n` items in passes until at least `min_seconds` of
/// timed work accumulated; returns microseconds per item.  `body(i)`
/// returns the seconds it spent on item i (untimed preparation excluded).
template <typename Body>
double us_per_item(std::size_t n, double min_seconds, Body&& body) {
  double spent = 0.0;
  std::size_t items = 0;
  while (n > 0 && (spent < min_seconds || items < n)) {
    for (std::size_t i = 0; i < n; ++i) spent += body(i);
    items += n;
  }
  return items > 0 ? 1e6 * spent / static_cast<double>(items) : 0.0;
}

constexpr double kProbeSeconds = 0.05;

}  // namespace

std::shared_ptr<DecisionPolicy> make_timed_guide(
    std::shared_ptr<DecisionPolicy> inner, std::shared_ptr<GuideClock> clock) {
  return std::make_shared<TimedGuide>(std::move(inner), std::move(clock));
}

Schedule schedule_with_window(spear::MctsScheduler& scheduler, const Dag& dag,
                              const spear::Policy& policy) {
  spear::EnvOptions env_options;
  env_options.max_ready = policy.featurizer().options().max_ready;
  return scheduler.schedule_env(SchedulingEnv(
      std::make_shared<Dag>(dag), bench_capacity(), env_options));
}

void accumulate(spear::MctsScheduler::Stats& into,
                const spear::MctsScheduler::Stats& from) {
  into.decisions += from.decisions;
  into.iterations += from.iterations;
  into.nodes_expanded += from.nodes_expanded;
  into.env_copies += from.env_copies;
  into.search_seconds += from.search_seconds;
  into.batched_rows += from.batched_rows;
  into.guide_forwards += from.guide_forwards;
  into.guide_forward_rows += from.guide_forward_rows;
  into.leaf_ticks += from.leaf_ticks;
  into.tt_hits += from.tt_hits;
  into.tt_misses += from.tt_misses;
  into.rollout_cache_hits += from.rollout_cache_hits;
  into.rollout_cache_misses += from.rollout_cache_misses;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void set_search_metrics(const spear::MctsScheduler::Stats& s, double jobs,
                        RunResult& out) {
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  out.set("mcts.iterations_per_s", ratio(d(s.iterations), s.search_seconds),
          "1/s");
  out.set("mcts.env_copies_per_iteration",
          ratio(d(s.env_copies), d(s.iterations)), "count");
  out.set("mcts.nodes_per_job", ratio(d(s.nodes_expanded), jobs), "count");
  out.set("mcts.leaf_rows_per_tick", ratio(d(s.batched_rows), d(s.leaf_ticks)),
          "count");
  out.set("mcts.tt_hit_ratio", ratio(d(s.tt_hits), d(s.tt_hits + s.tt_misses)),
          "ratio");
  out.set("mcts.rollout_cache_hit_ratio",
          ratio(d(s.rollout_cache_hits),
                d(s.rollout_cache_hits + s.rollout_cache_misses)),
          "ratio");
  out.set("nn.rows_per_forward",
          ratio(d(s.guide_forward_rows), d(s.guide_forwards)), "count");
}

void set_layer_defaults(RunResult& out) {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"mcts.iterations_per_s", "1/s"},
      {"mcts.env_copies_per_iteration", "count"},
      {"mcts.nodes_per_job", "count"},
      {"mcts.leaf_rows_per_tick", "count"},
      {"mcts.tt_hit_ratio", "ratio"},
      {"mcts.rollout_cache_hit_ratio", "ratio"},
      {"mcts.leaf_speedup", "x"},
      {"rl.guide_busy_ms_per_job", "ms"},
      {"rl.guide_share", "ratio"},
      {"rl.search_self_ms_per_job", "ms"},
      {"nn.rows_per_forward", "count"},
      {"nn.forward_1row_us", "us"},
      {"nn.forward_row_us_at32", "us"},
      {"env.step_us", "us"},
      {"env.copy_us", "us"},
      {"env.featurize_us", "us"},
      {"dag.parse_us", "us"},
      {"svc.parse_us", "us"},
      {"svc.submit_us", "us"},
      {"svc.encode_us", "us"},
      {"svc.queue_ms_p50", "ms"},
      {"svc.search_ms_p50", "ms"},
      {"svc.overhead_ms_p50", "ms"},
      {"svc.rows_per_forward", "count"},
      {"svc.generator_lag_ms", "ms"},
      {"exec.run_ms_p50", "ms"},
      {"exec.research_ms_per_job", "ms"},
      {"exec.researches_per_job", "count"},
      {"exec.speculations_per_job", "count"},
      {"sched.plan_ms_p50", "ms"},
      {"obs.trace_overhead", "x"},
  };
  for (const auto& [name, unit] : table) out.set(name, 0.0, unit);
}

std::string submit_line(const std::string& id, const std::string& dag_text,
                        std::int64_t budget_ms, std::int64_t iterations) {
  // dag_text comes from dag_to_text: printable ASCII and '\n' only.
  std::string escaped;
  for (char ch : dag_text) {
    if (ch == '\n') {
      escaped += "\\n";
    } else {
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += ch;
    }
  }
  std::string line = "{\"id\":\"" + id + "\",\"method\":\"submit\",\"dag\":\"" +
                     escaped + "\",\"budget_ms\":" + std::to_string(budget_ms);
  if (iterations > 0) line += ",\"iterations\":" + std::to_string(iterations);
  return line + "}";
}

void measure_layers(const std::vector<Dag>& dags, const spear::Policy& policy,
                    RunResult& out) {
  const ResourceVector capacity = bench_capacity();
  spear::EnvOptions env_options;
  env_options.max_ready = policy.featurizer().options().max_ready;

  // States along a heuristic trajectory through each DAG, plus that
  // trajectory's schedule (for the response encoder).
  std::vector<SchedulingEnv> states;
  std::vector<int> actions;
  std::vector<std::string> texts, lines;
  std::vector<spear::svc::SubmitResult> results;
  std::vector<double> plan_ms;
  spear::HeuristicDecisionPolicy heuristic;
  spear::Rng rng(1);
  auto planner = spear::make_critical_path_scheduler();
  for (std::size_t i = 0; i < dags.size(); ++i) {
    const Dag& dag = dags[i];
    SchedulingEnv env(std::make_shared<Dag>(dag), capacity, env_options);
    while (!env.done()) {
      const int action = heuristic.pick(env, rng);
      states.push_back(env);
      actions.push_back(action);
      env.step(action);
    }
    texts.push_back(spear::dag_to_text(dag));
    lines.push_back(
        submit_line("r" + std::to_string(i), texts.back(), 10000, 0));
    const auto start = Clock::now();
    const Schedule plan = planner->schedule(dag, capacity);
    plan_ms.push_back(ms_since(start));
    spear::svc::SubmitResult result;
    result.makespan = plan.makespan(dag);
    result.placements = spear::svc::placement_names(plan, dag);
    results.push_back(std::move(result));
  }
  out.set("sched.plan_ms_p50", median(plan_ms), "ms");

  const auto probe = [&](const char* name, std::size_t n, auto&& body) {
    out.set(name, us_per_item(n, kProbeSeconds, body), "us");
  };
  std::vector<SchedulingEnv> copies;
  copies.reserve(states.size());
  probe("env.copy_us", states.size(), [&](std::size_t i) {
    if (i == 0) copies.clear();
    const auto start = Clock::now();
    copies.push_back(states[i]);
    return seconds_since(start);
  });
  probe("env.step_us", states.size(), [&](std::size_t i) {
    SchedulingEnv env = states[i];
    const auto start = Clock::now();
    env.step(actions[i]);
    return seconds_since(start);
  });
  const spear::Featurizer& featurizer = policy.featurizer();
  std::vector<double> row(featurizer.input_dim(policy.resource_dims()));
  probe("env.featurize_us", states.size(), [&](std::size_t i) {
    const auto start = Clock::now();
    featurizer.featurize_into(states[i], row.data());
    return seconds_since(start);
  });

  // The network forward alone, on featurized rows of the sampled states.
  const spear::Mlp& net = policy.net();
  spear::Mlp::ForwardWorkspace ws;
  const std::size_t width = row.size();
  std::vector<double> inputs(states.size() * width);
  for (std::size_t i = 0; i < states.size(); ++i) {
    featurizer.featurize_into(states[i], inputs.data() + i * width);
  }
  const auto forward_us = [&](std::size_t batch) {
    const std::size_t batches = std::max<std::size_t>(states.size() / batch, 1);
    return us_per_item(batches, kProbeSeconds, [&](std::size_t b) {
             spear::Matrix& in = net.begin_forward(ws, batch);
             for (std::size_t r = 0; r < batch; ++r) {
               const std::size_t s = (b * batch + r) % states.size();
               std::memcpy(&in(r, 0), inputs.data() + s * width,
                           width * sizeof(double));
             }
             const auto start = Clock::now();
             net.forward_ws(ws);
             return seconds_since(start);
           }) / static_cast<double>(batch);
  };
  out.set("nn.forward_1row_us", forward_us(1), "us");
  out.set("nn.forward_row_us_at32", forward_us(32), "us");

  probe("dag.parse_us", texts.size(), [&](std::size_t i) {
    const auto start = Clock::now();
    const Dag parsed = spear::dag_from_text(texts[i]);
    const double spent = seconds_since(start);
    if (parsed.num_tasks() != dags[i].num_tasks()) {
      out.fail("dag_from_text lost tasks");
    }
    return spent;
  });
  probe("svc.parse_us", lines.size(), [&](std::size_t i) {
    const auto start = Clock::now();
    const auto request = spear::svc::parse_request(lines[i]);
    const double spent = seconds_since(start);
    if (request.submit.dag_text != texts[i]) {
      out.fail("parse_request altered the DAG text");
    }
    return spent;
  });
  probe("svc.encode_us", dags.size(), [&](std::size_t i) {
    const auto start = Clock::now();
    const std::string line = spear::svc::make_placed_response(
        "r" + std::to_string(i), results[i]);
    const double spent = seconds_since(start);
    if (line.empty()) out.fail("empty placed response");
    return spent;
  });
}

}  // namespace spearbench
