// serviced: an in-process SchedulerService (2 workers, service defaults:
// leaf mode, one search thread, private inference) with the trained
// policy.  Requests are JSON lines parsed by svc::parse_request; each
// carries a 10-task random layered DAG, or a 4+4- or 6+6-task MapReduce
// job, as DAG text.
//
//   closed loop  2 requests outstanding; gives jobs_per_s
//   open loop    Poisson arrivals at kOpenRate; gives the latencies, each
//                timed from when the request was due
//   probes       untimed, after peak memory is read: submits with a 50M
//                iteration budget to a service whose operator cap allows
//                it.  They fail today (std::bad_alloc from the up-front
//                tree reservation in MctsScheduler), and count as failed.
//
// Operations come in rounds of kRound requests plus one probe, so failed
// is the same share of attempted in every run.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "dag/generator.h"
#include "dag/io.h"
#include "obs/obs.h"
#include "svc/service.h"
#include "trace/mapreduce.h"
#include "trace/trace.h"
#include "traced.h"

namespace spearbench {
namespace {

namespace svc = spear::svc;

constexpr int kWorkers = 2;
/// Set-ups per run: each is short and noisy, so the median takes nine.
constexpr int kSetups = 9;
/// Requests per round; each round also sends one deep-budget probe.
constexpr std::size_t kRound = 50;
/// Open-loop arrival rate: about a quarter of the closed-loop throughput
/// (about 52/s on a 4-core host), so that few requests queue.  At half of
/// the throughput, queueing amplified the host's slow spells into 25%
/// run-to-run swings of the latencies (README).
constexpr double kOpenRate = 12.0;
/// Responses per closed-loop throughput window.
constexpr std::size_t kRateWindow = 25;
/// Share of the run spent in the closed loop; the rest is the open loop,
/// whose latencies move more with the host's slow spells and so get the
/// longer phase.
constexpr double kClosedShare = 0.3;
/// Request pool generated per seed.
constexpr std::size_t kPool = 256;
/// Sizes of the pool's requests (see request_pool): fixed, so that the
/// spread of the response times is the DAGs' shapes and not their sizes.
constexpr std::size_t kLayeredTasks = 10;
constexpr std::size_t kSmallStage = 4;
constexpr std::size_t kLargeStage = 6;
/// Deadline of every timed request: generous, so no wall-clock cutoff can
/// change a placement (the service caps budgets at 10 s).
constexpr std::int64_t kBudgetMs = 10000;
/// The deep-budget probes.
constexpr std::int64_t kProbeIterations = 50'000'000;
constexpr std::int64_t kProbeBudgetMs = 100;
constexpr std::size_t kTracedRequests = 40;
constexpr std::uint64_t kWarmupSeed = 0x5eed;

struct Request {
  std::string line;
  Dag dag;  ///< the benchmark's own copy, parsed from the same text
  std::map<std::string, TaskId> ids;
};

Request make_request(const std::string& id, const Dag& dag,
                     std::int64_t budget_ms, std::int64_t iterations) {
  const std::string text = spear::dag_to_text(dag);
  Request request{submit_line(id, text, budget_ms, iterations),
                  spear::dag_from_text(text), {}};
  for (const auto& task : request.dag.tasks()) {
    request.ids[task.name.empty() ? "t" + std::to_string(task.id) : task.name] =
        task.id;
  }
  return request;
}

Dag small_layered_dag(spear::Rng& rng, std::size_t tasks) {
  spear::DagGeneratorOptions options;
  options.num_tasks = tasks;
  return spear::generate_random_dag(options, rng);
}

/// `count` MapReduce trace jobs of exactly `stage_tasks` map and
/// `stage_tasks` reduce tasks, with the trace's runtimes and demands.
std::vector<Dag> mapreduce_dags(spear::Rng& rng, std::size_t count,
                                std::size_t stage_tasks) {
  spear::TraceOptions trace;
  trace.num_jobs = count;
  trace.min_tasks_per_stage = stage_tasks;
  trace.max_map_tasks = stage_tasks;
  trace.max_reduce_tasks = stage_tasks;
  trace.median_map_tasks = static_cast<double>(stage_tasks);
  trace.median_reduce_tasks = static_cast<double>(stage_tasks);
  trace.median_map_runtime = 20;
  trace.median_reduce_runtime = 12;
  trace.max_task_runtime = 60;
  spear::Rng trace_rng = rng.split();
  std::vector<Dag> dags;
  for (const auto& job : spear::generate_trace(trace, trace_rng)) {
    dags.push_back(spear::mapreduce_to_dag(job));
  }
  return dags;
}

/// In every five requests, two random layered DAGs of kLayeredTasks tasks
/// and two MapReduce jobs of kSmallStage + kSmallStage tasks (each kind
/// 25-50 ms to search here), then one MapReduce job of kLargeStage +
/// kLargeStage tasks (80-100 ms).  The response times form two dense
/// clusters, with the p50 inside the small one and the p90 inside the large
/// one, so neither percentile rests on the few requests that happen to be
/// slowed by the other worker's search (README).
std::vector<Request> request_pool(std::uint64_t seed) {
  spear::Rng rng(seed);
  const std::vector<Dag> small = mapreduce_dags(rng, kPool, kSmallStage);
  const std::vector<Dag> large = mapreduce_dags(rng, kPool, kLargeStage);
  std::vector<Request> pool;
  for (std::size_t k = 0; k < kPool; ++k) {
    const std::string id = "q" + std::to_string(k);
    const Dag dag = k % 5 == 4   ? large[k]
                    : k % 2 == 0 ? small_layered_dag(rng, kLayeredTasks)
                                 : small[k];
    pool.push_back(make_request(id, dag, kBudgetMs, 0));
  }
  return pool;
}

struct Outcome {
  std::size_t request = 0;  ///< index into the pool
  bool ok = false;
  svc::SubmitResult result;
  Clock::time_point due;   ///< when the request was due to be sent
  Clock::time_point done;  ///< when the responder ran
  double submit_us = 0.0;  ///< duration of the submit call itself
  double ms() const {
    return std::chrono::duration<double, std::milli>(done - due).count();
  }
};

/// Sends parsed requests to the service and collects the responses.
class Client {
 public:
  explicit Client(svc::SchedulerService& service) : service_(service) {}

  void send(const std::vector<Request>& pool, std::size_t index,
            Clock::time_point due) {
    const svc::Request request = svc::parse_request(pool[index].line);
    std::size_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot = outcomes_.size();
      outcomes_.emplace_back();
      outcomes_.back().request = index;
      outcomes_.back().due = due;
      ++sent_;
    }
    const auto start = Clock::now();
    service_.submit(request.submit,
                    [this, slot](bool ok, const svc::SubmitResult& result,
                                 const svc::Rejection&) {
                      const auto now = Clock::now();
                      std::lock_guard<std::mutex> lock(mutex_);
                      Outcome& outcome = outcomes_[slot];
                      outcome.ok = ok;
                      outcome.result = result;
                      outcome.done = now;
                      ++completed_;
                      cv_.notify_all();
                    });
    const double us = 1e6 * seconds_since(start);
    std::lock_guard<std::mutex> lock(mutex_);
    outcomes_[slot].submit_us = us;
  }

  void wait_completed(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return completed_ >= n; });
  }
  void wait_all() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return completed_ == sent_; });
  }
  /// Call only once every response arrived (wait_all).
  const std::deque<Outcome>& outcomes() const { return outcomes_; }

 private:
  svc::SchedulerService& service_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Outcome> outcomes_;  // guarded by mutex_
  std::size_t sent_ = 0;          // guarded by mutex_
  std::size_t completed_ = 0;     // guarded by mutex_
};

/// Two requests outstanding, cycling through the pool.  Sends until
/// `seconds` passed, at least `min_count` were sent and the count is a
/// multiple of `round`; returns the seconds until the last response.
double closed_loop(Client& client, const std::vector<Request>& pool,
                   double seconds, std::size_t min_count, std::size_t round) {
  const auto begin = Clock::now();
  std::size_t sent = 0, handled = 0;
  for (; sent < 2; ++sent) client.send(pool, sent % pool.size(), Clock::now());
  while (handled < sent) {
    client.wait_completed(++handled);
    if (sent < min_count || seconds_since(begin) < seconds ||
        sent % round != 0) {
      client.send(pool, sent % pool.size(), Clock::now());
      ++sent;
    }
  }
  return seconds_since(begin);
}

/// Poisson arrivals at kOpenRate for `count` requests; returns the lag of
/// the generator behind each due time, in ms.
std::vector<double> open_loop(Client& client, const std::vector<Request>& pool,
                              std::size_t count, std::uint64_t seed) {
  spear::Rng rng(seed ^ 0x0be71007ULL);
  const auto begin = Clock::now();
  double at = 0.0;
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < count; ++i) {
    const auto due = begin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(at));
    std::this_thread::sleep_until(due);
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    client.send(pool, i % pool.size(), due);
    at += -std::log(1.0 - rng.uniform()) / kOpenRate;
  }
  client.wait_all();
  return lag_ms;
}

/// Closed-loop throughput: the median over windows of kRateWindow
/// responses.
double closed_rate(const Client& client) {
  Clock::time_point begin = Clock::time_point::max();
  std::vector<double> done_s;
  for (const Outcome& o : client.outcomes()) begin = std::min(begin, o.due);
  for (const Outcome& o : client.outcomes()) {
    done_s.push_back(std::chrono::duration<double>(o.done - begin).count());
  }
  std::sort(done_s.begin(), done_s.end());
  return windowed_rate(done_s, kRateWindow);
}

svc::ServiceOptions service_options(
    std::shared_ptr<const spear::Policy> policy) {
  svc::ServiceOptions options;
  options.capacity = bench_capacity();
  options.workers = kWorkers;
  options.policy = std::move(policy);
  return options;
}

struct State {
  std::shared_ptr<const spear::Policy> policy;
  std::vector<Request> pool;
  std::unique_ptr<svc::SchedulerService> service;
};

std::unique_ptr<State> set_up(std::uint64_t seed, RunResult& out) {
  auto state = std::make_unique<State>();
  state->policy = load_bench_policy();
  state->pool = request_pool(seed);
  state->service =
      std::make_unique<svc::SchedulerService>(service_options(state->policy));
  state->service->start();
  // One warm-up job per worker, of the pool's kind, sent together so that
  // each worker serves one.
  spear::Rng rng(kWarmupSeed);
  const std::vector<Request> warmup = {make_request(
      "warmup", small_layered_dag(rng, kLayeredTasks), kBudgetMs, 0)};
  Client client(*state->service);
  for (int i = 0; i < kWorkers; ++i) client.send(warmup, 0, Clock::now());
  client.wait_all();
  for (const Outcome& outcome : client.outcomes()) {
    if (!outcome.ok) out.fail("warm-up request was rejected");
  }
  return state;
}

/// Checks one response against the benchmark's copy of its DAG; returns
/// makespan / lower bound, or 0 when the request failed or a check did.
double check_outcome(const Outcome& outcome, const std::vector<Request>& pool,
                     bool must_be_full_search, RunResult& out) {
  if (!outcome.ok) return 0.0;
  const Request& request = pool[outcome.request];
  std::vector<std::pair<TaskId, Time>> starts;
  for (const auto& [name, start] : outcome.result.placements) {
    const auto it = request.ids.find(name);
    if (it == request.ids.end()) {
      out.fail("placement names unknown task " + name);
      return 0.0;
    }
    starts.emplace_back(it->second, start);
  }
  const Checked checked = check_reported(request.dag, bench_capacity(), starts,
                                         outcome.result.makespan);
  if (!checked.error.empty()) {
    out.fail("request " + std::to_string(outcome.request) + ": " +
             checked.error);
    return 0.0;
  }
  if (must_be_full_search && (outcome.result.mode != svc::ServeMode::kSearch ||
                              outcome.result.degraded)) {
    out.fail("request served below full search despite its generous deadline");
  }
  const double bound = lower_bound(request.dag, bench_capacity());
  if (static_cast<double>(checked.makespan) < bound - 1e-9) {
    out.fail("makespan below the lower bound");
  }
  return static_cast<double>(checked.makespan) / bound;
}

/// Sends `count` deep-budget probes to a service whose iteration cap
/// admits them; returns how many were not placed.
std::int64_t run_probes(std::shared_ptr<const spear::Policy> policy,
                        std::size_t count, RunResult& out) {
  svc::ServiceOptions options = service_options(std::move(policy));
  options.search_iterations = kProbeIterations;
  svc::SchedulerService service(options);
  service.start();
  spear::Rng rng(kWarmupSeed + 1);
  const std::vector<Request> probe = {make_request(
      "probe", small_layered_dag(rng, 20), kProbeBudgetMs, kProbeIterations)};
  Client client(service);
  for (std::size_t i = 0; i < count; ++i) client.send(probe, 0, Clock::now());
  client.wait_all();
  service.shutdown();
  std::int64_t failed = 0;
  for (const Outcome& outcome : client.outcomes()) {
    if (!outcome.ok) {
      ++failed;
    } else {
      check_outcome(outcome, probe, /*must_be_full_search=*/false, out);
    }
  }
  return failed;
}

/// The placements each service worker would produce for `request`: the
/// worker's scheduler rebuilt from its options (per-worker seed), with a
/// timing decorator on its guide.
struct References {
  std::vector<std::unique_ptr<spear::MctsScheduler>> workers;
  std::shared_ptr<GuideClock> clock = std::make_shared<GuideClock>();
  spear::MctsScheduler::Stats stats;
  double seconds = 0.0;
  double jobs = 0.0;

  explicit References(std::shared_ptr<const spear::Policy> policy) {
    auto prototype = std::make_shared<spear::DrlDecisionPolicy>(policy, true);
    for (int i = 0; i < kWorkers; ++i) {
      spear::MctsOptions mcts;
      mcts.initial_budget = 400;
      mcts.min_budget = 100;
      mcts.seed =
          42 + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
      mcts.name = "Spear";
      mcts.search_mode = spear::SearchMode::kLeaf;
      workers.push_back(std::make_unique<spear::MctsScheduler>(
          mcts, make_timed_guide(prototype->clone(), clock)));
      workers.back()->set_anytime_budgets(400, 100, kBudgetMs);
    }
  }

  std::vector<std::vector<std::pair<std::string, Time>>> placements(
      const Dag& dag, const spear::Policy& policy) {
    std::vector<std::vector<std::pair<std::string, Time>>> out;
    for (auto& worker : workers) {
      const auto start = Clock::now();
      const Schedule schedule = schedule_with_window(*worker, dag, policy);
      seconds += seconds_since(start);
      jobs += 1.0;
      accumulate(stats, worker->last_stats());
      out.push_back(svc::placement_names(schedule, dag));
    }
    return out;
  }
};

RunResult traced_run(const RunOptions& options) {
  RunResult out;
  set_layer_defaults(out);
  const auto state = set_up(options.seed, out);
  svc::SchedulerService& service = *state->service;
  const std::size_t n = kTracedRequests;

  Client plain(service);
  const double plain_s = closed_loop(plain, state->pool, 0.0, n, 1);

  auto registry = std::make_shared<spear::obs::MetricsRegistry>();
  spear::obs::install_metrics(registry);
  const svc::ServiceCounters before = service.counters();
  Client traced(service);
  const double traced_s = closed_loop(traced, state->pool, 0.0, n, 1);
  Client open(service);
  const std::vector<double> lag_ms =
      open_loop(open, state->pool, n, options.seed);
  const svc::ServiceCounters after = service.counters();
  spear::obs::shutdown();

  std::vector<double> submit_us, queue_ms, search_ms, overhead_ms;
  for (const Outcome& o : open.outcomes()) {
    submit_us.push_back(o.submit_us);
    queue_ms.push_back(o.result.queue_ms);
    search_ms.push_back(o.result.search_ms);
    overhead_ms.push_back(o.ms() - o.result.queue_ms - o.result.search_ms);
  }
  out.set("svc.submit_us", mean(submit_us), "us");
  out.set("svc.queue_ms_p50", median(queue_ms), "ms");
  out.set("svc.search_ms_p50", median(search_ms), "ms");
  out.set("svc.overhead_ms_p50", median(overhead_ms), "ms");
  out.set("svc.generator_lag_ms", median(lag_ms), "ms");
  const auto rows = after.search_forward_rows - before.search_forward_rows;
  const auto forwards = after.search_forwards - before.search_forwards;
  out.set("svc.rows_per_forward",
          forwards > 0
              ? static_cast<double>(rows) / static_cast<double>(forwards)
              : 0.0,
          "count");
  out.set("obs.trace_overhead", traced_s / plain_s, "x");

  // Every response must equal what one of the workers would place.
  References references(state->policy);
  std::vector<std::vector<std::vector<std::pair<std::string, Time>>>> expected;
  for (std::size_t i = 0; i < n; ++i) {
    expected.push_back(
        references.placements(state->pool[i].dag, *state->policy));
  }
  for (const Client* client : {&plain, &traced, &open}) {
    for (const Outcome& o : client->outcomes()) {
      out.attempted += 1;
      if (!o.ok) {
        out.failed += 1;
        continue;
      }
      check_outcome(o, state->pool, true, out);
      const auto& choices = expected[o.request];
      if (std::find(choices.begin(), choices.end(), o.result.placements) ==
          choices.end()) {
        out.fail("request " + std::to_string(o.request) +
                 " placed differently from every worker's own search");
      }
    }
  }
  set_search_metrics(references.stats, references.jobs, out);
  out.set("rl.guide_busy_ms_per_job", references.clock->ms() / references.jobs,
          "ms");
  out.set("rl.guide_share", references.clock->ms() / (1e3 * references.seconds),
          "ratio");

  std::vector<Dag> sample;
  for (std::size_t i = 0; i < 16; ++i) sample.push_back(state->pool[i].dag);
  measure_layers(sample, *state->policy, out);
  return out;
}

}  // namespace

RunResult run_serviced(const RunOptions& options) {
  if (options.trace) return traced_run(options);

  RunResult out;
  const auto state = repeated_setup(
      kSetups, [&] { return set_up(options.seed, out); }, out);

  Client closed(*state->service);
  closed_loop(closed, state->pool, kClosedShare * options.seconds, kRound,
              kRound);
  const double open_seconds = (1.0 - kClosedShare) * options.seconds;
  const auto rounds = static_cast<std::size_t>(
      std::ceil(kOpenRate * open_seconds / static_cast<double>(kRound)));
  Client open(*state->service);
  open_loop(open, state->pool, rounds * kRound, options.seed);
  const double rss = peak_rss_mib();
  state->service->shutdown();

  std::vector<double> latency_ms, ratio, makespan;
  for (const Outcome& o : closed.outcomes()) {
    if (!o.ok) out.failed += 1;
    check_outcome(o, state->pool, true, out);
  }
  for (const Outcome& o : open.outcomes()) {
    if (!o.ok) {
      out.failed += 1;
      continue;
    }
    latency_ms.push_back(o.ms());
    const double r = check_outcome(o, state->pool, true, out);
    ratio.push_back(r);
    makespan.push_back(static_cast<double>(o.result.makespan));
  }
  const std::size_t requests =
      closed.outcomes().size() + open.outcomes().size();
  const std::size_t probes = requests / kRound;
  out.failed += run_probes(state->policy, probes, out);
  out.attempted = static_cast<std::int64_t>(requests + probes);

  out.set("jobs_per_s", closed_rate(closed), "1/s");
  out.set("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
  out.set("latency_p90_ms", percentile(latency_ms, 0.9), "ms");
  out.set("makespan_vs_lb", mean(ratio), "x");
  out.set("mean_jct_slots", mean(makespan), "slots");
  out.set("peak_rss_mb", rss, "MiB");
  return out;
}

}  // namespace spearbench
