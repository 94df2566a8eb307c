// Shared pieces of the spearbench binary: run options, the result every
// workload returns, timing and summary helpers, and the output checker
// (check.cpp) the workloads apply to every schedule and event log.
//
// The benchmark reaches the program only through its public calls
// (make_spear_scheduler, SchedulerService::submit, svc::parse_request,
// ExecutionEngine::run and the layer functions the traced run times).

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/schedule.h"
#include "dag/dag.h"
#include "exec/engine.h"
#include "rl/policy.h"

namespace spearbench {

using spear::Dag;
using spear::ResourceVector;
using spear::Schedule;
using spear::TaskId;
using spear::Time;
using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operations it attempted and failed, whether
/// every checked output was correct, and its metrics by name.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// First check failure (printed to stderr); empty when correct.
  std::string why;

  void fail(const std::string& message) {
    if (correct) why = message;
    correct = false;
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

RunResult run_offline(const RunOptions& options, bool leaf);
RunResult run_serviced(const RunOptions& options);
RunResult run_online_replay(const RunOptions& options);

// --- helpers ---------------------------------------------------------------

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Throughput robust to the host's slow spells: `done_s` holds the
/// completion times of consecutive operations (seconds since the phase
/// began); returns the median over windows of `window` operations of
/// window / (window's duration).
double windowed_rate(const std::vector<double>& done_s, std::size_t window);

/// Sets a workload up `times` times, releasing each state before the next,
/// and keeps the last; records the median set-up time as setup_s.
template <typename SetUp>
auto repeated_setup(int times, SetUp&& set_up, RunResult& out) {
  std::vector<double> seconds;
  decltype(set_up()) state;
  for (int i = 0; i < times; ++i) {
    state.reset();
    const auto start = Clock::now();
    state = set_up();
    seconds.push_back(seconds_since(start));
  }
  out.set("setup_s", median(seconds), "s");
  return state;
}

/// VmHWM of this process in MiB (peak resident set so far).
double peak_rss_mib();

/// The trained policy the paper path uses (bench_policy.txt at the root of
/// the checkout).  Throws when the file is missing or has the wrong shape.
std::shared_ptr<const spear::Policy> load_bench_policy();

/// The capacity every workload schedules against (two resources, 1.0 each).
ResourceVector bench_capacity();

// --- output checker (check.cpp) -------------------------------------------

/// max(critical path, per-resource total load / capacity): no schedule of
/// `dag` on `capacity` can finish earlier.
double lower_bound(const Dag& dag, const ResourceVector& capacity);

/// Checks a schedule given as (task, start) pairs: every task placed exactly
/// once at a start >= 0, no task before its parents finish, and the
/// summed demand of running tasks within capacity at every start instant.
/// Returns the recomputed makespan, or the first violation.
struct Checked {
  Time makespan = 0;
  std::string error;  ///< empty when valid
};
Checked check_placements(const Dag& dag, const ResourceVector& capacity,
                         const std::vector<std::pair<TaskId, Time>>& starts);
/// check_placements, plus the reported makespan must equal the recomputed.
Checked check_reported(const Dag& dag, const ResourceVector& capacity,
                       const std::vector<std::pair<TaskId, Time>>& starts,
                       Time reported_makespan);
Checked check_schedule(const Dag& dag, const ResourceVector& capacity,
                       const Schedule& schedule);

/// Checks an execution-engine event log: one winning finish per task at
/// start + realized duration, every attempt started after its parents'
/// winning finishes, and capacity over all attempts (speculative
/// duplicates included, each until its cancel).  On success also returns
/// the realized winning-attempt durations (indexed by task) in `realized`.
Checked check_events(const Dag& dag, const ResourceVector& capacity,
                     const std::vector<spear::exec::ExecEvent>& events,
                     std::vector<Time>* realized);

/// Self-test of the checker and the lower bound: corrupted schedules must
/// be rejected, and on small DAGs an exhaustive solver must confirm
/// lower bound <= optimum <= Spear's makespan.  Returns the first failure.
std::optional<std::string> checker_self_test(
    std::shared_ptr<const spear::Policy> policy);

}  // namespace spearbench
