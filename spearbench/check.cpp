// The benchmark's own output checker and lower bound.  It re-derives
// everything from the DAG and the placements or event log, and shares no
// code with Schedule::validate or exec::validate_events, so a fault in
// those cannot hide a wrong output.

#include <algorithm>
#include <limits>
#include <map>

#include "bench.h"
#include "core/spear.h"
#include "dag/generator.h"

namespace spearbench {
namespace {

// Demand sums accumulate floating-point error over tens of tasks.
constexpr double kSlack = 1e-9;

std::string task_label(const Dag& dag, TaskId t) {
  const std::string& name = dag.task(t).name;
  return name.empty() ? "t" + std::to_string(t) : name;
}

/// An occupancy interval [start, end) of one attempt of `task`.
struct Interval {
  TaskId task = spear::kInvalidTask;
  Time start = 0;
  Time end = 0;
};

/// Capacity check over all intervals: usage only rises at a start, so the
/// start instants are the only ones to test.
std::string check_capacity(const Dag& dag, const ResourceVector& capacity,
                           const std::vector<Interval>& intervals) {
  for (const Interval& at : intervals) {
    const Time t = at.start;
    std::vector<double> used(capacity.dims(), 0.0);
    for (const Interval& other : intervals) {
      if (other.start <= t && t < other.end) {
        for (std::size_t r = 0; r < capacity.dims(); ++r) {
          used[r] += dag.task(other.task).demand[r];
        }
      }
    }
    for (std::size_t r = 0; r < capacity.dims(); ++r) {
      if (used[r] > capacity[r] + kSlack) {
        return "resource " + std::to_string(r) + " overloaded at t=" +
               std::to_string(t) + " (" + std::to_string(used[r]) + " > " +
               std::to_string(capacity[r]) + ")";
      }
    }
  }
  return {};
}

}  // namespace

double lower_bound(const Dag& dag, const ResourceVector& capacity) {
  // Longest path by runtime, in topological order.
  std::vector<Time> finish(dag.num_tasks(), 0);
  Time critical = 0;
  for (TaskId t : dag.topological_order()) {
    Time ready = 0;
    for (TaskId p : dag.parents(t)) ready = std::max(ready, finish[p]);
    finish[t] = ready + dag.task(t).runtime;
    critical = std::max(critical, finish[t]);
  }
  double bound = static_cast<double>(critical);
  for (std::size_t r = 0; r < capacity.dims(); ++r) {
    double load = 0.0;
    for (const auto& task : dag.tasks()) {
      load += static_cast<double>(task.runtime) * task.demand[r];
    }
    bound = std::max(bound, load / capacity[r]);
  }
  return bound;
}

Checked check_placements(const Dag& dag, const ResourceVector& capacity,
                         const std::vector<std::pair<TaskId, Time>>& starts) {
  Checked out;
  const auto n = static_cast<TaskId>(dag.num_tasks());
  std::vector<Time> start(dag.num_tasks(), -1);
  for (const auto& [task, at] : starts) {
    if (task < 0 || task >= n) {
      out.error = "placement names unknown task " + std::to_string(task);
      return out;
    }
    if (start[task] >= 0) {
      out.error = "task " + task_label(dag, task) + " placed twice";
      return out;
    }
    if (at < 0) {
      out.error = "task " + task_label(dag, task) + " starts before 0";
      return out;
    }
    start[task] = at;
  }
  std::vector<Interval> intervals;
  for (TaskId t = 0; t < n; ++t) {
    if (start[t] < 0) {
      out.error = "task " + task_label(dag, t) + " never placed";
      return out;
    }
    for (TaskId p : dag.parents(t)) {
      if (start[t] < start[p] + dag.task(p).runtime) {
        out.error = "task " + task_label(dag, t) + " starts at " +
                    std::to_string(start[t]) + " before parent " +
                    task_label(dag, p) + " finishes at " +
                    std::to_string(start[p] + dag.task(p).runtime);
        return out;
      }
    }
    const Time end = start[t] + dag.task(t).runtime;
    intervals.push_back({t, start[t], end});
    out.makespan = std::max(out.makespan, end);
  }
  out.error = check_capacity(dag, capacity, intervals);
  return out;
}

Checked check_reported(const Dag& dag, const ResourceVector& capacity,
                       const std::vector<std::pair<TaskId, Time>>& starts,
                       Time reported_makespan) {
  Checked out = check_placements(dag, capacity, starts);
  if (out.error.empty() && reported_makespan != out.makespan) {
    out.error = "reported makespan " + std::to_string(reported_makespan) +
                " != recomputed " + std::to_string(out.makespan);
  }
  return out;
}

Checked check_schedule(const Dag& dag, const ResourceVector& capacity,
                       const Schedule& schedule) {
  std::vector<std::pair<TaskId, Time>> starts;
  for (const auto& p : schedule.placements()) {
    starts.emplace_back(p.task, p.start);
  }
  return check_reported(dag, capacity, starts, schedule.makespan(dag));
}

Checked check_events(const Dag& dag, const ResourceVector& capacity,
                     const std::vector<spear::exec::ExecEvent>& events,
                     std::vector<Time>* realized) {
  using spear::exec::EventKind;
  struct Attempt {
    Time start = 0;
    Time duration = 0;
    Time end = -1;  ///< finish or cancel instant; -1 = never ended
  };
  Checked out;
  const auto n = static_cast<TaskId>(dag.num_tasks());
  std::vector<std::map<int, Attempt>> attempts(dag.num_tasks());
  std::vector<int> winner(dag.num_tasks(), -1);
  std::vector<Time> finish(dag.num_tasks(), -1);
  for (const auto& e : events) {
    if (e.kind != EventKind::kStart && e.kind != EventKind::kSpeculate &&
        e.kind != EventKind::kFinish && e.kind != EventKind::kCancel) {
      continue;  // ladder decisions carry no occupancy
    }
    if (e.task < 0 || e.task >= n) {
      out.error = "event names unknown task " + std::to_string(e.task);
      return out;
    }
    auto& mine = attempts[e.task];
    const std::string who = "task " + task_label(dag, e.task) + " attempt " +
                            std::to_string(e.attempt);
    if (e.kind == EventKind::kStart || e.kind == EventKind::kSpeculate) {
      if (mine.count(e.attempt) || e.value < 1) {
        out.error = who + " started twice or with no duration";
        return out;
      }
      mine[e.attempt] = Attempt{e.time, e.value, -1};
      continue;
    }
    auto it = mine.find(e.attempt);
    if (it == mine.end() || it->second.end >= 0) {
      out.error = who + " ends without a running start";
      return out;
    }
    if (e.kind == EventKind::kFinish) {
      if (winner[e.task] >= 0) {
        out.error = "task " + task_label(dag, e.task) + " finishes twice";
        return out;
      }
      if (e.time != it->second.start + it->second.duration) {
        out.error = who + " finishes at " + std::to_string(e.time) +
                    " instead of start + duration";
        return out;
      }
      winner[e.task] = e.attempt;
      finish[e.task] = e.time;
    } else if (e.time < it->second.start ||
               e.time > it->second.start + it->second.duration) {
      out.error = who + " cancelled outside its run";
      return out;
    }
    it->second.end = e.time;
  }
  std::vector<Interval> intervals;
  if (realized) realized->assign(dag.num_tasks(), 0);
  for (TaskId t = 0; t < n; ++t) {
    if (winner[t] < 0) {
      out.error = "task " + task_label(dag, t) + " has no winning finish";
      return out;
    }
    for (const auto& [index, a] : attempts[t]) {
      if (a.end < 0) {
        out.error = "task " + task_label(dag, t) + " attempt " +
                    std::to_string(index) + " neither finished nor cancelled";
        return out;
      }
      for (TaskId p : dag.parents(t)) {
        if (a.start < finish[p]) {
          out.error = "task " + task_label(dag, t) + " attempt " +
                      std::to_string(index) + " starts before parent " +
                      task_label(dag, p) + " finishes";
          return out;
        }
      }
      intervals.push_back({t, a.start, a.end});
    }
    if (realized) (*realized)[t] = attempts[t][winner[t]].duration;
    out.makespan = std::max(out.makespan, finish[t]);
  }
  out.error = check_capacity(dag, capacity, intervals);
  return out;
}

// --- self-test --------------------------------------------------------------
namespace {

/// Exhaustive optimum in the search's own decision space: at every state
/// either start a ready task that fits now, or advance to the next
/// completion (only while something runs).  Branch and bound; meant for
/// DAGs of at most seven tasks.
struct Exhaustive {
  const Dag& dag;
  const ResourceVector& capacity;
  Time best = std::numeric_limits<Time>::max();
  std::vector<Time> best_start;

  void solve() {
    std::vector<Time> start(dag.num_tasks(), -1);
    std::vector<double> used(capacity.dims(), 0.0);
    visit(0, start, used);
  }

  void visit(Time now, std::vector<Time>& start, std::vector<double>& used) {
    const auto n = static_cast<TaskId>(dag.num_tasks());
    Time horizon = now;
    bool running = false, all_started = true;
    for (TaskId t = 0; t < n; ++t) {
      if (start[t] < 0) {
        all_started = false;
      } else {
        const Time end = start[t] + dag.task(t).runtime;
        horizon = std::max(horizon, end);
        if (end > now) running = true;
      }
    }
    if (horizon >= best) return;
    if (all_started) {
      best = horizon;
      best_start = start;
      return;
    }
    for (TaskId t = 0; t < n; ++t) {
      if (start[t] >= 0) continue;
      bool ready = true;
      for (TaskId p : dag.parents(t)) {
        ready &= start[p] >= 0 && start[p] + dag.task(p).runtime <= now;
      }
      bool fits = true;
      for (std::size_t r = 0; r < capacity.dims(); ++r) {
        fits &= used[r] + dag.task(t).demand[r] <= capacity[r] + kSlack;
      }
      if (!ready || !fits) continue;
      start[t] = now;
      for (std::size_t r = 0; r < capacity.dims(); ++r) {
        used[r] += dag.task(t).demand[r];
      }
      visit(now, start, used);
      for (std::size_t r = 0; r < capacity.dims(); ++r) {
        used[r] -= dag.task(t).demand[r];
      }
      start[t] = -1;
    }
    if (!running) return;
    Time next = std::numeric_limits<Time>::max();
    for (TaskId t = 0; t < n; ++t) {
      if (start[t] >= 0 && start[t] + dag.task(t).runtime > now) {
        next = std::min(next, start[t] + dag.task(t).runtime);
      }
    }
    std::vector<double> after = used;
    for (TaskId t = 0; t < n; ++t) {
      if (start[t] >= 0 && start[t] + dag.task(t).runtime == next) {
        for (std::size_t r = 0; r < capacity.dims(); ++r) {
          after[r] -= dag.task(t).demand[r];
        }
      }
    }
    visit(next, start, after);
  }
};

std::vector<std::pair<TaskId, Time>> as_pairs(const std::vector<Time>& start) {
  std::vector<std::pair<TaskId, Time>> out;
  for (std::size_t t = 0; t < start.size(); ++t) {
    out.emplace_back(static_cast<TaskId>(t), start[t]);
  }
  return out;
}

}  // namespace

std::optional<std::string> checker_self_test(
    std::shared_ptr<const spear::Policy> policy) {
  const ResourceVector capacity = bench_capacity();

  // a -> c, b independent; a and b cannot run together.
  spear::DagBuilder builder(2);
  const TaskId a = builder.add_task(5, {0.6, 0.5}, "a");
  const TaskId b = builder.add_task(4, {0.6, 0.5}, "b");
  const TaskId c = builder.add_task(3, {0.3, 0.3}, "c");
  builder.add_edge(a, c);
  const Dag hand = std::move(builder).build();
  const std::vector<std::pair<TaskId, Time>> good = {{a, 0}, {b, 5}, {c, 5}};
  const Checked ok = check_placements(hand, capacity, good);
  if (!ok.error.empty() || ok.makespan != 9) {
    return "checker rejects a valid schedule: " + ok.error;
  }
  const struct {
    const char* what;
    std::vector<std::pair<TaskId, Time>> starts;
  } corrupted[] = {
      {"start before parent's finish", {{a, 0}, {b, 5}, {c, 4}}},
      {"overloaded slot", {{a, 0}, {b, 2}, {c, 5}}},
      {"dropped task", {{a, 0}, {b, 5}}},
      {"task placed twice", {{a, 0}, {b, 5}, {c, 5}, {c, 9}}},
  };
  for (const auto& bad : corrupted) {
    if (check_placements(hand, capacity, bad.starts).error.empty()) {
      return std::string("checker accepts a corrupted schedule: ") + bad.what;
    }
  }
  if (check_reported(hand, capacity, good, 10).error.empty()) {
    return "checker accepts a misreported makespan";
  }

  using spear::exec::EventKind;
  using spear::exec::ExecEvent;
  const std::vector<ExecEvent> log = {
      {0, EventKind::kStart, a, 0, 5},     {5, EventKind::kFinish, a, 0, 0},
      {5, EventKind::kStart, b, 0, 4},     {5, EventKind::kStart, c, 0, 6},
      {9, EventKind::kFinish, b, 0, 0},    {9, EventKind::kSpeculate, c, 1, 2},
      {11, EventKind::kFinish, c, 0, 0},   {11, EventKind::kCancel, c, 1, 2},
  };
  if (!check_events(hand, capacity, log, nullptr).error.empty()) {
    return "checker rejects a valid event log: " +
           check_events(hand, capacity, log, nullptr).error;
  }
  auto early = log;
  early[3].time = 4;  // c starts before a's winning finish
  early[3].value = 7;
  auto overload = log;
  overload[2].time = 4;  // b overlaps a
  overload[4].time = 8;
  auto dropped = log;
  dropped.erase(dropped.begin() + 6);  // c's winning finish is lost
  for (const auto* bad : {&early, &overload, &dropped}) {
    if (check_events(hand, capacity, *bad, nullptr).error.empty()) {
      return std::string("checker accepts a corrupted event log");
    }
  }

  // lower bound <= exhaustive optimum <= Spear on small DAGs.
  auto spear_scheduler = spear::make_spear_scheduler(policy);
  for (std::size_t tasks : {5, 6, 7, 7}) {
    spear::DagGeneratorOptions options;
    options.num_tasks = tasks;
    spear::Rng rng(1000 + tasks * 17 + (tasks == 7 ? 0 : 1));
    const Dag dag = spear::generate_random_dag(options, rng);
    Exhaustive solver{dag, capacity, std::numeric_limits<Time>::max(), {}};
    solver.solve();
    const Checked optimum =
        check_placements(dag, capacity, as_pairs(solver.best_start));
    if (!optimum.error.empty() || optimum.makespan != solver.best) {
      return "exhaustive optimum fails the checker: " + optimum.error;
    }
    const Checked spear_result =
        check_schedule(dag, capacity, spear_scheduler->schedule(dag, capacity));
    if (!spear_result.error.empty()) {
      return "Spear schedule fails the checker: " + spear_result.error;
    }
    const double bound = lower_bound(dag, capacity);
    if (bound > static_cast<double>(solver.best) + kSlack ||
        solver.best > spear_result.makespan) {
      return "expected lower bound " + std::to_string(bound) +
             " <= optimum " + std::to_string(solver.best) + " <= Spear " +
             std::to_string(spear_result.makespan) + " on a " +
             std::to_string(tasks) + "-task DAG";
    }
  }
  return std::nullopt;
}

}  // namespace spearbench
