// Instruments of the traced run (traced.cpp).  End-to-end metrics never
// come from a run that uses them.

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "mcts/mcts.h"
#include "mcts/policies.h"

namespace spearbench {

/// Busy time of a guide and all of its clones, summed over threads.
struct GuideClock {
  std::atomic<std::int64_t> ns{0};
  double ms() const { return 1e-6 * static_cast<double>(ns.load()); }
};

/// Wraps `inner` so that its scoring calls (action_weights, pick and their
/// batch forms) add their wall time to `clock`; clone() wraps the inner
/// clone with the same clock, and every other call is forwarded.
std::shared_ptr<spear::DecisionPolicy> make_timed_guide(
    std::shared_ptr<spear::DecisionPolicy> inner,
    std::shared_ptr<GuideClock> clock);

/// MctsScheduler::schedule with the DRL policy's ready window.  schedule()
/// sizes the window only when the guide IS a DrlDecisionPolicy, so a
/// wrapped guide must enter through schedule_env with the same window.
Schedule schedule_with_window(spear::MctsScheduler& scheduler, const Dag& dag,
                              const spear::Policy& policy);

/// Sums the counters the per-layer metrics read.
void accumulate(spear::MctsScheduler::Stats& into,
                const spear::MctsScheduler::Stats& from);

/// Writes the mcts.* search counters and nn.rows_per_forward from summed
/// search statistics over `jobs` jobs.
void set_search_metrics(const spear::MctsScheduler::Stats& stats, double jobs,
                        RunResult& out);

/// Sets every per-layer metric to 0: a layer a workload bypasses reads 0.
void set_layer_defaults(RunResult& out);

/// A JSON-lines submit request carrying `dag_text` (iterations 0 = the
/// service default).
std::string submit_line(const std::string& id, const std::string& dag_text,
                        std::int64_t budget_ms, std::int64_t iterations);

/// Times the layer functions directly on states sampled from `dags`:
/// env step/copy/featurize, the network forward at 1 and 32 rows, DAG text
/// parsing, request parsing, response encoding and the CP planner.
void measure_layers(const std::vector<Dag>& dags, const spear::Policy& policy,
                    RunResult& out);

}  // namespace spearbench
