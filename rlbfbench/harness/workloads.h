// The benchmark's workloads. Each builds its inputs from the workload
// seed in set-up, then repeats one timed operation (a training epoch, a
// full-trace RLBF simulation, a heuristic sweep) until the run's time is
// spent. Checks run between operations, off the clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"

namespace rlbfbench {

struct RunContext {
  std::uint64_t seed = 1;
  bool traced = false;
  std::string out_dir;
  CheckLog log;
};

/// Per-layer values a workload measures outside the span table.
struct LayerExtras {
  double trace_build_s = 0.0;  // building the input traces once
  double trace_jobs = 0.0;
  double model_train_s = 0.0;  // set-up model::train_spec
  std::vector<double> sweep_s;     // exp::run_sweep wall, one per sweep
  double trace_cache_hits = 0.0;   // exp trace cache, last sweep
  double trace_cache_misses = 0.0;
  std::vector<float> decision_us;  // traced RLBF choose() latencies
  double collect_slots = 0.0;
  double rl_steps = 0.0;  // sums over traced epochs
  double rl_policy_iters = 0.0;
  double rl_value_iters = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up: inputs, model, warm-up. Timed from process start.
  virtual void setup() = 0;
  /// One timed operation; returns the jobs it scheduled.
  virtual std::size_t run_op(bool traced) = 0;
  /// Untimed checks after operation `index`.
  virtual void after_op(std::size_t index, bool traced) = 0;
  /// Operations attempted per run_op (sweep instances for a sweep).
  virtual std::size_t units_per_op() const { return 1; }
  /// End-of-run checks. Failures go to the context's log; returns false
  /// if a run-level check (not tied to one operation) failed.
  virtual bool finish(bool traced) = 0;
  /// Mean bsld of the workload's schedules over FCFS+EASY's mean bsld on
  /// the same inputs (computed by after_op / finish).
  virtual double bsld_vs_easy() const = 0;
  /// Whether every library simulate() call in a traced operation goes
  /// through a decorated chooser, so the library's decision counter must
  /// equal the decorators' call count.
  virtual bool decisions_cross_checked() const { return false; }

  LayerExtras extras;
  /// Wall time of each piece of the last untraced operation (a trace, a
  /// sweep block), for a workload that times its operation piece by
  /// piece; empty when the operation is timed whole.
  std::vector<double> piece_s;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();
/// Null for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name, RunContext& ctx);

}  // namespace rlbfbench
