// Correctness checks the benchmark computes apart from the library: it
// re-derives every fact from the trace and the schedule with its own
// formulas and never calls the library's own validation or metric code
// for the verdict.
//
// Every check returns an empty string when it passes and a one-line
// description of the first violation otherwise.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rl/collect.h"
#include "sim/event_sim.h"
#include "sim/metrics.h"
#include "swf/trace.h"

namespace rlbfbench {

namespace nn = rlbf::nn;
namespace rl = rlbf::rl;
namespace sim = rlbf::sim;
namespace swf = rlbf::swf;
namespace util = rlbf::util;

/// Sweep-line validation of one schedule of `trace`:
///   * one result per job, in trace order, each job scheduled once;
///   * submit time and width copied from the trace, start >= submit;
///   * end - start equals the actual runtime, or the request time when
///     `kill_exceeding_request` applies and the job overran it;
///   * the processors in use never exceed the machine size (jobs ending
///     at t release their processors before jobs starting at t).
std::string validate_schedule(const swf::Trace& trace,
                              const std::vector<sim::JobResult>& results,
                              bool kill_exceeding_request = false);

/// The library's reported mean bsld must equal the harness's own mean
/// bounded slowdown (Feitelson & Rudolph, 10 s threshold, from per-job
/// submit, start and end alone) up to summation rounding, and every
/// job's library-reported bsld must be >= 1 and equal the harness's.
std::string check_bsld(const std::vector<sim::JobResult>& results,
                       double reported_mean_bsld);

/// validate_schedule + check_bsld.
std::string check_schedule(const swf::Trace& trace,
                           const std::vector<sim::JobResult>& results,
                           double reported_mean_bsld,
                           bool kill_exceeding_request = false);

/// What a backfill pick must satisfy.
enum class PickRule {
  /// The picked job fits the free processors.
  Fits,
  /// Fits, and is EASY-admissible under its estimate: it ends by the
  /// head job's shadow time or fits in the reservation's extra
  /// processors (the hard-masked RLBF action space).
  EasyAdmissible,
};
std::string check_pick(const sim::BackfillContext& ctx, std::optional<std::size_t> pick,
                       PickRule rule);

/// One collected training sequence: every step's action is a selectable
/// row of its mask with a finite log_prob <= 0; under the hard-mask rule
/// a non-empty episode's reward sum equals
/// (baseline_bsld - bsld) / baseline_bsld.
std::string check_sequence(const rl::SequenceResult& result, bool hard_mask);

/// Thread-safe failure log shared by the decorators and the workloads.
class CheckLog {
 public:
  void fail(const std::string& what);
  /// Record `what` as a failure unless it is empty; true if it passed.
  bool expect(const std::string& what) {
    if (what.empty()) return true;
    fail(what);
    return false;
  }
  std::uint64_t failures() const { return failures_.load(std::memory_order_relaxed); }
  std::string first() const;

 private:
  std::atomic<std::uint64_t> failures_{0};
  mutable std::mutex mutex_;  // guards first_
  std::string first_;
};

}  // namespace rlbfbench
