#include "checks.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rlbfbench {

namespace {

constexpr double kBsldThresholdSeconds = 10.0;

std::string job_prefix(std::size_t i) { return "job " + std::to_string(i) + ": "; }

bool nearly_equal(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

double job_bsld(const sim::JobResult& r) {
  const double response = static_cast<double>(r.end_time - r.submit_time);
  const double run = static_cast<double>(r.end_time - r.start_time);
  return std::max(1.0, response / std::max(run, kBsldThresholdSeconds));
}

double mean_bsld(const std::vector<sim::JobResult>& results) {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : results) sum += job_bsld(r);
  return sum / static_cast<double>(results.size());
}

}  // namespace

std::string validate_schedule(const swf::Trace& trace,
                              const std::vector<sim::JobResult>& results,
                              bool kill_exceeding_request) {
  if (results.size() != trace.size()) {
    return "schedule has " + std::to_string(results.size()) + " results for " +
           std::to_string(trace.size()) + " jobs";
  }
  // (time, +procs for a start / -procs for an end)
  std::vector<std::pair<std::int64_t, std::int64_t>> events;
  events.reserve(2 * results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::JobResult& r = results[i];
    const swf::Job& job = trace[i];
    if (r.job_index != i) {
      return job_prefix(i) + "result names job " + std::to_string(r.job_index) +
             " (scheduled twice or out of order)";
    }
    if (r.submit_time != job.submit_time) return job_prefix(i) + "submit time differs from the trace";
    if (r.start_time < r.submit_time) return job_prefix(i) + "starts before its submit time";
    const std::int64_t width = job.requested_procs > 0 ? job.requested_procs : job.used_procs;
    if (r.procs != width) return job_prefix(i) + "width differs from the trace";
    const std::int64_t request = job.requested_time > 0 ? job.requested_time : job.run_time;
    std::int64_t runtime = job.run_time;
    const bool overran = kill_exceeding_request && request < runtime;
    if (overran) runtime = request;
    if (r.killed != overran) return job_prefix(i) + "kill flag does not match its request time";
    if (r.end_time - r.start_time != runtime) {
      return job_prefix(i) + "ran " + std::to_string(r.end_time - r.start_time) +
             " s instead of " + std::to_string(runtime) + " s";
    }
    if (runtime > 0) {
      events.emplace_back(r.start_time, r.procs);
      events.emplace_back(r.end_time, -r.procs);
    }
  }
  // Ends sort before starts at equal times: a finishing job frees its
  // processors for a job starting at the same second.
  std::sort(events.begin(), events.end());
  std::int64_t in_use = 0;
  for (const auto& [time, delta] : events) {
    in_use += delta;
    if (in_use > trace.machine_procs()) {
      return "processors in use reach " + std::to_string(in_use) + " > " +
             std::to_string(trace.machine_procs()) + " at t=" + std::to_string(time);
    }
  }
  return "";
}

std::string check_bsld(const std::vector<sim::JobResult>& results,
                       double reported_mean_bsld) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double reported = results[i].bounded_slowdown();
    if (!(reported >= 1.0)) return job_prefix(i) + "bsld " + std::to_string(reported) + " < 1";
    if (!nearly_equal(reported, job_bsld(results[i]))) {
      return job_prefix(i) + "reported bsld " + std::to_string(reported) +
             " != recomputed " + std::to_string(job_bsld(results[i]));
    }
  }
  const double mine = mean_bsld(results);
  if (!nearly_equal(reported_mean_bsld, mine)) {
    return "reported mean bsld " + std::to_string(reported_mean_bsld) +
           " != recomputed " + std::to_string(mine);
  }
  return "";
}

std::string check_schedule(const swf::Trace& trace,
                           const std::vector<sim::JobResult>& results,
                           double reported_mean_bsld, bool kill_exceeding_request) {
  std::string error = validate_schedule(trace, results, kill_exceeding_request);
  if (error.empty()) error = check_bsld(results, reported_mean_bsld);
  return error;
}

std::string check_pick(const sim::BackfillContext& ctx, std::optional<std::size_t> pick,
                       PickRule rule) {
  if (!pick.has_value()) return "";
  if (*pick >= ctx.candidates.size()) return "pick outside the candidate list";
  const swf::Job& job = ctx.trace[ctx.candidates[*pick]];
  const std::int64_t width = job.requested_procs > 0 ? job.requested_procs : job.used_procs;
  if (width > ctx.cluster.free_procs()) {
    return "pick needs " + std::to_string(width) + " processors, " +
           std::to_string(ctx.cluster.free_procs()) + " free";
  }
  if (rule == PickRule::EasyAdmissible) {
    const std::int64_t estimate = ctx.estimator.estimate(job);
    const bool ends_by_shadow = ctx.now + estimate <= ctx.reservation.shadow_time;
    const bool fits_extra = width <= ctx.reservation.extra_procs;
    if (!ends_by_shadow && !fits_extra) {
      return "pick at t=" + std::to_string(ctx.now) + " ends at " +
             std::to_string(ctx.now + estimate) + " after the shadow time " +
             std::to_string(ctx.reservation.shadow_time) + " and needs " +
             std::to_string(width) + " > " + std::to_string(ctx.reservation.extra_procs) +
             " extra processors";
    }
  }
  return "";
}

std::string check_sequence(const rl::SequenceResult& result, bool hard_mask) {
  const auto& steps = result.episode.steps;
  double reward_sum = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const rl::Step& s = steps[i];
    const std::string where = "step " + std::to_string(i) + ": ";
    if (s.action >= s.mask.size() || s.mask[s.action] == 0) {
      return where + "action " + std::to_string(s.action) + " is not a selectable row";
    }
    if (!std::isfinite(s.log_prob) || s.log_prob > 0.0) {
      return where + "log_prob " + std::to_string(s.log_prob) + " is not <= 0";
    }
    reward_sum += s.reward;
  }
  // An episode without decisions has no step to carry the terminal reward.
  if (hard_mask && !steps.empty()) {
    const double expected = (result.baseline_bsld - result.bsld) / result.baseline_bsld;
    if (!nearly_equal(reward_sum, expected)) {
      return "reward sum " + std::to_string(reward_sum) + " != (baseline - bsld) / baseline = " +
             std::to_string(expected);
    }
  }
  return "";
}

void CheckLog::fail(const std::string& what) {
  if (failures_.fetch_add(1, std::memory_order_relaxed) == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    first_ = what;
  }
}

std::string CheckLog::first() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_;
}

}  // namespace rlbfbench
