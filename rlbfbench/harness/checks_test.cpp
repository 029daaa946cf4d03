// The validator's own test: hand-made schedules and picks, each broken in
// one way, must each be rejected, and their intact versions accepted.
// Exits non-zero when any check misjudges its input.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "sched/runtime_estimator.h"

using namespace rlbf;
using rlbfbench::PickRule;

namespace {

int failures = 0;

void expect_pass(const char* what, const std::string& error) {
  if (!error.empty()) {
    std::printf("FAIL %s: rejected an intact input: %s\n", what, error.c_str());
    ++failures;
  } else {
    std::printf("ok   %s\n", what);
  }
}

void expect_fail(const char* what, const std::string& error) {
  if (error.empty()) {
    std::printf("FAIL %s: accepted a broken input\n", what);
    ++failures;
  } else {
    std::printf("ok   %s -> %s\n", what, error.c_str());
  }
}

swf::Job job(std::int64_t submit, std::int64_t run, std::int64_t procs, std::int64_t request) {
  swf::Job j;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_procs = procs;
  j.requested_time = request;
  return j;
}

sim::JobResult result(std::size_t index, const swf::Job& j, std::int64_t start) {
  sim::JobResult r;
  r.job_index = index;
  r.submit_time = j.submit_time;
  r.start_time = start;
  r.end_time = start + j.run_time;
  r.procs = j.requested_procs;
  return r;
}

// A 4-processor machine: jobs 0 and 1 (2 procs each) share it, job 2 (3
// procs) waits for both.
swf::Trace make_trace() {
  return swf::Trace("hand-made", 4,
                    {job(0, 100, 2, 200), job(10, 50, 2, 60), job(20, 30, 3, 40)});
}

std::vector<sim::JobResult> valid_schedule(const swf::Trace& t) {
  return {result(0, t[0], 0), result(1, t[1], 10), result(2, t[2], 100)};
}

double reported_bsld(const std::vector<sim::JobResult>& results) {
  return sim::compute_metrics(results, 4).avg_bounded_slowdown;
}

void schedule_cases() {
  const swf::Trace t = make_trace();
  const auto good = valid_schedule(t);
  expect_pass("valid schedule", rlbfbench::check_schedule(t, good, reported_bsld(good)));

  auto overcommit = good;
  overcommit[2].start_time = 50;  // 2 + 2 + 3 > 4 processors at t=50
  overcommit[2].end_time = 80;
  expect_fail("processors overcommitted", rlbfbench::validate_schedule(t, overcommit));

  auto early = good;
  early[1].start_time = 5;  // submitted at 10
  early[1].end_time = 55;
  expect_fail("start before submit", rlbfbench::validate_schedule(t, early));

  auto short_run = good;
  short_run[0].end_time = 90;  // actual runtime is 100
  expect_fail("runtime cut short", rlbfbench::validate_schedule(t, short_run));

  auto twice = good;
  twice[2] = good[1];  // job 1 twice, job 2 never
  expect_fail("job scheduled twice", rlbfbench::validate_schedule(t, twice));

  auto missing = good;
  missing.pop_back();
  expect_fail("job never scheduled", rlbfbench::validate_schedule(t, missing));

  auto killed = good;
  killed[0].killed = true;  // killing is off and job 0 never overran
  expect_fail("spurious kill", rlbfbench::validate_schedule(t, killed));

  const swf::Trace overrun("overrun", 4, {job(0, 100, 1, 60)});
  sim::JobResult cut = result(0, overrun[0], 0);
  cut.end_time = 60;
  cut.killed = true;
  expect_pass("kill at the request time", rlbfbench::validate_schedule(overrun, {cut}, true));
  expect_fail("kill when killing is off", rlbfbench::validate_schedule(overrun, {cut}, false));

  expect_fail("reported mean bsld off", rlbfbench::check_bsld(good, reported_bsld(good) + 0.5));
}

void pick_cases() {
  // Job 0 runs on 3 of 4 processors until t=100; job 1 (head, 4 procs)
  // is reserved at t=100 with no extra processors; job 2 (1 proc) asks
  // for 200 s, so it would delay the head; job 3 (1 proc, 50 s) would not.
  const swf::Trace t("hand-made", 4,
                     {job(0, 100, 3, 100), job(0, 10, 4, 10), job(0, 200, 1, 200),
                      job(0, 50, 1, 50), job(0, 10, 2, 10)});
  sim::ClusterState cluster(4);
  cluster.start(0, 3, 0, 100);
  const sched::RequestTimeEstimator estimator;
  const std::vector<std::size_t> queue = {1, 2, 3, 4};
  const std::vector<std::size_t> candidates = {2, 3, 4};
  const sim::BackfillContext ctx{t, cluster, estimator, /*now=*/0, /*rjob=*/1,
                                 sim::Reservation{100, 0}, queue, candidates};
  expect_pass("admissible pick", rlbfbench::check_pick(ctx, 1, PickRule::EasyAdmissible));
  expect_pass("no pick", rlbfbench::check_pick(ctx, std::nullopt, PickRule::EasyAdmissible));
  expect_fail("pick delays the reserved job",
              rlbfbench::check_pick(ctx, 0, PickRule::EasyAdmissible));
  expect_pass("long pick allowed without the EASY rule",
              rlbfbench::check_pick(ctx, 0, PickRule::Fits));
  expect_fail("pick wider than the free processors",
              rlbfbench::check_pick(ctx, 2, PickRule::Fits));
  expect_fail("pick outside the candidates", rlbfbench::check_pick(ctx, 3, PickRule::Fits));

  const sim::BackfillContext spare{t, cluster, estimator, 0, 1, sim::Reservation{100, 1},
                                   queue, candidates};
  expect_pass("long pick fits the extra processors",
              rlbfbench::check_pick(spare, 0, PickRule::EasyAdmissible));
}

void sequence_cases() {
  rl::SequenceResult good;
  good.bsld = 3.0;
  good.baseline_bsld = 4.0;
  for (int i = 0; i < 2; ++i) {
    rl::Step s;
    s.mask = {1, 0, 1};
    s.action = 2;
    s.log_prob = -0.5;
    good.episode.steps.push_back(s);
  }
  good.episode.steps.back().reward = 0.25;
  expect_pass("valid sequence", rlbfbench::check_sequence(good, true));

  auto masked = good;
  masked.episode.steps[0].action = 1;
  expect_fail("action on a masked row", rlbfbench::check_sequence(masked, true));

  auto positive = good;
  positive.episode.steps[1].log_prob = 0.1;
  expect_fail("log_prob above 0", rlbfbench::check_sequence(positive, true));

  auto reward = good;
  reward.episode.steps.back().reward = 0.5;
  expect_fail("reward sum off the bsld improvement", rlbfbench::check_sequence(reward, true));
  expect_pass("reward rule applies only to the hard mask",
              rlbfbench::check_sequence(reward, false));
}

}  // namespace

int main() {
  schedule_cases();
  pick_cases();
  sequence_cases();
  std::printf("%s: %d misjudged case(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
