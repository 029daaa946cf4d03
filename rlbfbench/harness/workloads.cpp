#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <thread>

#include "core/rl_backfill.h"
#include "core/trainer.h"
#include "exp/scenario.h"
#include "exp/sweep.h"
#include "layers.h"
#include "model/train.h"
#include "sched/scheduler.h"

namespace rlbfbench {

namespace core = rlbf::core;
namespace exp = rlbf::exp;
namespace model = rlbf::model;
namespace sched = rlbf::sched;

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Two schedules of one trace are the same schedule.
bool same_schedule(const std::vector<sim::JobResult>& a, const std::vector<sim::JobResult>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const auto& x, const auto& y) {
           return x.job_index == y.job_index && x.start_time == y.start_time &&
                  x.end_time == y.end_time && x.backfilled == y.backfilled;
         });
}

// ------------------------------------------------------------ training
// Paper-protocol PPO epochs (§4.1.1: 100 trajectories x 256 jobs, 80
// update iterations) of the registered sdsc-fcfs spec, with the trace
// and trainer seeded from the workload seed.
class TrainWorkload final : public Workload {
 public:
  // The greedy evaluation runs after this many timed epochs, so its
  // figure depends on the seed alone, never on how fast epochs ran.
  static constexpr std::size_t kEvalAfterEpochs = 2;
  static constexpr std::size_t kEvalSequences = 16;
  static constexpr std::size_t kEvalSequenceJobs = 1024;

  TrainWorkload(RunContext& ctx, std::size_t threads) : ctx_(ctx), threads_(threads) {}

  void setup() override {
    const model::TrainingSpec& spec = model::find_training_spec("sdsc-fcfs");
    core::TrainerConfig config = spec.trainer;
    config.seed = ctx_.seed;
    config.threads = threads_;
    const std::int64_t t0 = now_ns();
    trace_ = exp::build_trace(spec.workload, ctx_.seed);
    extras.trace_build_s = seconds_since(t0);
    extras.trace_jobs = static_cast<double>(trace_.size());

    // The agent core::Trainer(trace, config) would build: the deployment
    // action space follows the delay rule.
    core::AgentConfig agent_config = config.agent;
    if (config.env.mask_delaying()) {
      agent_config.obs.mask_inadmissible = true;
    } else {
      agent_config.obs.stop_action = true;
    }
    core::Agent fresh(agent_config, config.seed);
    if (ctx_.traced) {
      fresh = core::Agent(agent_config, std::make_unique<TimedModel>(fresh.model().clone()));
    }
    trainer_ = std::make_unique<core::Trainer>(trace_, config, fresh);
    collector_ = std::make_unique<CheckedCollector>(config.threads, config.env.mask_delaying(),
                                                    ctx_.log);
    trainer_->set_collector(collector_.get());
    policy_ = sched::make_policy(config.base_policy);
    jobs_per_epoch_ = config.trajectories_per_epoch * config.jobs_per_trajectory;
    // Warm-up: the first epoch of a fresh process runs slower.
    trainer_->run_epoch();
  }

  std::size_t run_op(bool traced) override {
    Span span(Layer::RlEpoch);
    const core::EpochStats stats = trainer_->run_epoch();
    span.add_units(stats.steps);
    if (traced) {
      extras.rl_steps += static_cast<double>(stats.steps);
      extras.rl_policy_iters += static_cast<double>(stats.ppo.policy_iters);
      extras.rl_value_iters += static_cast<double>(stats.ppo.value_iters);
      extras.collect_slots = static_cast<double>(collector_->last_slots());
    }
    return jobs_per_epoch_;
  }

  void after_op(std::size_t index, bool) override {
    if (index + 1 == kEvalAfterEpochs) evaluate();
  }

  bool finish(bool) override { return evaluated_; }

  double bsld_vs_easy() const override { return ratio_; }

 private:
  /// Greedy agent vs FCFS+EASY on the same held-out sequences.
  void evaluate() {
    util::Rng rng(ctx_.seed ^ 0x686f6c646f7574ull);
    sched::RequestTimeEstimator estimator;
    double agent_sum = 0.0;
    double easy_sum = 0.0;
    for (std::size_t s = 0; s < kEvalSequences; ++s) {
      const swf::Trace seq = trace_.sample(kEvalSequenceJobs, rng);
      core::RlBackfillChooser rl(trainer_->agent());
      TimedChooser checked(rl, Layer::CoreChoose, PickRule::EasyAdmissible, ctx_.log);
      const auto agent = sched::run_schedule(seq, *policy_, estimator, &checked);
      ctx_.log.expect(check_schedule(seq, agent.results, agent.metrics.avg_bounded_slowdown));
      sched::EasyBackfillChooser easy;
      const auto base = sched::run_schedule(seq, *policy_, estimator, &easy);
      ctx_.log.expect(check_schedule(seq, base.results, base.metrics.avg_bounded_slowdown));
      agent_sum += agent.metrics.avg_bounded_slowdown;
      easy_sum += base.metrics.avg_bounded_slowdown;
    }
    ratio_ = agent_sum / easy_sum;
    evaluated_ = true;
  }

  RunContext& ctx_;
  std::size_t threads_;
  swf::Trace trace_;
  std::unique_ptr<sim::PriorityPolicy> policy_;
  std::unique_ptr<CheckedCollector> collector_;
  std::unique_ptr<core::Trainer> trainer_;
  std::size_t jobs_per_epoch_ = 0;
  double ratio_ = 0.0;
  bool evaluated_ = false;
};

// ----------------------------------------------------------- inference
// The deployed path: an agent trained in set-up (registered sdsc-tiny
// spec, its own fixed seed) greedily backfills SDSC-SP2 traces at 1.5x
// load built from the workload seed. The load grows long queues, which
// stress observation building and no-grad forwards. One operation
// schedules many independent traces: a single long trace's cost swings
// by tens of percent from seed to seed, which a sum over independent
// traces evens out. Each trace's simulation is timed on its own.
class InferWorkload final : public Workload {
 public:
  static constexpr std::size_t kTraces = 160;
  static constexpr std::size_t kTraceJobs = 2000;
  static constexpr double kLoad = 1.5;

  explicit InferWorkload(RunContext& ctx) : ctx_(ctx) {}

  ~InferWorkload() override {
    std::error_code ignored;
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_, ignored);
  }

  void setup() override {
    store_dir_ = ctx_.out_dir + "/store." + std::to_string(::getpid());
    std::filesystem::remove_all(store_dir_);
    std::int64_t t0 = now_ns();
    model::Store store(store_dir_);
    model::TrainOptions options;
    options.threads = 1;
    const model::TrainOutcome trained =
        model::train_spec(model::find_training_spec("sdsc-tiny"), store, options);
    core::Agent loaded = store.load(trained.entry.key);
    extras.model_train_s = seconds_since(t0);

    scenario_.name = "infer-rlbf";
    scenario_.workload = "SDSC-SP2";
    scenario_.trace_jobs = kTraceJobs;
    scenario_.load_factor = kLoad;
    scenario_.scheduler = sched::SchedulerSpec("FCFS", sched::BackfillKind::Easy);
    scenario_.scheduler.agent = trained.entry.path;
    t0 = now_ns();
    util::Rng rng(ctx_.seed);
    for (std::size_t i = 0; i < kTraces; ++i) {
      seeds_.push_back(rng());
      traces_.push_back(exp::build_trace(scenario_, seeds_.back()));
      extras.trace_jobs += static_cast<double>(traces_.back().size());
    }
    extras.trace_build_s = seconds_since(t0);

    if (ctx_.traced) {
      const core::AgentConfig config = loaded.config();
      agent_ = std::make_unique<core::Agent>(
          config, std::make_unique<TimedModel>(loaded.model().clone()));
    } else {
      agent_ = std::make_unique<core::Agent>(std::move(loaded));
    }
    results_.resize(kTraces);
    piece_s.assign(kTraces, 0.0);
  }

  std::size_t run_op(bool traced) override {
    std::size_t jobs = 0;
    for (std::size_t i = 0; i < kTraces; ++i) {
      core::RlBackfillChooser rl(*agent_);
      TimedChooser chooser(rl, Layer::CoreChoose, PickRule::EasyAdmissible, ctx_.log,
                           traced ? &extras.decision_us : nullptr);
      Span span(Layer::SimSimulate);
      span.add_units(traces_[i].size());
      const std::int64_t t0 = now_ns();
      results_[i] =
          sim::simulate(traces_[i], fcfs_, estimator_, &chooser, exp::sim_options(scenario_));
      piece_s[i] = seconds_since(t0);
      jobs += traces_[i].size();
    }
    return jobs;
  }

  void after_op(std::size_t index, bool) override {
    for (std::size_t i = 0; i < kTraces; ++i) {
      const sim::ScheduleMetrics m = sim::compute_metrics(results_[i], traces_[i].machine_procs());
      ctx_.log.expect(check_schedule(traces_[i], results_[i], m.avg_bounded_slowdown));
    }
    if (index == 0) {
      first_results_ = results_;
      return;
    }
    for (std::size_t i = 0; i < kTraces; ++i) {
      if (!same_schedule(results_[i], first_results_[i])) {
        ctx_.log.fail("infer-rlbf: a repeated simulation produced another schedule");
      }
    }
  }

  bool finish(bool traced) override {
    double rlbf_sum = 0.0;
    double easy_sum = 0.0;
    bool transparent = true;
    for (std::size_t i = 0; i < kTraces; ++i) {
      const double rlbf_bsld =
          sim::compute_metrics(first_results_[i], traces_[i].machine_procs()).avg_bounded_slowdown;
      sched::EasyBackfillChooser easy;
      const auto base = sched::run_schedule(traces_[i], fcfs_, estimator_, &easy);
      ctx_.log.expect(check_schedule(traces_[i], base.results, base.metrics.avg_bounded_slowdown));
      rlbf_sum += rlbf_bsld;
      easy_sum += base.metrics.avg_bounded_slowdown;
      if (!traced) continue;
      // Decorator transparency: the library's own scenario path, with the
      // same agent file and trace seed, must produce the same schedule.
      const exp::ScenarioRun plain = exp::run_scenario(scenario_, seeds_[i]);
      if (plain.metrics.avg_bounded_slowdown != rlbf_bsld ||
          !same_schedule(plain.results, first_results_[i])) {
        ctx_.log.fail("infer-rlbf: exp::run_scenario bsld " +
                      std::to_string(plain.metrics.avg_bounded_slowdown) +
                      " differs from the decorated run's " + std::to_string(rlbf_bsld));
        transparent = false;
      }
    }
    ratio_ = rlbf_sum / easy_sum;
    return transparent;
  }

  double bsld_vs_easy() const override { return ratio_; }
  bool decisions_cross_checked() const override { return true; }

 private:
  RunContext& ctx_;
  std::string store_dir_;
  exp::ScenarioSpec scenario_;
  std::vector<std::uint64_t> seeds_;
  std::vector<swf::Trace> traces_;
  std::unique_ptr<core::Agent> agent_;
  sched::FcfsPolicy fcfs_;
  sched::RequestTimeEstimator estimator_;
  std::vector<std::vector<sim::JobResult>> results_;
  std::vector<std::vector<sim::JobResult>> first_results_;
  double ratio_ = 0.0;
};

// --------------------------------------------------------------- sweep
// exp::run_sweep at one thread over the four presets x EASY/CONS/SLACK x
// FCFS/SJF (time-invariant, incrementally sorted) and WFP3/F1
// (re-scored each pass) x two loads, each instance replicated over
// independent short traces. Loads stay below the presets' nominal load:
// at and above it, the conservative and slack planners' cost grows so
// steeply with the backlog that one seed's sweep can take ten times
// another's. One operation sweeps the grid as one run_sweep call per
// (preset, load) block: the blocks share no traces, so together they
// make exactly the runs, trace cache misses and hits of one call over
// the whole grid, and each block is timed on its own.
class SweepWorkload final : public Workload {
 public:
  static constexpr const char* kGrid =
      "workload=SDSC-SP2,HPC2N,Lublin-1,Lublin-2;load=0.3,0.6;"
      "backfill=easy,cons,slack;policy=FCFS,SJF,WFP3,F1";
  static constexpr std::size_t kJobs = 256;
  static constexpr std::size_t kReplications = 32;

  explicit SweepWorkload(RunContext& ctx) : ctx_(ctx) {}

  std::size_t units_per_op() const override { return specs_.size() * kReplications; }
  bool decisions_cross_checked() const override { return true; }

  void setup() override {
    exp::ScenarioSpec base;
    base.name = "sweep-heuristic";
    base.trace_jobs = kJobs;
    specs_ = exp::expand_grid(base, exp::parse_sweep(kGrid));
    options_.seed = ctx_.seed;
    options_.threads = 1;
    options_.replications = kReplications;
    // expand_grid varies the first axes slowest, so each (preset, load)
    // pair is a contiguous block of specs.
    for (std::size_t begin = 0; begin < specs_.size();) {
      std::size_t end = begin + 1;
      while (end < specs_.size() && specs_[end].workload == specs_[begin].workload &&
             specs_[end].load_factor == specs_[begin].load_factor) {
        ++end;
      }
      blocks_.emplace_back(specs_.begin() + static_cast<std::ptrdiff_t>(begin),
                           specs_.begin() + static_cast<std::ptrdiff_t>(end));
      begin = end;
    }
    piece_s.assign(blocks_.size(), 0.0);
    // Warm-up sweep; its runs are the reference every later sweep and
    // replay must reproduce.
    reference_ = exp::run_sweep(specs_, options_);
    exp::clear_trace_cache();
  }

  std::size_t run_op(bool traced) override {
    std::size_t jobs = 0;
    if (traced) {
      replay_.assign(reference_.size(), {});
      std::map<std::string, std::shared_ptr<const swf::Trace>> built;
      for (std::size_t i = 0; i < reference_.size(); ++i) {
        const exp::ScenarioSpec& spec = spec_of(i);
        const std::string key = trace_key(spec, reference_[i].seed);
        auto& trace = built[key];
        if (trace == nullptr) {
          Span span(Layer::TraceBuild);
          trace = std::make_shared<const swf::Trace>(exp::build_trace(spec, reference_[i].seed));
          span.add_units(trace->size());
        }
        const sched::ConfiguredScheduler scheduler(spec.scheduler);
        TimedChooser chooser(*scheduler.chooser(), layer_of(spec.scheduler.backfill),
                             rule_of(spec.scheduler.backfill), ctx_.log);
        Span span(Layer::SimSimulate);
        span.add_units(trace->size());
        replay_[i] = sim::simulate(*trace, scheduler.policy(), scheduler.estimator(), &chooser,
                                   exp::sim_options(spec));
        jobs += trace->size();
      }
      return jobs;
    }
    runs_.clear();
    double sweep_s = 0.0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::int64_t t0 = now_ns();
      std::vector<exp::ScenarioRun> runs = exp::run_sweep(blocks_[b], options_);
      piece_s[b] = seconds_since(t0);
      sweep_s += piece_s[b];
      std::move(runs.begin(), runs.end(), std::back_inserter(runs_));
    }
    extras.sweep_s.push_back(sweep_s);
    const exp::TraceCacheStats stats = exp::trace_cache_stats();
    extras.trace_cache_hits = static_cast<double>(stats.hits);
    extras.trace_cache_misses = static_cast<double>(stats.misses);
    for (const auto& run : runs_) jobs += run.jobs;
    return jobs;
  }

  void after_op(std::size_t, bool traced) override {
    exp::clear_trace_cache();
    if (traces_.empty()) build_validation_traces();
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      const exp::ScenarioSpec& spec = spec_of(i);
      const swf::Trace& trace = *traces_.at(trace_key(spec, reference_[i].seed));
      const std::vector<sim::JobResult>& results = traced ? replay_[i] : runs_[i].results;
      const double reported =
          traced ? sim::compute_metrics(results, trace.machine_procs()).avg_bounded_slowdown
                 : runs_[i].metrics.avg_bounded_slowdown;
      if (!ctx_.log.expect(check_schedule(trace, results, reported, spec.kill_exceeding_request))) {
        continue;
      }
      if (!same_schedule(results, reference_[i].results)) {
        ctx_.log.fail("sweep-heuristic: instance " + reference_[i].label + " seed " +
                      std::to_string(reference_[i].seed) +
                      (traced ? ": the decorated replay differs from exp::run_sweep"
                              : ": a repeated sweep produced another schedule"));
      }
    }
  }

  bool finish(bool) override {
    // The warm-up sweep is checked like every other, and gives the
    // quality figure: each instance's bsld over FCFS+EASY's on its trace.
    std::map<std::string, double> easy_bsld;
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      const exp::ScenarioSpec& spec = spec_of(i);
      const swf::Trace& trace = *traces_.at(trace_key(spec, reference_[i].seed));
      ctx_.log.expect(check_schedule(trace, reference_[i].results,
                                     reference_[i].metrics.avg_bounded_slowdown,
                                     spec.kill_exceeding_request));
      if (spec.scheduler.policy == "FCFS" && spec.scheduler.backfill == sched::BackfillKind::Easy) {
        easy_bsld[trace_key(spec, reference_[i].seed)] = reference_[i].metrics.avg_bounded_slowdown;
      }
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      sum += reference_[i].metrics.avg_bounded_slowdown /
             easy_bsld.at(trace_key(spec_of(i), reference_[i].seed));
    }
    ratio_ = sum / static_cast<double>(reference_.size());
    return true;
  }

  double bsld_vs_easy() const override { return ratio_; }

 private:
  /// The validator's own copy of every instance trace, built once off the
  /// clock (the same traces every sweep regenerates).
  void build_validation_traces() {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      const exp::ScenarioSpec& spec = spec_of(i);
      const std::string key = trace_key(spec, reference_[i].seed);
      if (traces_.count(key) != 0) continue;
      auto trace = std::make_shared<const swf::Trace>(exp::build_trace(spec, reference_[i].seed));
      extras.trace_jobs += static_cast<double>(trace->size());
      traces_.emplace(key, std::move(trace));
    }
    extras.trace_build_s = seconds_since(t0);
  }

  // run_sweep orders its results spec-major, then replication.
  const exp::ScenarioSpec& spec_of(std::size_t run_index) const {
    return specs_[run_index / kReplications];
  }
  static std::string trace_key(const exp::ScenarioSpec& spec, std::uint64_t seed) {
    return exp::trace_cache_key(spec) + " seed=" + std::to_string(seed);
  }
  static Layer layer_of(sched::BackfillKind kind) {
    switch (kind) {
      case sched::BackfillKind::Conservative: return Layer::SchedConservative;
      case sched::BackfillKind::Slack: return Layer::SchedSlack;
      default: return Layer::SchedEasy;
    }
  }
  static PickRule rule_of(sched::BackfillKind kind) {
    return kind == sched::BackfillKind::Easy ? PickRule::EasyAdmissible : PickRule::Fits;
  }

  RunContext& ctx_;
  std::vector<exp::ScenarioSpec> specs_;
  std::vector<std::vector<exp::ScenarioSpec>> blocks_;  // specs_ by (preset, load)
  exp::SweepOptions options_;
  std::vector<exp::ScenarioRun> reference_;
  std::vector<exp::ScenarioRun> runs_;
  std::vector<std::vector<sim::JobResult>> replay_;
  std::map<std::string, std::shared_ptr<const swf::Trace>> traces_;
  double ratio_ = 0.0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"train-paper", "train-paper-mt", "infer-rlbf", "sweep-heuristic"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, RunContext& ctx) {
  if (name == "train-paper") return std::make_unique<TrainWorkload>(ctx, 1);
  if (name == "train-paper-mt") {
    const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
    return std::make_unique<TrainWorkload>(ctx, std::min<std::size_t>(cores, 4));
  }
  if (name == "infer-rlbf") return std::make_unique<InferWorkload>(ctx);
  if (name == "sweep-heuristic") return std::make_unique<SweepWorkload>(ctx);
  return nullptr;
}

}  // namespace rlbfbench
