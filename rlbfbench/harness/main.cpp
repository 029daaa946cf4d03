// rlbfbench: one command runs one named workload for a fixed time and
// prints its metrics, the operations attempted and failed, and, as the
// last line of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// is a separate run that alternates traced and untraced operations,
// reports the per-layer metrics, and writes a Chrome trace and a
// per-layer self-time table to --out_dir.
//
//   rlbfbench --workload infer-rlbf --seed 3 --seconds 20 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "exp/config.h"
#include "obs/metrics.h"
#include "spans.h"
#include "util/log.h"
#include "workloads.h"

using namespace rlbfbench;

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The library's own registry counters read in traced operations.
const char* const kRegistryCounters[] = {
    "sim.events_processed",  "sim.backfill_decisions",  "nn.forward_calls",
    "nn.backward_calls",     "nn.batched_forward_calls", "nn.batched_forward_rows",
};
constexpr std::size_t kRegistryCount = std::size(kRegistryCounters);

// Every run makes at least this many operations, whatever --seconds
// says: the training workloads evaluate after their second epoch, and a
// traced run needs one traced and one untraced operation.
constexpr std::size_t kMinOps = 2;

std::vector<double> read_registry() {
  std::vector<double> out;
  for (const char* name : kRegistryCounters) {
    out.push_back(static_cast<double>(rlbf::obs::counter(name).value()));
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void usage() {
  std::cerr << "usage: rlbfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--out_dir DIR]\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = "rlbfbench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      ok = rlbf::exp::parse_number(value, &seed);
    } else if (flag == "--seconds") {
      ok = rlbf::exp::parse_number(value, &seconds) && seconds > 0.0;
    } else if (flag == "--trace") {
      ok = rlbf::exp::parse_number(value, &trace) && (trace == 0 || trace == 1);
    } else if (flag == "--out_dir") {
      out_dir = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "rlbfbench: bad argument " << flag << " " << value << "\n";
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1) {
    usage();
    return 2;
  }

  RunContext ctx;
  ctx.seed = seed;
  ctx.traced = trace == 1;
  ctx.out_dir = out_dir;
  std::unique_ptr<Workload> workload = make_workload(workload_name, ctx);
  if (workload == nullptr) {
    std::cerr << "rlbfbench: unknown workload '" << workload_name << "'\n";
    usage();
    return 2;
  }
  rlbf::util::set_log_level(rlbf::util::LogLevel::Warn);
  std::filesystem::create_directories(out_dir);

  Tracer& tracer = Tracer::instance();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> untraced_op_s, traced_op_s;
  std::size_t op_jobs = 0;  // jobs one operation schedules; the same every time
  // Each piece's fastest time over the untraced operations that passed.
  // Noise from a shared host only ever adds time, so the fastest
  // repetition of the same work is the one the host disturbed least.
  std::vector<double> fastest_piece_s;
  std::size_t traced_ops = 0;  // including any that failed
  std::vector<double> registry_delta(kRegistryCount, 0.0);
  bool run_checks_ok = true;
  double setup_s = 0.0;
  try {
    workload->setup();
    setup_s = static_cast<double>(now_ns() - process_start) / 1e9;

    const std::int64_t loop_start = now_ns();
    for (std::size_t i = 0;; ++i) {
      const double elapsed = static_cast<double>(now_ns() - loop_start) / 1e9;
      if (i >= kMinOps && elapsed >= seconds) break;
      const bool traced_op = ctx.traced && i % 2 == 0;
      const std::uint64_t failures_before = ctx.log.failures();
      const std::vector<double> registry_before = traced_op ? read_registry() : std::vector<double>{};
      rlbf::obs::set_enabled(traced_op);
      tracer.set_active(traced_op);
      bool threw = false;
      std::size_t jobs = 0;
      const std::int64_t t0 = now_ns();
      try {
        jobs = workload->run_op(traced_op);
      } catch (const std::exception& e) {
        threw = true;
        ctx.log.fail(std::string("operation threw: ") + e.what());
      }
      const double op_s = static_cast<double>(now_ns() - t0) / 1e9;
      tracer.set_active(false);
      rlbf::obs::set_enabled(false);
      if (traced_op) {
        ++traced_ops;
        const std::vector<double> after = read_registry();
        for (std::size_t k = 0; k < kRegistryCount; ++k) {
          registry_delta[k] += after[k] - registry_before[k];
        }
      }
      if (!threw) {
        try {
          workload->after_op(i, traced_op);
        } catch (const std::exception& e) {
          threw = true;
          ctx.log.fail(std::string("checks threw: ") + e.what());
        }
      }
      attempted += workload->units_per_op();
      if (threw || ctx.log.failures() > failures_before) {
        failed += workload->units_per_op();
      } else {
        (traced_op ? traced_op_s : untraced_op_s).push_back(op_s);
        if (!traced_op) {
          op_jobs = jobs;
          const std::vector<double> pieces =
              workload->piece_s.empty() ? std::vector<double>{op_s} : workload->piece_s;
          fastest_piece_s.resize(pieces.size(), std::numeric_limits<double>::infinity());
          for (std::size_t k = 0; k < pieces.size(); ++k) {
            fastest_piece_s[k] = std::min(fastest_piece_s[k], pieces[k]);
          }
        }
      }
    }
    run_checks_ok = workload->finish(ctx.traced);
  } catch (const std::exception& e) {
    std::cerr << "rlbfbench: " << workload_name << " failed: " << e.what() << "\n";
    return 1;
  }

  std::vector<Metric> metrics;
  const LayerExtras& x = workload->extras;
  if (!ctx.traced) {
    metrics.push_back({"setup_s", setup_s, "s", 1});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
    const double op_s = std::accumulate(fastest_piece_s.begin(), fastest_piece_s.end(), 0.0);
    metrics.push_back({"op_s", op_s, "s", untraced_op_s.size()});
    metrics.push_back(
        {"jobs_per_s", static_cast<double>(op_jobs) / op_s, "jobs/s", untraced_op_s.size()});
    metrics.push_back({"bsld_vs_easy", workload->bsld_vs_easy(), "ratio", 1});
  } else {
    const LayerTable t = tracer.totals();
    // Per-layer values are per traced operation.
    const auto n = static_cast<double>(std::max<std::size_t>(traced_ops, 1));
    const auto at = [&](Layer l) -> const LayerTotals& { return t[static_cast<std::size_t>(l)]; };
    const auto incl = [&](Layer l) { return static_cast<double>(at(l).inclusive_ns) / 1e9 / n; };
    const auto calls = [&](Layer l) { return static_cast<double>(at(l).calls) / n; };
    const auto units = [&](Layer l) { return static_cast<double>(at(l).units) / n; };
    const std::size_t ops = traced_ops;
    const auto add = [&](const char* name, double value, const char* unit, std::size_t samples) {
      metrics.push_back({name, value, unit, samples});
    };
    const Layer sched_layers[] = {Layer::SchedEasy, Layer::SchedConservative, Layer::SchedSlack};
    double sched_s = 0, sched_calls = 0, sched_picks = 0;
    for (Layer l : sched_layers) {
      sched_s += incl(l);
      sched_calls += calls(l);
      sched_picks += units(l);
    }
    double decisions_total = 0;
    for (Layer l : {Layer::SchedEasy, Layer::SchedConservative, Layer::SchedSlack, Layer::CoreChoose}) {
      decisions_total += static_cast<double>(at(l).calls);
    }
    const double decisions = decisions_total / n;

    add("workload.trace_build_s", x.trace_build_s, "s", 1);
    add("workload.trace_jobs", x.trace_jobs, "count", 1);
    add("exp.sweep_s", median(x.sweep_s), "s", x.sweep_s.size());
    add("exp.trace_cache_hits", x.trace_cache_hits, "count", x.sweep_s.size());
    add("exp.trace_cache_misses", x.trace_cache_misses, "count", x.sweep_s.size());
    add("sim.self_s", static_cast<double>(at(Layer::SimSimulate).self_ns) / 1e9 / n, "s", ops);
    add("sim.simulate_calls", calls(Layer::SimSimulate), "count", ops);
    add("sim.jobs", units(Layer::SimSimulate), "count", ops);
    add("sim.decisions", decisions, "count", ops);
    add("sim.events", registry_delta[0] / n, "count", ops);
    add("sched.choose_s", sched_s, "s", ops);
    add("sched.choose_calls", sched_calls, "count", ops);
    add("sched.picks", sched_picks, "count", ops);
    add("sched.pick_ratio", sched_calls > 0 ? sched_picks / sched_calls : 0.0, "ratio", ops);
    add("sched.easy.choose_s", incl(Layer::SchedEasy), "s", ops);
    add("sched.conservative.choose_s", incl(Layer::SchedConservative), "s", ops);
    add("sched.slack.choose_s", incl(Layer::SchedSlack), "s", ops);
    add("core.choose_s", incl(Layer::CoreChoose), "s", ops);
    add("core.choose_calls", calls(Layer::CoreChoose), "count", ops);
    add("core.picks", units(Layer::CoreChoose), "count", ops);
    // Every traced no-grad forward in infer-rlbf runs inside core.choose.
    add("core.observe_s",
        calls(Layer::CoreChoose) > 0 ? incl(Layer::CoreChoose) - incl(Layer::NnInferForward) : 0.0,
        "s", ops);
    add("core.decision_us_p50", percentile(x.decision_us, 0.50), "us", x.decision_us.size());
    add("core.decision_us_p99", percentile(x.decision_us, 0.99), "us", x.decision_us.size());
    add("nn.infer_forward_s", incl(Layer::NnInferForward), "s", ops);
    add("nn.infer_forward_calls", calls(Layer::NnInferForward), "count", ops);
    add("nn.infer_forward_rows", units(Layer::NnInferForward), "count", ops);
    add("nn.graph_forward_s", incl(Layer::NnGraphForward), "s", ops);
    add("nn.graph_forward_calls", calls(Layer::NnGraphForward), "count", ops);
    const double collect_s = incl(Layer::RlCollect);
    const double busy_s = incl(Layer::RlSequence);
    const double epoch_s = incl(Layer::RlEpoch);
    add("rl.collect_s", collect_s, "s", ops);
    add("rl.sequence_busy_s", busy_s, "s", ops);
    add("rl.collect_efficiency",
        collect_s > 0 && x.collect_slots > 0 ? busy_s / (collect_s * x.collect_slots) : 0.0,
        "ratio", ops);
    add("rl.update_s", epoch_s > 0 ? epoch_s - collect_s : 0.0, "s", ops);
    add("rl.update_other_s",
        epoch_s > 0 ? epoch_s - collect_s - incl(Layer::NnGraphForward) : 0.0, "s", ops);
    add("rl.steps", x.rl_steps / n, "count", ops);
    add("rl.policy_iters", x.rl_policy_iters / n, "count", ops);
    add("rl.value_iters", x.rl_value_iters / n, "count", ops);
    add("model.train_s", x.model_train_s, "s", 1);
    add("nn.forward_calls", registry_delta[2] / n, "count", ops);
    add("nn.backward_calls", registry_delta[3] / n, "count", ops);
    add("nn.batched_forward_calls", registry_delta[4] / n, "count", ops);
    add("nn.batched_forward_rows", registry_delta[5] / n, "count", ops);
    double spans = 0;
    for (const auto& l : t) spans += static_cast<double>(l.calls);
    add("trace.spans", spans / n, "count", ops);
    const double traced_median = median(traced_op_s);
    const double untraced_median = median(untraced_op_s);
    add("trace.overhead",
        untraced_median > 0 ? traced_median / untraced_median - 1.0 : 0.0, "ratio",
        std::min(traced_op_s.size(), untraced_op_s.size()));

    // The library counts its chooser consultations itself; where every
    // traced simulate() call goes through a decorator, both counts agree.
    if (workload->decisions_cross_checked() && registry_delta[1] != decisions_total) {
      ctx.log.fail("sim.backfill_decisions " + json_number(registry_delta[1]) +
                   " != decorator-counted decisions " + json_number(decisions_total));
      run_checks_ok = false;
    }

    const std::string stem = out_dir + "/" + workload_name;
    const std::string table = format_layer_table(t);
    std::ofstream(stem + ".layers.txt") << table;
    if (!tracer.write_chrome_trace(stem + ".trace.json")) {
      std::cerr << "rlbfbench: cannot write " << stem << ".trace.json\n";
    }
    std::cerr << "per-layer totals over " << ops << " traced operation(s) (spans kept "
              << tracer.kept_spans() << ", dropped " << tracer.dropped_spans() << "):\n"
              << table;
  }

  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = finite && run_checks_ok && ctx.log.failures() == 0;
  if (ctx.log.failures() > 0) {
    std::cerr << "rlbfbench: " << ctx.log.failures()
              << " check failure(s); first: " << ctx.log.first() << "\n";
  }

  std::fprintf(stderr, "untraced operation seconds:");
  for (const double v : untraced_op_s) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  std::printf("# %s seed=%llu trace=%d attempted=%zu failed=%zu\n", workload_name.c_str(),
              static_cast<unsigned long long>(seed), trace, attempted, failed);
  for (const Metric& m : metrics) {
    std::printf("# %-30s %18.6f %-7s samples=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
            (std::isfinite(metrics[i].value) ? json_number(metrics[i].value) : "null") +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
