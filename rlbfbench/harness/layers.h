// Decorators over the library's public seams. Each forwards every call
// unchanged, opens a span around it (a no-op while the tracer is
// inactive), and where a correctness check applies, checks the
// wrapped layer's output. None of them changes a result: the traced run
// proves that by comparing against the undecorated library path.
#pragma once

#include <memory>
#include <vector>

#include "checks.h"
#include "rl/collect.h"
#include "rl/ppo.h"
#include "sim/event_sim.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace rlbfbench {

/// sim::BackfillChooser decorator: spans each choose() under `layer`,
/// counts picks as the span's units, checks each pick under `rule`, and
/// optionally keeps each traced call's latency in microseconds.
class TimedChooser final : public sim::BackfillChooser {
 public:
  /// `inner`, `log` and `latency_us` (may be null) must outlive the
  /// decorator.
  TimedChooser(sim::BackfillChooser& inner, Layer layer, PickRule rule, CheckLog& log,
               std::vector<float>* latency_us = nullptr)
      : inner_(inner), layer_(layer), rule_(rule), log_(log), latency_us_(latency_us) {}

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override { return inner_.name(); }
  void episode_begin(const swf::Trace& trace) override { inner_.episode_begin(trace); }
  void episode_end(const std::vector<sim::JobResult>& results) override {
    inner_.episode_end(results);
  }

 private:
  sim::BackfillChooser& inner_;
  Layer layer_;
  PickRule rule_;
  CheckLog& log_;
  std::vector<float>* latency_us_;
};

/// rl::ActorCritic decorator: autograd forwards are spanned as
/// nn.graph_forward, no-grad forwards as nn.infer_forward with their
/// input rows as units. Clones are decorated too, so trainer replicas
/// and collection slots are timed.
class TimedModel final : public rl::ActorCritic {
 public:
  explicit TimedModel(std::unique_ptr<rl::ActorCritic> inner);

  nn::VarPtr policy_logits(const nn::Tensor& policy_obs) const override;
  nn::VarPtr value(const nn::Tensor& value_obs) const override;
  nn::Tensor policy_logits_nograd(const nn::Tensor& policy_obs) const override;
  double value_nograd(const nn::Tensor& value_obs) const override;
  std::vector<nn::Tensor> policy_logits_nograd_batch(
      const std::vector<const nn::Tensor*>& obs) const override;
  std::vector<nn::VarPtr> policy_parameters() const override;
  std::vector<nn::VarPtr> value_parameters() const override;
  std::unique_ptr<rl::ActorCritic> clone() const override;
  void sync_from(const rl::ActorCritic& other) override;

 private:
  std::unique_ptr<rl::ActorCritic> inner_;
};

/// rl::Collector decorator over an in-process ThreadCollector with its
/// own pool of `threads` workers. Spans collect() as rl.collect and each
/// sequence as rl.sequence (a child of the collect span), and checks
/// every collected sequence with check_sequence().
class CheckedCollector final : public rl::Collector {
 public:
  CheckedCollector(std::size_t threads, bool hard_mask, CheckLog& log)
      : pool_(threads), inner_(pool_), hard_mask_(hard_mask), log_(log) {}

  std::size_t slots(std::size_t n_sequences) const override {
    return inner_.slots(n_sequences);
  }
  std::vector<rl::SequenceResult> collect(const rl::CollectionPlan& plan,
                                          const rl::SequenceFn& fn) override;

  /// Slots the last collect() spread its sequences over.
  std::size_t last_slots() const { return last_slots_; }

 private:
  util::ThreadPool pool_;
  rl::ThreadCollector inner_;
  bool hard_mask_;
  CheckLog& log_;
  std::size_t last_slots_ = 0;
};

}  // namespace rlbfbench
