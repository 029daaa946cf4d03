#include "layers.h"

#include <stdexcept>

namespace rlbfbench {

std::optional<std::size_t> TimedChooser::choose(const sim::BackfillContext& ctx) {
  Span span(layer_);
  const std::optional<std::size_t> pick = inner_.choose(ctx);
  if (pick.has_value()) span.add_units(1);
  const std::int64_t ns = span.finish();
  if (latency_us_ != nullptr && ns > 0) {
    latency_us_->push_back(static_cast<float>(static_cast<double>(ns) / 1e3));
  }
  log_.expect(check_pick(ctx, pick, rule_));
  return pick;
}

TimedModel::TimedModel(std::unique_ptr<rl::ActorCritic> inner) : inner_(std::move(inner)) {
  if (inner_ == nullptr) throw std::invalid_argument("TimedModel: null model");
}

nn::VarPtr TimedModel::policy_logits(const nn::Tensor& policy_obs) const {
  Span span(Layer::NnGraphForward);
  span.add_units(policy_obs.rows());
  return inner_->policy_logits(policy_obs);
}

nn::VarPtr TimedModel::value(const nn::Tensor& value_obs) const {
  Span span(Layer::NnGraphForward);
  span.add_units(value_obs.rows());
  return inner_->value(value_obs);
}

nn::Tensor TimedModel::policy_logits_nograd(const nn::Tensor& policy_obs) const {
  Span span(Layer::NnInferForward);
  span.add_units(policy_obs.rows());
  return inner_->policy_logits_nograd(policy_obs);
}

double TimedModel::value_nograd(const nn::Tensor& value_obs) const {
  Span span(Layer::NnInferForward);
  span.add_units(value_obs.rows());
  return inner_->value_nograd(value_obs);
}

std::vector<nn::Tensor> TimedModel::policy_logits_nograd_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  Span span(Layer::NnInferForward);
  for (const nn::Tensor* t : obs) span.add_units(t->rows());
  return inner_->policy_logits_nograd_batch(obs);
}

std::vector<nn::VarPtr> TimedModel::policy_parameters() const {
  return inner_->policy_parameters();
}

std::vector<nn::VarPtr> TimedModel::value_parameters() const {
  return inner_->value_parameters();
}

std::unique_ptr<rl::ActorCritic> TimedModel::clone() const {
  return std::make_unique<TimedModel>(inner_->clone());
}

void TimedModel::sync_from(const rl::ActorCritic& other) {
  const auto* timed = dynamic_cast<const TimedModel*>(&other);
  inner_->sync_from(timed != nullptr ? *timed->inner_ : other);
}

std::vector<rl::SequenceResult> CheckedCollector::collect(const rl::CollectionPlan& plan,
                                                          const rl::SequenceFn& fn) {
  Span span(Layer::RlCollect);
  last_slots_ = inner_.slots(plan.seeds.size());
  const std::uint64_t parent = span.id();
  const rl::SequenceFn checked = [&](std::size_t index, std::uint64_t seed,
                                     std::size_t slot) {
    Span sequence(Layer::RlSequence, parent);
    rl::SequenceResult result = fn(index, seed, slot);
    sequence.add_units(result.episode.steps.size());
    sequence.finish();
    log_.expect(check_sequence(result, hard_mask_));
    return result;
  };
  std::vector<rl::SequenceResult> results = inner_.collect(plan, checked);
  span.add_units(results.size());
  return results;
}

}  // namespace rlbfbench
