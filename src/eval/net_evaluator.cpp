#include "eval/net_evaluator.hpp"

#include <cstring>

#include "support/check.hpp"
#include "tensor/ops.hpp"

namespace apm {

NetEvaluator::NetEvaluator(const PolicyValueNet& net) : net_(&net) {}

NetEvaluator::NetEvaluator(const QuantizedPolicyValueNet& net)
    : qnet_(&net) {}

int NetEvaluator::action_count() const { return net_config().actions(); }

std::size_t NetEvaluator::input_size() const {
  const NetConfig& cfg = net_config();
  return static_cast<std::size_t>(cfg.in_channels) * cfg.height * cfg.width;
}

NetEvaluator::Workspace& NetEvaluator::local_workspace() {
  const auto id = std::this_thread::get_id();
  std::lock_guard lock(acts_mutex_);
  auto& slot = slots_[id];
  if (!slot) slot = std::make_unique<Workspace>();
  return *slot;
}

void NetEvaluator::evaluate(const float* input, EvalOutput& out) {
  evaluate_batch(input, 1, &out);
}

void NetEvaluator::evaluate_batch(const float* inputs, int n,
                                  EvalOutput* outs) {
  APM_CHECK(n >= 1);
  const NetConfig& cfg = net_config();
  Workspace& ws = local_workspace();

  ws.x.resize({n, cfg.in_channels, cfg.height, cfg.width});
  std::memcpy(ws.x.data(), inputs, ws.x.numel() * sizeof(float));
  if (qnet_ != nullptr) {
    qnet_->predict(ws.x, ws.acts, ws.policy, ws.value);
  } else {
    net_->predict(ws.x, ws.acts, ws.policy, ws.value);
  }

  const int actions = cfg.actions();
  for (int i = 0; i < n; ++i) {
    outs[i].policy.assign(
        ws.policy.data() + static_cast<std::size_t>(i) * actions,
        ws.policy.data() + static_cast<std::size_t>(i + 1) * actions);
    outs[i].value = ws.value[i];
  }
}

}  // namespace apm
