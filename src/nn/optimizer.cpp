#include "nn/optimizer.hpp"

#include "support/check.hpp"

namespace apm {

SgdOptimizer::SgdOptimizer(std::vector<Param*> params, SgdConfig cfg)
    : params_(std::move(params)), cfg_(cfg) {
  velocity_.reserve(params_.size());
  for (Param* p : params_) {
    APM_CHECK(p != nullptr);
    velocity_.push_back(Tensor::zeros(p->value().shape()));
  }
}

void SgdOptimizer::step() {
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    Param& p = *params_[pi];
    Tensor& v = velocity_[pi];
    float* w = p.mutable_value().data();
    const float* g = p.grad.data();
    float* vel = v.data();
    const std::size_t n = p.numel();
    for (std::size_t i = 0; i < n; ++i) {
      vel[i] = cfg_.momentum * vel[i] -
               cfg_.lr * (g[i] + cfg_.weight_decay * w[i]);
      w[i] += vel[i];
    }
  }
}

}  // namespace apm
