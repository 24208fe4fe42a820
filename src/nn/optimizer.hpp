#pragma once
// Momentum SGD with decoupled weight decay.
//
// The paper's DNN training stage is plain SGD (Eq. 2 + L2 term); weight
// decay here implements the "c‖θ‖²" regulariser of AlphaZero-style losses.

#include <vector>

#include "nn/param.hpp"

namespace apm {

struct SgdConfig {
  float lr = 2e-3f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
};

class SgdOptimizer {
 public:
  SgdOptimizer(std::vector<Param*> params, SgdConfig cfg);

  // v ← μ·v − lr·(g + wd·w);  w ← w + v. Gradients are left untouched
  // (call zero_grad on the net between steps).
  void step();

  float lr() const { return cfg_.lr; }

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> velocity_;
  SgdConfig cfg_;
};

}  // namespace apm
