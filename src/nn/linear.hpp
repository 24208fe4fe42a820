#pragma once
// Fully connected layer: y = x W^T + b.
//
// Same thread-safety contract as Conv2d: forward() is const / reentrant,
// backward() serialised by the (single-threaded) trainer. forward() runs on
// W packed once into the GEMM's B panels; the first forward after a weight
// write (Param::mutable_value) repacks them, once, under a lock.

#include <vector>

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace apm {

class Linear {
 public:
  Linear(std::string name, int in_features, int out_features);

  // Xavier-uniform init of weights, zero biases.
  void init(Rng& rng);

  // x: [B, In] -> y: [B, Out], ReLU'd when fuse_relu. Bias and activation
  // are applied in the GEMM store epilogue (no separate passes over y).
  void forward(const Tensor& x, Tensor& y, bool fuse_relu = false) const;

  // dy: [B, Out], x from forward; dx: [B, In] (overwritten).
  void backward(const Tensor& x, const Tensor& dy, Tensor& dx);

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  std::vector<Param*> params() { return {&w_, &b_}; }
  const Param& weight() const { return w_; }
  const Param& bias() const { return b_; }

 private:
  int in_;
  int out_;
  Param w_;  // [Out, In]
  Param b_;  // [Out]
  WeightPack w_pack_;  // w_ as kNR-column B panels
};

}  // namespace apm
