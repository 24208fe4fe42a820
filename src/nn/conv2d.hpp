#pragma once
// Stride-1, same-padding 2-D convolution as an implicit GEMM.
//
// forward() runs the whole batch as one GEMM per layer
// (conv_packed_bias_relu): the GEMM's B panels are gathered straight from
// x[B, Cin, H, W] and its tiles stored straight into y[B, Cout, H, W], with
// the bias broadcast and optional ReLU fused into the store epilogue — no
// lowered column buffer, no output permute. The gather's lane masks live
// in a caller-owned ConvWorkspace, built once per input shape, so the
// inference hot path allocates nothing once the workspace is warm.
//
// Thread-safety contract: forward() is const and reads only the weights, so
// any number of inference threads may call it concurrently as long as each
// supplies its own workspace. It runs on the kernel packed once into the
// GEMM's kMR-row A panels; the first forward after a weight write
// (Param::mutable_value) repacks them, once, under a lock, so weight writes
// must not overlap a forward. backward() accumulates into the parameter
// gradients and must be externally serialised (the training pipeline is
// single-threaded by design, matching the paper's separate "DNN training
// stage").

#include <vector>

#include "nn/param.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace apm {

// Reusable scratch for conv forward: the gather plans of the input shapes
// seen so far (a net's 3x3 trunk and 1x1 heads keep one each). One per
// inference thread, shared by all layers.
struct ConvWorkspace {
  std::vector<ConvPlan> plans;

  // The plan for an H×W input under a ksize×ksize kernel, built on first use.
  const ConvPlan& plan(int height, int width, int ksize);
};

// Checks x against a conv layer's input channels, sizes y to
// [B, out_channels, H, W] and returns x as the implicit GEMM's B operand.
// Shared by Conv2d and QuantizedConv2d, which differ only in the GEMM.
ConvInput conv_input(const Tensor& x, Tensor& y, ConvWorkspace& ws,
                     int in_channels, int out_channels, int ksize);

class Conv2d {
 public:
  // ksize must be odd; padding is ksize/2 (output size == input size).
  Conv2d(std::string name, int in_channels, int out_channels, int ksize);

  // He-normal init of weights, zero biases.
  void init(Rng& rng);

  // x: [B, Cin, H, W] -> y: [B, Cout, H, W] (ReLU'd when fuse_relu).
  // ws: caller-owned scratch. When col_cache != nullptr it also receives
  // the per-image im2col columns backward needs, laid out as
  // [B, Cin*k*k, H*W]; y never reads them.
  void forward(const Tensor& x, Tensor& y, ConvWorkspace& ws,
               Tensor* col_cache = nullptr, bool fuse_relu = false) const;

  // dy: [B, Cout, H, W]; col_cache from forward; dx: [B, Cin, H, W]
  // (overwritten). Accumulates weight/bias gradients.
  void backward(const Tensor& dy, const Tensor& col_cache, Tensor& dx,
                Tensor& dcol_scratch);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int ksize() const { return ksize_; }

  std::vector<Param*> params() { return {&w_, &b_}; }
  const Param& weight() const { return w_; }
  const Param& bias() const { return b_; }

 private:
  int in_channels_;
  int out_channels_;
  int ksize_;
  int pad_;
  Param w_;  // [Cout, Cin*k*k]
  Param b_;  // [Cout]
  WeightPack w_pack_;  // w_ as kMR-row A panels
};

}  // namespace apm
