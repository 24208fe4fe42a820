#pragma once
// Stride-1, same-padding 2-D convolution via whole-batch im2col + one GEMM.
//
// forward() lowers the entire batch at once (col buffer [Cin*k*k, B*H*W])
// and runs a single large GEMM per layer instead of B tiny ones, with the
// bias broadcast and optional ReLU fused into the GEMM store epilogue. All
// scratch lives in a caller-owned ConvWorkspace so the inference hot path
// allocates nothing once the workspace is warm.
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

#include <functional>
#include <vector>

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace apm {

// Reusable scratch for conv forward: the batched im2col buffer and the
// pre-permute GEMM output. One per inference thread, shared by all layers.
//
// col_budget_bytes bounds the resident scratch (col chunk + ybuf chunk):
// very large batches are lowered in cache-resident sub-batches instead of
// one monolithic col buffer (conv3 at B=128 on the paper net is a ≈66 MB
// col — far off the cache cliff). 0 selects kDefaultColBudgetBytes.
struct ConvWorkspace {
  static constexpr std::size_t kDefaultColBudgetBytes = 4u << 20;

  Tensor col;   // [Cin*k*k, chunk*H*W]
  Tensor ybuf;  // [Cout, chunk*H*W] (GEMM output before the B-major permute)
  std::size_t col_budget_bytes = 0;  // 0 = kDefaultColBudgetBytes
};

// Shared driver for the chunked whole-batch im2col forward pass, used by
// Conv2d and QuantizedConv2d so both precisions run the identical lowering,
// sub-batching and output-permute logic and differ only in the GEMM they
// invoke. Lowers x[B, Cin, H, W] in cache-resident sub-batches and calls
// gemm_chunk(col, cols, out) per chunk, where col is [Cin*k*k, cols],
// cols = bs*H*W, and out is a [Cout, cols] destination — either y directly
// (single-sample chunk, channel-major output needs no permute) or ws.ybuf,
// which the driver then permutes back to [bs, Cout, HW].
void conv_forward_chunked(
    const Tensor& x, Tensor& y, ConvWorkspace& ws, int in_channels,
    int out_channels, int ksize, int pad, Tensor* col_cache,
    const std::function<void(const float* col, int cols, float* out)>&
        gemm_chunk);

class Conv2d {
 public:
  // ksize must be odd; padding is ksize/2 (output size == input size).
  Conv2d(std::string name, int in_channels, int out_channels, int ksize);

  // He-normal init of weights, zero biases.
  void init(Rng& rng);

  // x: [B, Cin, H, W] -> y: [B, Cout, H, W] (ReLU'd when fuse_relu).
  // ws: caller-owned scratch. When col_cache != nullptr it receives the
  // per-image columns (needed by backward), laid out as [B, Cin*k*k, H*W].
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
