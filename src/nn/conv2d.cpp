#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/ops.hpp"

namespace apm {

Conv2d::Conv2d(std::string name, int in_channels, int out_channels, int ksize)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      ksize_(ksize),
      pad_(ksize / 2) {
  APM_CHECK_MSG(ksize % 2 == 1, "Conv2d requires odd kernel size");
  w_.init_shape(name + ".w", {out_channels, in_channels * ksize * ksize});
  b_.init_shape(name + ".b", {out_channels});
}

void Conv2d::init(Rng& rng) {
  const auto fan_in =
      static_cast<float>(in_channels_ * ksize_ * ksize_);
  w_.mutable_value().fill_randn(rng, std::sqrt(2.0f / fan_in));
  b_.mutable_value().zero();
}

void conv_forward_chunked(
    const Tensor& x, Tensor& y, ConvWorkspace& ws, int in_channels,
    int out_channels, int ksize, int pad, Tensor* col_cache,
    const std::function<void(const float* col, int cols, float* out)>&
        gemm_chunk) {
  APM_CHECK(x.rank() == 4 && x.dim(1) == in_channels);
  const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int hw = h * w;
  const int kk = in_channels * ksize * ksize;
  y.resize({batch, out_channels, h, w});
  if (col_cache != nullptr) col_cache->resize({batch, kk, hw});

  // Cache-resident sub-batching: lower at most `chunk` samples at a time so
  // the col buffer plus the pre-permute GEMM output stay within the
  // workspace budget. Splitting the GEMM's N dimension keeps the per-element
  // K-accumulation order intact, so chunked output is bitwise identical to
  // the monolithic pass.
  const std::size_t budget = ws.col_budget_bytes != 0
                                 ? ws.col_budget_bytes
                                 : ConvWorkspace::kDefaultColBudgetBytes;
  const std::size_t bytes_per_sample =
      static_cast<std::size_t>(kk + out_channels) * hw * sizeof(float);
  const int chunk = std::clamp(
      static_cast<int>(budget / std::max<std::size_t>(1, bytes_per_sample)),
      1, batch);

  ws.col.resize({kk, chunk * hw});
  if (chunk > 1) ws.ybuf.resize({out_channels, chunk * hw});
  const std::size_t x_stride = static_cast<std::size_t>(in_channels) * hw;
  const std::size_t y_stride = static_cast<std::size_t>(out_channels) * hw;
  for (int b0 = 0; b0 < batch; b0 += chunk) {
    const int bs = std::min(chunk, batch - b0);
    // A 1x1 kernel lowers one sample to the sample itself: no copy.
    const float* col = ws.col.data();
    if (ksize == 1 && pad == 0 && bs == 1) {
      col = x.data() + b0 * x_stride;
    } else {
      im2col_batched(x.data() + b0 * x_stride, bs, in_channels, h, w, ksize,
                     pad, ws.col.data());
    }
    if (col_cache != nullptr) {
      // Backward consumes per-sample columns [B, kk, HW]; slice them out of
      // the chunk-major buffer (row r of chunk-sample b is col[r] + b*HW).
      for (int b = 0; b < bs; ++b) {
        float* dst = col_cache->data() +
                     static_cast<std::size_t>(b0 + b) * kk * hw;
        for (int r = 0; r < kk; ++r) {
          std::memcpy(dst + static_cast<std::size_t>(r) * hw,
                      col + (static_cast<std::size_t>(r) * bs + b) * hw,
                      static_cast<std::size_t>(hw) * sizeof(float));
        }
      }
    }

    if (bs == 1) {
      // y_b[Cout, HW] = W[Cout, kk] * col[kk, HW] + b, fused epilogue —
      // channel-major output IS the sample's layout, no permute needed.
      gemm_chunk(col, hw, y.data() + b0 * y_stride);
      continue;
    }
    // ybuf[Cout, bs*HW] = W[Cout, kk] * col[kk, bs*HW] + b, then permute
    // the channel-major GEMM output back to [bs, Cout, HW]. The permute is
    // one contiguous HW-row copy per (b, oc) — negligible next to the 2·kk
    // FLOPs/element GEMM it amortises.
    gemm_chunk(col, bs * hw, ws.ybuf.data());
    for (int b = 0; b < bs; ++b) {
      float* yb = y.data() + (b0 + b) * y_stride;
      for (int oc = 0; oc < out_channels; ++oc) {
        std::memcpy(yb + static_cast<std::size_t>(oc) * hw,
                    ws.ybuf.data() +
                        (static_cast<std::size_t>(oc) * bs + b) * hw,
                    static_cast<std::size_t>(hw) * sizeof(float));
      }
    }
  }
}

void Conv2d::forward(const Tensor& x, Tensor& y, ConvWorkspace& ws,
                     Tensor* col_cache, bool fuse_relu) const {
  const PackedWeights& w = w_pack_.get(w_, WeightRole::kA);
  conv_forward_chunked(
      x, y, ws, in_channels_, out_channels_, ksize_, pad_, col_cache,
      [&](const float* col, int cols, float* out) {
        gemm_packed_bias_relu(w, col, b_.value().data(), out, cols,
                              fuse_relu);
      });
}

void Conv2d::backward(const Tensor& dy, const Tensor& col_cache, Tensor& dx,
                      Tensor& dcol_scratch) {
  APM_CHECK(dy.rank() == 4 && dy.dim(1) == out_channels_);
  const int batch = dy.dim(0), h = dy.dim(2), w = dy.dim(3);
  const int hw = h * w;
  const int kk = in_channels_ * ksize_ * ksize_;
  APM_CHECK(col_cache.rank() == 3 && col_cache.dim(0) == batch &&
            col_cache.dim(1) == kk);
  dx.resize({batch, in_channels_, h, w});
  dx.zero();
  dcol_scratch.resize({kk, hw});

  const std::size_t dy_stride = static_cast<std::size_t>(out_channels_) * hw;
  const std::size_t dx_stride = static_cast<std::size_t>(in_channels_) * hw;
  const std::size_t col_stride = static_cast<std::size_t>(kk) * hw;
  for (int i = 0; i < batch; ++i) {
    const float* dyi = dy.data() + i * dy_stride;
    const float* coli = col_cache.data() + i * col_stride;
    // gW[Cout, kk] += dy_i[Cout, HW] * col_i[kk, HW]^T
    gemm_abt(dyi, coli, w_.grad.data(), out_channels_, kk, hw,
             /*accumulate=*/true);
    // gb[oc] += sum over positions
    for (int oc = 0; oc < out_channels_; ++oc) {
      b_.grad[oc] += sum(dyi + static_cast<std::size_t>(oc) * hw, hw);
    }
    // dcol[kk, HW] = W^T[kk, Cout] * dy_i[Cout, HW]
    gemm_atb(w_.value().data(), dyi, dcol_scratch.data(), kk, hw, out_channels_,
             /*accumulate=*/false);
    col2im(dcol_scratch.data(), in_channels_, h, w, ksize_, pad_,
           dx.data() + i * dx_stride);
  }
}

}  // namespace apm
