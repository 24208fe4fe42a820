#include "nn/conv2d.hpp"

#include <cmath>

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

const ConvPlan& ConvWorkspace::plan(int height, int width, int ksize) {
  for (const ConvPlan& p : plans) {
    if (p.height == height && p.width == width && p.ksize == ksize) return p;
  }
  build_conv_plan(height, width, ksize, plans.emplace_back());
  return plans.back();
}

ConvInput conv_input(const Tensor& x, Tensor& y, ConvWorkspace& ws,
                     int in_channels, int out_channels, int ksize) {
  APM_CHECK(x.rank() == 4 && x.dim(1) == in_channels);
  const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  y.resize({batch, out_channels, h, w});
  return {x.data(), batch, in_channels, &ws.plan(h, w, ksize)};
}

void Conv2d::forward(const Tensor& x, Tensor& y, ConvWorkspace& ws,
                     Tensor* col_cache, bool fuse_relu) const {
  const ConvInput in = conv_input(x, y, ws, in_channels_, out_channels_,
                                  ksize_);
  conv_packed_bias_relu(w_pack_.get(w_, WeightRole::kA), in,
                        b_.value().data(), y.data(), fuse_relu);
  if (col_cache == nullptr) return;
  const int hw = x.dim(2) * x.dim(3);
  const int kk = in_channels_ * ksize_ * ksize_;
  col_cache->resize({in.batch, kk, hw});
  for (int b = 0; b < in.batch; ++b) {
    im2col(x.data() + static_cast<std::size_t>(b) * in_channels_ * hw,
           in_channels_, x.dim(2), x.dim(3), ksize_, pad_,
           col_cache->data() + static_cast<std::size_t>(b) * kk * hw);
  }
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
