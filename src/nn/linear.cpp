#include "nn/linear.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace apm {

Linear::Linear(std::string name, int in_features, int out_features)
    : in_(in_features), out_(out_features) {
  w_.init_shape(name + ".w", {out_features, in_features});
  b_.init_shape(name + ".b", {out_features});
}

void Linear::init(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  w_.mutable_value().fill_uniform(rng, -bound, bound);
  b_.mutable_value().zero();
}

void Linear::forward(const Tensor& x, Tensor& y, bool fuse_relu) const {
  APM_CHECK(x.rank() == 2 && x.dim(1) == in_);
  const int batch = x.dim(0);
  y.resize({batch, out_});
  // y[B, Out] = x[B, In] * W[Out, In]^T + b, fused epilogue.
  gemm_abt_packed_bias_relu(x.data(), w_pack_.get(w_, WeightRole::kBt),
                            b_.value().data(), y.data(), batch, fuse_relu);
}

void Linear::backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  APM_CHECK(dy.rank() == 2 && dy.dim(1) == out_);
  const int batch = dy.dim(0);
  APM_CHECK(x.dim(0) == batch && x.dim(1) == in_);
  // gW[Out, In] += dy[B, Out]^T * x[B, In]
  gemm_atb(dy.data(), x.data(), w_.grad.data(), out_, in_, batch,
           /*accumulate=*/true);
  for (int i = 0; i < batch; ++i) {
    const float* row = dy.data() + static_cast<std::size_t>(i) * out_;
    for (int o = 0; o < out_; ++o) b_.grad[o] += row[o];
  }
  dx.resize({batch, in_});
  // dx[B, In] = dy[B, Out] * W[Out, In]
  gemm(dy.data(), w_.value().data(), dx.data(), batch, in_, out_,
       /*accumulate=*/false);
}

}  // namespace apm
