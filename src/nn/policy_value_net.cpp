#include "nn/policy_value_net.hpp"

#include <cmath>
#include <cstring>

#include "tensor/ops.hpp"

namespace apm {
namespace {

// Reinterprets a [B, C, H, W] activation as [B, C*H*W]. Row-major storage
// makes the flatten a pure shape change — no copy on the predict hot path.
void flatten_view(Tensor& x) {
  const int batch = x.dim(0);
  const int features = static_cast<int>(x.numel()) / batch;
  x.reshape({batch, features});
}

}  // namespace

PolicyValueNet::PolicyValueNet(const NetConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      conv1_("conv1", cfg.in_channels, cfg.trunk1, 3),
      conv2_("conv2", cfg.trunk1, cfg.trunk2, 3),
      conv3_("conv3", cfg.trunk2, cfg.trunk3, 3),
      conv_p_("conv_p", cfg.trunk3, cfg.policy_channels, 1),
      conv_v_("conv_v", cfg.trunk3, cfg.value_channels, 1),
      fc_p_("fc_p", cfg.policy_channels * cfg.height * cfg.width,
            cfg.actions()),
      fc_v1_("fc_v1", cfg.value_channels * cfg.height * cfg.width,
             cfg.value_hidden),
      fc_v2_("fc_v2", cfg.value_hidden, 1) {
  Rng rng(seed);
  conv1_.init(rng);
  conv2_.init(rng);
  conv3_.init(rng);
  conv_p_.init(rng);
  conv_v_.init(rng);
  fc_p_.init(rng);
  fc_v1_.init(rng);
  fc_v2_.init(rng);
}

void PolicyValueNet::forward(const Tensor& x, Activations& a,
                             bool train) const {
  APM_CHECK(x.rank() == 4 && x.dim(1) == cfg_.in_channels &&
            x.dim(2) == cfg_.height && x.dim(3) == cfg_.width);
  const int batch = x.dim(0);
  // One pass for inference and training: ReLU is fused into each conv and
  // linear GEMM epilogue, so only post-ReLU tensors exist (backward masks
  // its gradients with them: relu(x) > 0 exactly where x > 0). Training
  // also keeps each conv's im2col columns for backward.
  const auto cols = [&](Tensor& c) { return train ? &c : nullptr; };
  conv1_.forward(x, a.t1r, a.conv_ws, cols(a.col1), /*fuse_relu=*/true);
  conv2_.forward(a.t1r, a.t2r, a.conv_ws, cols(a.col2), true);
  conv3_.forward(a.t2r, a.t3r, a.conv_ws, cols(a.col3), true);

  conv_p_.forward(a.t3r, a.p0r, a.conv_ws, cols(a.colp), true);
  flatten_view(a.p0r);
  fc_p_.forward(a.p0r, a.p_logits);
  if (train) {
    // Only the training loss consumes log-probabilities; predict()
    // softmaxes the logits directly.
    a.p_logp.resize({batch, cfg_.actions()});
    log_softmax_rows(a.p_logits.data(), a.p_logp.data(), batch,
                     cfg_.actions());
  }

  conv_v_.forward(a.t3r, a.v0r, a.conv_ws, cols(a.colv), true);
  flatten_view(a.v0r);
  fc_v1_.forward(a.v0r, a.v1r, /*fuse_relu=*/true);
  fc_v2_.forward(a.v1r, a.v2);
  a.value.resize({batch});
  tanh_forward(a.v2.data(), a.value.data(), a.value.numel());
}

void PolicyValueNet::predict(const Tensor& x, Activations& acts,
                             Tensor& policy, Tensor& value) const {
  forward(x, acts, /*train=*/false);
  const int batch = x.dim(0);
  policy.resize({batch, cfg_.actions()});
  softmax_rows(acts.p_logits.data(), policy.data(), batch, cfg_.actions());
  value.resize({batch});
  std::memcpy(value.data(), acts.value.data(), batch * sizeof(float));
}

LossParts PolicyValueNet::train_step(const Tensor& x, const Tensor& target_pi,
                                     const Tensor& target_z,
                                     Activations& a) {
  const int batch = x.dim(0);
  const int actions = cfg_.actions();
  APM_CHECK(target_pi.rank() == 2 && target_pi.dim(0) == batch &&
            target_pi.dim(1) == actions);
  APM_CHECK(target_z.rank() == 1 && target_z.dim(0) == batch);

  forward(x, a, /*train=*/true);

  LossParts loss;
  const float inv_b = 1.0f / static_cast<float>(batch);

  // --- loss + output gradients -------------------------------------------
  // d(policy)/d(logits) for cross-entropy over log-softmax: (softmax − π)/B.
  Tensor& dlogits = a.dlogits;
  dlogits.resize({batch, actions});
  for (int i = 0; i < batch; ++i) {
    const float* logp = a.p_logp.data() + static_cast<std::size_t>(i) * actions;
    const float* pi = target_pi.data() + static_cast<std::size_t>(i) * actions;
    float* drow = dlogits.data() + static_cast<std::size_t>(i) * actions;
    float ce = 0.0f, ent = 0.0f;
    for (int c = 0; c < actions; ++c) {
      const float p = std::exp(logp[c]);
      ce -= pi[c] * logp[c];
      ent -= p * logp[c];
      drow[c] = (p - pi[c]) * inv_b;
    }
    loss.policy_loss += ce * inv_b;
    loss.entropy += ent * inv_b;

    const float v = a.value[i];
    const float diff = v - target_z[i];
    loss.value_loss += diff * diff * inv_b;
  }
  loss.total = loss.value_loss + loss.policy_loss;

  // --- value-head backward -------------------------------------------------
  // dL/dv = 2(v − z)/B; through tanh: dL/d(v2) = dL/dv · (1 − v²).
  Tensor& dv2 = a.dv2;
  dv2.resize({batch, 1});
  for (int i = 0; i < batch; ++i) {
    const float v = a.value[i];
    dv2[i] = 2.0f * (v - target_z[i]) * inv_b * (1.0f - v * v);
  }
  Tensor& dv1r = a.dv1r;
  fc_v2_.backward(a.v1r, dv2, dv1r);
  Tensor& dv1 = a.dv1;
  dv1.resize(a.v1r.shape());
  relu_backward(a.v1r.data(), dv1r.data(), dv1.data(), a.v1r.numel(),
                /*accumulate=*/false);
  // a.v0r is the [B, Cv·H·W] flat view of the conv output; the gradient
  // comes out flat and is un-flattened to [B, Cv, H, W] by a reshape — no
  // copy either way.
  const auto planes = [&](int channels) {
    return std::vector<int>{batch, channels, cfg_.height, cfg_.width};
  };
  Tensor& dv0r = a.dv0r;
  fc_v1_.backward(a.v0r, dv1, dv0r);
  dv0r.reshape(planes(cfg_.value_channels));
  Tensor& dv0 = a.dv0;
  dv0.resize(dv0r.shape());
  relu_backward(a.v0r.data(), dv0r.data(), dv0.data(), a.v0r.numel(),
                /*accumulate=*/false);
  Tensor& dt3_v = a.dt3_v;
  conv_v_.backward(dv0, a.colv, dt3_v, a.dcol);

  // --- policy-head backward ------------------------------------------------
  Tensor& dp0r = a.dp0r;
  fc_p_.backward(a.p0r, dlogits, dp0r);
  dp0r.reshape(planes(cfg_.policy_channels));
  Tensor& dp0 = a.dp0;
  dp0.resize(dp0r.shape());
  relu_backward(a.p0r.data(), dp0r.data(), dp0.data(), a.p0r.numel(),
                /*accumulate=*/false);
  Tensor& dt3_p = a.dt3_p;
  conv_p_.backward(dp0, a.colp, dt3_p, a.dcol);

  // --- trunk backward --------------------------------------------------------
  // dt3r = dt3_v + dt3_p, then back through ReLU and the trunk convs.
  Tensor& dt3 = a.dt3;
  dt3.resize(a.t3r.shape());
  for (std::size_t i = 0; i < dt3.numel(); ++i)
    dt3[i] = dt3_v[i] + dt3_p[i];
  Tensor& dt3_pre = a.dt3_pre;
  dt3_pre.resize(a.t3r.shape());
  relu_backward(a.t3r.data(), dt3.data(), dt3_pre.data(), a.t3r.numel(),
                /*accumulate=*/false);
  Tensor& dt2r = a.dt2r;
  conv3_.backward(dt3_pre, a.col3, dt2r, a.dcol);
  Tensor& dt2_pre = a.dt2_pre;
  dt2_pre.resize(a.t2r.shape());
  relu_backward(a.t2r.data(), dt2r.data(), dt2_pre.data(), a.t2r.numel(),
                /*accumulate=*/false);
  Tensor& dt1r = a.dt1r;
  conv2_.backward(dt2_pre, a.col2, dt1r, a.dcol);
  Tensor& dt1_pre = a.dt1_pre;
  dt1_pre.resize(a.t1r.shape());
  relu_backward(a.t1r.data(), dt1r.data(), dt1_pre.data(), a.t1r.numel(),
                /*accumulate=*/false);
  conv1_.backward(dt1_pre, a.col1, a.dx, a.dcol);

  return loss;
}

std::vector<Param*> PolicyValueNet::params() {
  std::vector<Param*> out;
  for (Conv2d* c : {&conv1_, &conv2_, &conv3_, &conv_p_, &conv_v_})
    for (Param* p : c->params()) out.push_back(p);
  for (Linear* l : {&fc_p_, &fc_v1_, &fc_v2_})
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

std::size_t PolicyValueNet::num_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->numel();
  return n;
}

void PolicyValueNet::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

void PolicyValueNet::copy_weights_from(PolicyValueNet& other) {
  APM_CHECK(cfg_ == other.cfg_);
  auto dst = params();
  auto src = other.params();
  APM_CHECK(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    APM_CHECK(dst[i]->numel() == src[i]->numel());
    std::memcpy(dst[i]->mutable_value().data(), src[i]->value().data(),
                src[i]->numel() * sizeof(float));
  }
}

}  // namespace apm
