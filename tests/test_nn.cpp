// NN-layer tests: forward passes vs naive references, finite-difference
// gradient checks, loss behaviour, optimizer, serialization, thread-safe
// inference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <sstream>
#include <string>
#include <thread>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/policy_value_net.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"

namespace apm {
namespace {

// Naive direct convolution (stride 1, same padding) for cross-checking.
void naive_conv(const Tensor& x, const Param& w, const Param& b, int cin,
                int cout, int ksize, Tensor& y) {
  const int batch = x.dim(0), h = x.dim(2), ww = x.dim(3);
  const int pad = ksize / 2;
  y.resize({batch, cout, h, ww});
  for (int n = 0; n < batch; ++n)
    for (int oc = 0; oc < cout; ++oc)
      for (int oy = 0; oy < h; ++oy)
        for (int ox = 0; ox < ww; ++ox) {
          double acc = b.value()[oc];
          for (int ic = 0; ic < cin; ++ic)
            for (int ky = 0; ky < ksize; ++ky)
              for (int kx = 0; kx < ksize; ++kx) {
                const int iy = oy + ky - pad, ix = ox + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= ww) continue;
                const float xv =
                    x[((static_cast<std::size_t>(n) * cin + ic) * h + iy) *
                          ww +
                      ix];
                const float wv =
                    w.value()[(static_cast<std::size_t>(oc) * cin + ic) *
                                ksize * ksize +
                            ky * ksize + kx];
                acc += static_cast<double>(xv) * wv;
              }
          y[((static_cast<std::size_t>(n) * cout + oc) * h + oy) * ww + ox] =
              static_cast<float>(acc);
        }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// True when `a` and `b` predict bit-identical policies and values on x.
bool same_predictions(const PolicyValueNet& a, const PolicyValueNet& b,
                      const Tensor& x) {
  Activations acts_a, acts_b;
  Tensor pa, va, pb, vb;
  a.predict(x, acts_a, pa, va);
  b.predict(x, acts_b, pb, vb);
  return same_bits(pa, pb) && same_bits(va, vb);
}

TEST(Conv2d, MatchesNaiveConvolution) {
  Rng rng(10);
  Conv2d conv("c", 3, 5, 3);
  conv.init(rng);
  Tensor x = Tensor::randn({2, 3, 6, 7}, rng, 1.0f);
  Tensor y;
  ConvWorkspace ws;
  conv.forward(x, y, ws);
  Tensor expect;
  naive_conv(x, conv.weight(), conv.bias(), 3, 5, 3, expect);
  EXPECT_LT(max_abs_diff(y, expect), 1e-3f);
}

TEST(Conv2d, OneByOneKernelIsChannelMix) {
  Rng rng(11);
  Conv2d conv("c", 4, 2, 1);
  conv.init(rng);
  Tensor x = Tensor::randn({1, 4, 3, 3}, rng, 1.0f);
  Tensor y;
  ConvWorkspace ws;
  conv.forward(x, y, ws);
  Tensor expect;
  naive_conv(x, conv.weight(), conv.bias(), 4, 2, 1, expect);
  EXPECT_LT(max_abs_diff(y, expect), 1e-4f);
}

TEST(Conv2d, BatchedForwardMatchesPerSamplePath) {
  // The whole-batch im2col + single-GEMM path must agree with running the
  // same convolution one sample at a time (the seed's per-sample scheme) —
  // ISSUE-1 acceptance bound: 1e-4 max-abs-diff.
  Rng rng(14);
  Conv2d conv("c", 3, 6, 3);
  conv.init(rng);
  const int batch = 5, h = 9, w = 9;
  Tensor x = Tensor::randn({batch, 3, h, w}, rng, 1.0f);

  Tensor y_batched;
  ConvWorkspace ws;
  conv.forward(x, y_batched, ws);

  const std::size_t sample = static_cast<std::size_t>(3) * h * w;
  Tensor xi({1, 3, h, w}), yi;
  ConvWorkspace ws1;
  for (int b = 0; b < batch; ++b) {
    std::memcpy(xi.data(), x.data() + b * sample, sample * sizeof(float));
    conv.forward(xi, yi, ws1);
    float mx = 0.0f;
    const float* yb =
        y_batched.data() + static_cast<std::size_t>(b) * yi.numel();
    for (std::size_t i = 0; i < yi.numel(); ++i)
      mx = std::max(mx, std::fabs(yb[i] - yi[i]));
    EXPECT_LT(mx, 1e-4f) << "sample " << b;
  }
}

TEST(PolicyValueNet, BatchedPredictMatchesPerSample) {
  const NetConfig cfg = NetConfig::tiny(7);
  PolicyValueNet net(cfg, 33);
  Rng rng(34);
  const int batch = 6;
  Tensor x = Tensor::randn({batch, cfg.in_channels, 7, 7}, rng, 1.0f);
  Activations acts;
  Tensor policy, value;
  net.predict(x, acts, policy, value);

  const std::size_t sample =
      static_cast<std::size_t>(cfg.in_channels) * 7 * 7;
  Tensor xi({1, cfg.in_channels, 7, 7});
  Activations acts1;
  Tensor p1, v1;
  for (int b = 0; b < batch; ++b) {
    std::memcpy(xi.data(), x.data() + b * sample, sample * sizeof(float));
    net.predict(xi, acts1, p1, v1);
    for (int a = 0; a < cfg.actions(); ++a) {
      ASSERT_NEAR(policy.at2(b, a), p1[a], 1e-4f) << "b=" << b << " a=" << a;
    }
    ASSERT_NEAR(value[b], v1[0], 1e-4f) << "b=" << b;
  }
}

TEST(Conv2d, FusedReluMatchesSeparateRelu) {
  Rng rng(15);
  Conv2d conv("c", 2, 4, 3);
  conv.init(rng);
  Tensor x = Tensor::randn({3, 2, 6, 5}, rng, 1.0f);
  ConvWorkspace ws;
  Tensor y_plain, y_fused;
  conv.forward(x, y_plain, ws);
  conv.forward(x, y_fused, ws, nullptr, /*fuse_relu=*/true);
  Tensor expect(y_plain.shape());
  relu_forward(y_plain.data(), expect.data(), y_plain.numel());
  EXPECT_EQ(max_abs_diff(y_fused, expect), 0.0f);
}

TEST(Conv2d, BatchedColCacheMatchesPerSampleIm2col) {
  // Training keeps per-sample columns for backward; they must be exactly
  // what per-sample im2col produces, and filling them must not change the
  // forward output.
  for (const int ksize : {3, 1}) {
    Rng rng(16);
    Conv2d conv("c", 2, 3, ksize);
    conv.init(rng);
    const int batch = 4, h = 5, w = 6;
    const int kk = 2 * ksize * ksize, hw = h * w;
    Tensor x = Tensor::randn({batch, 2, h, w}, rng, 1.0f);
    Tensor y, cache;
    ConvWorkspace ws;
    conv.forward(x, y, ws, &cache);
    ASSERT_EQ(cache.dim(0), batch);
    std::vector<float> single(static_cast<std::size_t>(kk) * hw);
    for (int b = 0; b < batch; ++b) {
      im2col(x.data() + static_cast<std::size_t>(b) * 2 * hw, 2, h, w, ksize,
             ksize / 2, single.data());
      const float* cb = cache.data() + static_cast<std::size_t>(b) * kk * hw;
      for (std::size_t i = 0; i < single.size(); ++i)
        ASSERT_EQ(cb[i], single[i]) << "k=" << ksize << " b=" << b
                                    << " i=" << i;
    }
    Tensor y_whole;
    ConvWorkspace ws_whole;
    conv.forward(x, y_whole, ws_whole);
    EXPECT_TRUE(same_bits(y, y_whole)) << "k=" << ksize;
  }
}

TEST(Conv2d, ImplicitGemmMatchesPerSampleIm2colBitwise) {
  // The implicit GEMM gathers its B panels straight from x and stores
  // straight into [B, Cout, HW]; it must equal per-sample im2col +
  // gemm_bias_relu on the same weights bit for bit. The shapes cover both
  // kernels, boards whose panels straddle samples (H*W not a multiple of
  // 16), N = 1125 > the GEMM's 1024-column block (B = 5 at 15x15) and
  // K = 576, three K blocks.
  constexpr int kCin = 64, kCout = 13;
  ConvWorkspace ws;  // one workspace across every shape, as a net uses it
  for (const int ksize : {1, 3}) {
    Rng rng(static_cast<std::uint64_t>(40 + ksize));
    Conv2d conv("c", kCin, kCout, ksize);
    conv.init(rng);
    conv.params()[1]->mutable_value().fill_randn(rng, 0.5f);
    const int kk = kCin * ksize * ksize;
    for (const auto& [h, w] : {std::pair{15, 15}, std::pair{9, 9},
                               std::pair{6, 6}, std::pair{6, 7}}) {
      const int hw = h * w;
      for (const int batch : {1, 2, 5, 8}) {
        const Tensor x = Tensor::randn({batch, kCin, h, w}, rng, 1.0f);
        std::vector<float> col(static_cast<std::size_t>(kk) * hw);
        for (const bool relu : {true, false}) {
          Tensor expect({batch, kCout, h, w});
          for (int b = 0; b < batch; ++b) {
            im2col(x.data() + static_cast<std::size_t>(b) * kCin * hw, kCin,
                   h, w, ksize, ksize / 2, col.data());
            gemm_bias_relu(conv.weight().value().data(), col.data(),
                           conv.bias().value().data(),
                           expect.data() +
                               static_cast<std::size_t>(b) * kCout * hw,
                           kCout, hw, kk, relu);
          }
          Tensor y;
          conv.forward(x, y, ws, nullptr, relu);
          EXPECT_TRUE(same_bits(y, expect))
              << "k=" << ksize << " board=" << h << "x" << w
              << " B=" << batch << " relu=" << relu;
        }
      }
    }
  }
}

TEST(Linear, FusedReluMatchesSeparateRelu) {
  Rng rng(13);
  Linear fc("f", 11, 6);
  fc.init(rng);
  // Non-zero bias so the fused epilogue's bias term is exercised.
  fc.params()[1]->mutable_value().fill_randn(rng, 0.5f);
  Tensor x = Tensor::randn({4, 11}, rng, 1.0f);
  Tensor y_plain, y_fused;
  fc.forward(x, y_plain);
  fc.forward(x, y_fused, /*fuse_relu=*/true);
  Tensor expect(y_plain.shape());
  relu_forward(y_plain.data(), expect.data(), y_plain.numel());
  EXPECT_EQ(max_abs_diff(y_fused, expect), 0.0f);
}

TEST(Linear, MatchesNaiveAffine) {
  Rng rng(12);
  Linear fc("f", 7, 4);
  fc.init(rng);
  Tensor x = Tensor::randn({3, 7}, rng, 1.0f);
  Tensor y;
  fc.forward(x, y);
  for (int b = 0; b < 3; ++b)
    for (int o = 0; o < 4; ++o) {
      double acc = fc.weight().value()[o * 7];  // placeholder init below
      acc = 0;
      for (int i = 0; i < 7; ++i)
        acc += static_cast<double>(x.at2(b, i)) *
               fc.weight().value()[static_cast<std::size_t>(o) * 7 + i];
      ASSERT_NEAR(y.at2(b, o), acc, 1e-4);  // bias is zero after init
    }
}

TEST(Layers, ForwardAfterInitMatchesFreshLayer) {
  // init() rewrites weights a layer may already have packed; the next
  // forward must use the new ones.
  Rng rng(17);
  Linear fc("f", 300, 21), fresh_fc("f", 300, 21);
  Conv2d conv("c", 5, 6, 3), fresh_conv("c", 5, 6, 3);
  fc.init(rng);
  conv.init(rng);
  const Tensor x = Tensor::randn({2, 300}, rng, 1.0f);
  const Tensor xc = Tensor::randn({2, 5, 6, 6}, rng, 1.0f);
  Tensor y, y_fresh;
  ConvWorkspace ws;
  fc.forward(x, y);
  conv.forward(xc, y, ws);

  Rng reinit(5), same(5);
  fc.init(reinit);
  conv.init(reinit);
  fresh_fc.init(same);
  fresh_conv.init(same);
  fc.forward(x, y);
  fresh_fc.forward(x, y_fresh);
  EXPECT_TRUE(same_bits(y, y_fresh)) << "Linear::init";
  conv.forward(xc, y, ws);
  fresh_conv.forward(xc, y_fresh, ws);
  EXPECT_TRUE(same_bits(y, y_fresh)) << "Conv2d::init";
}

// Finite-difference gradient check for the full network loss. This is the
// strongest correctness statement about the training path: every layer's
// backward must be right for it to pass.
TEST(PolicyValueNet, GradientsMatchFiniteDifferences) {
  const NetConfig cfg = NetConfig::tiny(4);
  PolicyValueNet net(cfg, 21);
  Rng rng(22);
  const int batch = 2;
  Tensor x = Tensor::randn({batch, cfg.in_channels, 4, 4}, rng, 0.5f);
  Tensor pi({batch, cfg.actions()});
  for (int b = 0; b < batch; ++b) {
    float total = 0;
    for (int a = 0; a < cfg.actions(); ++a) {
      pi.at2(b, a) = rng.uniform_float() + 0.01f;
      total += pi.at2(b, a);
    }
    for (int a = 0; a < cfg.actions(); ++a) pi.at2(b, a) /= total;
  }
  Tensor z({batch});
  z[0] = 0.5f;
  z[1] = -0.3f;

  Activations acts;
  net.zero_grad();
  const LossParts loss = net.train_step(x, pi, z, acts);
  ASSERT_TRUE(std::isfinite(loss.total));

  // Snapshot analytic gradients before the FD probes re-run train_step
  // (which accumulates into the grad tensors).
  auto params = net.params();
  std::vector<std::vector<float>> analytic(params.size());
  for (std::size_t pi_idx = 0; pi_idx < params.size(); ++pi_idx) {
    Param* p = params[pi_idx];
    analytic[pi_idx].assign(p->grad.data(), p->grad.data() + p->numel());
  }

  // Each parameter is also probed at its largest-|gradient| entry, with an
  // absolute floor below every such gradient (the smallest is ~0.08 for
  // fc_p.w; the finite-difference error is ~1e-3 at most): a forward pass
  // that ignored the probe's weight write gives numeric 0 and fails there.
  const float eps = 1e-3f;
  const float abs_floor = 5e-3f;
  int checked = 0;
  for (std::size_t pi_idx = 0; pi_idx < params.size(); ++pi_idx) {
    Param* p = params[pi_idx];
    const std::vector<float>& g = analytic[pi_idx];
    const auto top = static_cast<std::size_t>(
        std::max_element(g.begin(), g.end(),
                         [](float lhs, float rhs) {
                           return std::fabs(lhs) < std::fabs(rhs);
                         }) -
        g.begin());
    for (std::size_t idx :
         {std::size_t{0}, p->numel() / 2, p->numel() - 1, top}) {
      const float saved = p->value()[idx];
      p->mutable_value()[idx] = saved + eps;
      Activations tmp;
      const LossParts up = net.train_step(x, pi, z, tmp);
      p->mutable_value()[idx] = saved - eps;
      const LossParts down = net.train_step(x, pi, z, tmp);
      p->mutable_value()[idx] = saved;
      const float numeric = (up.total - down.total) / (2 * eps);
      EXPECT_NEAR(g[idx], numeric, abs_floor + 0.05f * std::fabs(numeric))
          << p->name << "[" << idx << "]";
      ++checked;
    }
  }
  EXPECT_GE(checked, 4 * 16);
}

TEST(PolicyValueNet, ForwardShapesAndRanges) {
  const NetConfig cfg = NetConfig::tiny(5);
  PolicyValueNet net(cfg, 5);
  Rng rng(2);
  Tensor x = Tensor::randn({3, cfg.in_channels, 5, 5}, rng, 1.0f);
  Activations acts;
  Tensor policy, value;
  net.predict(x, acts, policy, value);
  ASSERT_EQ(policy.dim(0), 3);
  ASSERT_EQ(policy.dim(1), 25);
  for (int b = 0; b < 3; ++b) {
    float total = 0;
    for (int a = 0; a < 25; ++a) {
      ASSERT_GE(policy.at2(b, a), 0.0f);
      total += policy.at2(b, a);
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
    EXPECT_GT(value[b], -1.0f);
    EXPECT_LT(value[b], 1.0f);
  }
}

TEST(PolicyValueNet, ActionOverrideNarrowsPolicyHead) {
  // Connect4-shaped head: a 6x7 board with 7 column actions. Every policy
  // consumer goes through NetConfig::actions(), so the override must flow
  // into predict() widths, normalisation, training, and checkpoints.
  NetConfig cfg = NetConfig::tiny(6);
  cfg.width = 7;
  cfg.action_override = 7;
  ASSERT_EQ(cfg.actions(), 7);
  PolicyValueNet net(cfg, 9);
  Rng rng(10);
  Tensor x = Tensor::randn({2, cfg.in_channels, 6, 7}, rng, 1.0f);
  Activations acts;
  Tensor policy, value;
  net.predict(x, acts, policy, value);
  ASSERT_EQ(policy.dim(1), 7);
  for (int b = 0; b < 2; ++b) {
    float total = 0;
    for (int a = 0; a < 7; ++a) total += policy.at2(b, a);
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
  // One train step against 7-way targets runs through the same head.
  Tensor pi = Tensor::zeros({2, 7});
  pi.at2(0, 3) = 1.0f;
  pi.at2(1, 6) = 1.0f;
  Tensor z({2});
  z[0] = 0.5f;
  z[1] = -0.5f;
  net.zero_grad();
  const LossParts parts = net.train_step(x, pi, z, acts);
  EXPECT_TRUE(std::isfinite(parts.total));
  // Checkpoints carry the override (format v2) and round-trip the weights.
  PolicyValueNet twin(cfg, 77);
  std::stringstream stream;
  save_net(net, stream);
  const NetConfig peeked = peek_net_config(stream);
  EXPECT_EQ(peeked, cfg);
  stream.seekg(0);
  load_net(twin, stream);
  auto pa = net.params();
  auto pb = twin.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(max_abs_diff(pa[i]->value(), pb[i]->value()), 1e-9f);
  }
}

TEST(PolicyValueNet, TrainingReducesLossOnFixedBatch) {
  const NetConfig cfg = NetConfig::tiny(4);
  PolicyValueNet net(cfg, 33);
  Rng rng(34);
  const int batch = 8;
  Tensor x = Tensor::randn({batch, cfg.in_channels, 4, 4}, rng, 0.7f);
  Tensor pi = Tensor::zeros({batch, cfg.actions()});
  Tensor z({batch});
  for (int b = 0; b < batch; ++b) {
    pi.at2(b, b % cfg.actions()) = 1.0f;  // one-hot targets
    z[b] = (b % 2 == 0) ? 0.8f : -0.8f;
  }
  SgdConfig sgd;
  sgd.lr = 0.01f;
  sgd.momentum = 0.9f;
  sgd.weight_decay = 0.0f;
  SgdOptimizer opt(net.params(), sgd);
  Activations acts;

  net.zero_grad();
  const float initial = net.train_step(x, pi, z, acts).total;
  opt.step();
  float final_loss = initial;
  for (int step = 0; step < 200; ++step) {
    net.zero_grad();
    final_loss = net.train_step(x, pi, z, acts).total;
    opt.step();
  }
  EXPECT_LT(final_loss, initial * 0.5f) << "no learning progress";

  // Every step wrote weights the previous train_step had packed; predict()
  // must see the last write, like a net built fresh with those weights.
  PolicyValueNet fresh(cfg, 1);
  fresh.copy_weights_from(net);
  EXPECT_TRUE(same_predictions(net, fresh, x)) << "SgdOptimizer::step";
}

TEST(PolicyValueNet, TrainForwardMatchesPredictBitwise) {
  // Training fills its col caches on the side; its post-ReLU activations
  // and heads must still be exactly what inference computes. The paper net's conv3 spans three K
  // blocks, and a 15x15 batch of 3 has panels straddling samples.
  const NetConfig cfg;
  PolicyValueNet net(cfg, 61);
  Rng rng(62);
  for (Param* p : net.params()) {  // non-zero biases reach every epilogue
    if (p->name.ends_with(".b")) p->mutable_value().fill_randn(rng, 0.1f);
  }
  const Tensor x =
      Tensor::randn({3, cfg.in_channels, cfg.height, cfg.width}, rng, 1.0f);
  Activations train, infer;
  net.forward(x, train, /*train=*/true);
  net.forward(x, infer, /*train=*/false);
  EXPECT_TRUE(same_bits(train.t1r, infer.t1r));
  EXPECT_TRUE(same_bits(train.t2r, infer.t2r));
  EXPECT_TRUE(same_bits(train.t3r, infer.t3r));
  EXPECT_TRUE(same_bits(train.p0r, infer.p0r));
  EXPECT_TRUE(same_bits(train.v0r, infer.v0r));
  EXPECT_TRUE(same_bits(train.v1r, infer.v1r));
  EXPECT_TRUE(same_bits(train.p_logits, infer.p_logits));
  EXPECT_TRUE(same_bits(train.value, infer.value));
}

TEST(PolicyValueNet, ParameterCountMatchesArchitecture) {
  NetConfig cfg;  // paper configuration: 15×15, 5 conv + 3 FC
  PolicyValueNet net(cfg, 1);
  // conv1 4→32 (3x3): 32*36+32 ... just assert the total is stable and
  // the parameter list has 8 layers × 2 tensors.
  EXPECT_EQ(net.params().size(), 16u);
  EXPECT_GT(net.num_parameters(), 100000u);
}

TEST(PolicyValueNet, PredictIsThreadSafe) {
  const NetConfig cfg = NetConfig::tiny(4);
  PolicyValueNet net(cfg, 8);
  Rng rng(9);
  Tensor x = Tensor::randn({1, cfg.in_channels, 4, 4}, rng, 1.0f);

  Activations ref_acts;
  Tensor ref_policy, ref_value;
  net.predict(x, ref_acts, ref_policy, ref_value);

  constexpr int kThreads = 4;
  std::vector<float> values(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Activations acts;
        Tensor policy, value;
        for (int i = 0; i < 20; ++i) net.predict(x, acts, policy, value);
        values[t] = value[0];
      });
    }
  }
  for (float v : values) EXPECT_FLOAT_EQ(v, ref_value[0]);
}

TEST(Serialization, RoundTripsWeights) {
  const NetConfig cfg = NetConfig::tiny(4);
  PolicyValueNet a(cfg, 100);
  PolicyValueNet b(cfg, 200);  // different init

  Rng rng(3);
  const Tensor x = Tensor::randn({2, cfg.in_channels, 4, 4}, rng, 1.0f);
  EXPECT_FALSE(same_predictions(a, b, x));  // b packs its own weights

  std::stringstream stream;
  save_net(a, stream);
  load_net(b, stream);

  auto pa = a.params();
  auto pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(max_abs_diff(pa[i]->value(), pb[i]->value()), 1e-9f);
  }
  EXPECT_TRUE(same_predictions(a, b, x)) << "load_net";
}

TEST(Serialization, PeekReadsConfig) {
  const NetConfig cfg = NetConfig::tiny(6);
  PolicyValueNet net(cfg, 1);
  std::stringstream stream;
  save_net(net, stream);
  const NetConfig peeked = peek_net_config(stream);
  EXPECT_EQ(peeked, cfg);
}

TEST(Serialization, RejectsMismatchedConfig) {
  PolicyValueNet a(NetConfig::tiny(4), 1);
  PolicyValueNet b(NetConfig::tiny(5), 1);
  std::stringstream stream;
  save_net(a, stream);
  EXPECT_DEATH(load_net(b, stream), "config mismatch");
}

TEST(Serialization, PeekRejectsUnsupportedVersion) {
  PolicyValueNet net(NetConfig::tiny(4), 1);
  std::stringstream saved;
  save_net(net, saved);
  std::string bytes = saved.str();
  const std::uint32_t version = 99;  // the u32 after the 4-byte magic
  std::memcpy(bytes.data() + 4, &version, sizeof version);
  std::stringstream stream(bytes);
  EXPECT_DEATH(peek_net_config(stream), "unsupported checkpoint version");
}

TEST(Serialization, RejectsOutOfRangeConfig) {
  // Every header field is checked before anything is sized from it: a
  // zero, negative or huge field aborts with the field's name.
  PolicyValueNet net(NetConfig::tiny(4), 1);
  std::stringstream saved;
  save_net(net, saved);
  // Config i32 fields start after the 4-byte magic and u32 version, in
  // NetConfig order: in_channels, height, width, trunk1, trunk2, ...
  const auto patched = [&](int field, std::int32_t v) {
    std::string bytes = saved.str();
    std::memcpy(bytes.data() + 8 + 4 * field, &v, sizeof v);
    return bytes;
  };
  std::stringstream negative(patched(4, -3));
  EXPECT_DEATH(peek_net_config(negative), "trunk2 out of range");
  std::stringstream zero(patched(1, 0));
  EXPECT_DEATH(peek_net_config(zero), "height out of range");
  std::stringstream huge(patched(0, 1 << 30));
  EXPECT_DEATH(load_net(net, huge), "in_channels out of range");
  // Each field in range, their product not: a 50000x50000 board.
  std::string board = patched(1, 50000);
  std::memcpy(board.data() + 8 + 4 * 2, &board[8 + 4 * 1], 4);
  std::stringstream wide(board);
  EXPECT_DEATH(peek_net_config(wide), "height\\*width overflows int");
}

TEST(Optimizer, MomentumAccumulates) {
  Param p;
  p.init_shape("w", {1});
  p.mutable_value()[0] = 0.0f;
  p.grad[0] = 1.0f;
  SgdConfig cfg;
  cfg.lr = 0.1f;
  cfg.momentum = 0.9f;
  cfg.weight_decay = 0.0f;
  SgdOptimizer opt({&p}, cfg);
  opt.step();  // v = -0.1, w = -0.1
  EXPECT_NEAR(p.value()[0], -0.1f, 1e-6f);
  opt.step();  // v = -0.9*0.1 - 0.1 = -0.19, w = -0.29
  EXPECT_NEAR(p.value()[0], -0.29f, 1e-6f);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Param p;
  p.init_shape("w", {1});
  p.mutable_value()[0] = 1.0f;
  p.grad[0] = 0.0f;
  SgdConfig cfg;
  cfg.lr = 0.1f;
  cfg.momentum = 0.0f;
  cfg.weight_decay = 0.5f;
  SgdOptimizer opt({&p}, cfg);
  opt.step();
  EXPECT_NEAR(p.value()[0], 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(PolicyValueNet, CopyWeightsProducesIdenticalOutputs) {
  const NetConfig cfg = NetConfig::tiny(4);
  PolicyValueNet a(cfg, 1), b(cfg, 2);
  Rng rng(3);
  Tensor x = Tensor::randn({1, cfg.in_channels, 4, 4}, rng, 1.0f);
  EXPECT_FALSE(same_predictions(a, b, x));  // b packs its own weights
  b.copy_weights_from(a);
  EXPECT_TRUE(same_predictions(a, b, x)) << "copy_weights_from";
}

TEST(PolicyValueNet, ConcurrentFirstPredictAfterWeightWrite) {
  // Four threads make the first predict() after a weight write at the same
  // moment: exactly one repacks each layer, the others must wait for that
  // pack rather than read a half-written one (run under TSan in CI). Then
  // the same for an int8 snapshot, whose fp32 head layers pack lazily.
  constexpr int kThreads = 4;
  const NetConfig cfg = NetConfig::tiny(5);
  PolicyValueNet net(cfg, 8);
  Rng rng(9);
  const Tensor x = Tensor::randn({1, cfg.in_channels, 5, 5}, rng, 1.0f);

  auto race = [&](const auto& model) {
    std::vector<Tensor> policies(kThreads), values(kThreads);
    std::latch start(kThreads);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          Activations acts;
          start.arrive_and_wait();
          model.predict(x, acts, policies[t], values[t]);
        });
      }
    }
    return std::pair{policies, values};
  };

  Activations acts;
  Tensor policy, value;
  net.predict(x, acts, policy, value);
  for (int round = 0; round < 4; ++round) {
    PolicyValueNet src(cfg, 100 + round);
    net.copy_weights_from(src);
    src.predict(x, acts, policy, value);
    const auto [policies, values] = race(net);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(same_bits(policies[t], policy)) << "round " << round;
      EXPECT_TRUE(same_bits(values[t], value)) << "round " << round;
    }
  }

  const QuantizedPolicyValueNet qnet(net);
  const auto [policies, values] = race(qnet);
  qnet.predict(x, acts, policy, value);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_bits(policies[t], policy)) << "int8 thread " << t;
    EXPECT_TRUE(same_bits(values[t], value)) << "int8 thread " << t;
  }
}

}  // namespace
}  // namespace apm
