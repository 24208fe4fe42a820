// Quantized-inference tests. Kernel layer: int8 GEMM vs fp32 reference
// tolerance and exact agreement with a naive quantize/dequantize
// reference, per-call and on weights packed once. Net layer: the
// fp32 -> int8 conversion pass, APMQ checkpoint round-trips (per-channel
// scales survive bit-for-bit), and the NetEvaluator int8 flavor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <tuple>
#include <vector>

#include "eval/net_evaluator.hpp"
#include "nn/quantize.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"

namespace apm {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = 2.0f * rng.uniform_float() - 1.0f;
  return v;
}

void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, int m, int n, int k) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
}

TEST(QuantizeRows, RoundTripWithinHalfStep) {
  const int rows = 5, k = 37;
  Rng rng(11);
  const auto w = random_vec(static_cast<std::size_t>(rows) * k, rng);
  std::vector<std::int8_t> wq(w.size());
  std::vector<float> scales(rows);
  quantize_rows_int8(w.data(), rows, k, wq.data(), scales.data());
  for (int r = 0; r < rows; ++r) {
    float maxabs = 0.0f;
    for (int p = 0; p < k; ++p)
      maxabs = std::max(maxabs, std::fabs(w[r * k + p]));
    EXPECT_NEAR(scales[r], maxabs / 127.0f, 1e-7f);
    for (int p = 0; p < k; ++p) {
      // Symmetric rounding: dequantized value within half a step.
      EXPECT_NEAR(wq[r * k + p] * scales[r], w[r * k + p],
                  0.5f * scales[r] + 1e-7f)
          << "r=" << r << " p=" << p;
      EXPECT_GE(wq[r * k + p], -127);
      EXPECT_LE(wq[r * k + p], 127);
    }
  }
}

TEST(QuantizeRows, ZeroRowGetsUnitScale) {
  const int k = 8;
  std::vector<float> w(k, 0.0f);
  std::vector<std::int8_t> wq(k, 1);
  float scale = 0.0f;
  quantize_rows_int8(w.data(), 1, k, wq.data(), &scale);
  EXPECT_EQ(scale, 1.0f);
  for (int p = 0; p < k; ++p) EXPECT_EQ(wq[p], 0);
}

class Q8GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// The int8 path must track the fp32 product within quantization error:
// weights carry a half-step per-channel error, activations a half-step
// per-(K-block, lane) error, both scaled by the K-sum. A loose bound of
// a few parts in 10^2 relative to the row/column magnitudes holds with
// plenty of margin for inputs in [-1, 1].
TEST_P(Q8GemmShapes, ConvShapeTracksFp32) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 2654435761ULL ^ n * 97 ^ k));
  const auto w = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto x = random_vec(static_cast<std::size_t>(k) * n, rng);
  const auto bias = random_vec(static_cast<std::size_t>(m), rng);

  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(w, x, expect, m, n, k);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      expect[static_cast<std::size_t>(i) * n + j] += bias[i];

  std::vector<std::int8_t> wq(w.size());
  std::vector<float> scales(m);
  quantize_rows_int8(w.data(), m, k, wq.data(), scales.data());
  std::vector<float> got(static_cast<std::size_t>(m) * n, -5.0f);
  gemm_q8_bias_relu(wq.data(), scales.data(), x.data(), bias.data(),
                    got.data(), m, n, k, /*relu=*/false);

  const float tol = 0.02f * std::sqrt(static_cast<float>(k)) + 0.02f;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], tol) << "i=" << i;
}

TEST_P(Q8GemmShapes, LinearShapeTracksFp32) {
  const auto [n, m, k] = GetParam();  // reuse shapes with roles swapped
  Rng rng(static_cast<std::uint64_t>(m ^ (n << 10) ^ (k << 3)));
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto wt = random_vec(static_cast<std::size_t>(n) * k, rng);  // [N,K]
  const auto bias = random_vec(static_cast<std::size_t>(n), rng);

  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  gemm_abt_bias_relu(a.data(), wt.data(), bias.data(), expect.data(), m, n, k,
                     /*relu=*/true);

  std::vector<std::int8_t> wq(wt.size());
  std::vector<float> scales(n);
  quantize_rows_int8(wt.data(), n, k, wq.data(), scales.data());
  std::vector<float> got(static_cast<std::size_t>(m) * n, -5.0f);
  gemm_q8_abt_bias_relu(a.data(), wq.data(), scales.data(), bias.data(),
                        got.data(), m, n, k, /*relu=*/true);

  const float tol = 0.02f * std::sqrt(static_cast<float>(k)) + 0.02f;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], tol) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Q8GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{65, 33, 17},
                      std::tuple{1, 64, 200}, std::tuple{200, 1, 64},
                      // Ragged shapes straddling the packing tiles and the
                      // K-quad (4-wide) grouping: remainders 1..3 inside a
                      // quad, multi-KC epilogues, multi-panel columns.
                      std::tuple{4, 16, 256}, std::tuple{5, 17, 257},
                      std::tuple{67, 31, 300}, std::tuple{70, 47, 513},
                      std::tuple{63, 15, 255}, std::tuple{6, 18, 258},
                      std::tuple{7, 19, 259}));

// A bit-exact reference for the whole quantized pipeline: quantize
// activations with the same per-(K-block, lane) asymmetric rule the pack
// step uses, accumulate in int32, dequantize per block. The packed kernel
// must match this reference exactly (not just within tolerance) — that is
// the property that makes the SIMD and scalar kernels agree.
void reference_q8_conv(const std::vector<std::int8_t>& wq,
                       const std::vector<float>& ws,
                       const std::vector<float>& x,
                       const std::vector<float>& bias, std::vector<float>& c,
                       int m, int n, int k, bool relu) {
  constexpr int kKC = 256;  // must mirror the driver's K blocking
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) c[static_cast<std::size_t>(i) * n + j] = 0.0f;
  for (int kc0 = 0; kc0 < k; kc0 += kKC) {
    const int kc = std::min(kKC, k - kc0);
    for (int j = 0; j < n; ++j) {
      float lo = 0.0f, hi = 0.0f;
      for (int p = 0; p < kc; ++p) {
        const float v = x[static_cast<std::size_t>(kc0 + p) * n + j];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      const float range = hi - lo;
      const float scale = range / 255.0f;
      const float inv = range > 0.0f ? 255.0f / range : 0.0f;
      for (int i = 0; i < m; ++i) {
        std::int32_t acc = 0;
        std::int32_t wsum = 0;
        for (int p = 0; p < kc; ++p) {
          const float v = x[static_cast<std::size_t>(kc0 + p) * n + j];
          const int q = static_cast<int>((v - lo) * inv + 0.5f);
          const int wv = wq[static_cast<std::size_t>(i) * k + kc0 + p];
          acc += wv * q;
          wsum += wv;
        }
        // Same association as the packed epilogue: (ws*scale)*acc +
        // (ws*wsum)*lo — float multiplies are not associative, so the
        // grouping matters for bit-exactness.
        c[static_cast<std::size_t>(i) * n + j] +=
            ws[i] * scale * static_cast<float>(acc) +
            ws[i] * static_cast<float>(wsum) * lo;
      }
    }
  }
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float& v = c[static_cast<std::size_t>(i) * n + j];
      v += bias[i];
      if (relu) v = std::max(v, 0.0f);
    }
}

TEST(Q8Gemm, MatchesBitExactReference) {
  // The k = 513 rows add the pack-once inputs: M across the kMR/kMC tiles,
  // several kKC blocks, ragged N. Each shape also runs on weights packed
  // once (pack_weights_q8), with and without ReLU, and the linear role
  // against its per-call form.
  for (const auto [m, n, k] :
       {std::tuple{5, 19, 30}, std::tuple{33, 40, 300},
        std::tuple{64, 80, 513}, std::tuple{1, 47, 513},
        std::tuple{2, 47, 513}, std::tuple{3, 47, 513},
        std::tuple{4, 47, 513}, std::tuple{5, 1100, 513},
        std::tuple{67, 47, 513}}) {
    Rng rng(static_cast<std::uint64_t>(m * 31 + n * 7 + k));
    const auto w = random_vec(static_cast<std::size_t>(m) * k, rng);
    const auto x = random_vec(static_cast<std::size_t>(k) * n, rng);
    const auto bias = random_vec(static_cast<std::size_t>(m), rng);
    std::vector<std::int8_t> wq(w.size());
    std::vector<float> ws(m);
    quantize_rows_int8(w.data(), m, k, wq.data(), ws.data());
    PackedWeightsQ8 packed;
    pack_weights_q8(wq.data(), ws.data(), m, k, WeightRole::kA, packed);

    // Linear role: activation rows x [n, k] weight rows.
    const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
    const auto wt = random_vec(static_cast<std::size_t>(n) * k, rng);
    const auto cbias = random_vec(static_cast<std::size_t>(n), rng);
    std::vector<std::int8_t> wtq(wt.size());
    std::vector<float> wts(n);
    quantize_rows_int8(wt.data(), n, k, wtq.data(), wts.data());
    PackedWeightsQ8 packed_t;
    pack_weights_q8(wtq.data(), wts.data(), n, k, WeightRole::kBt, packed_t);

    const std::size_t bytes = static_cast<std::size_t>(m) * n * sizeof(float);
    std::vector<float> expect(static_cast<std::size_t>(m) * n);
    std::vector<float> got(expect.size());
    for (const bool relu : {true, false}) {
      reference_q8_conv(wq, ws, x, bias, expect, m, n, k, relu);
      std::fill(got.begin(), got.end(), -3.0f);
      gemm_q8_bias_relu(wq.data(), ws.data(), x.data(), bias.data(),
                        got.data(), m, n, k, relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), bytes), 0)
          << "m=" << m << " n=" << n << " k=" << k;
      std::fill(got.begin(), got.end(), -3.0f);
      gemm_q8_packed_bias_relu(packed, x.data(), bias.data(), got.data(), n,
                               relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), bytes), 0)
          << "packed m=" << m << " n=" << n << " k=" << k
          << " relu=" << relu;

      gemm_q8_abt_bias_relu(a.data(), wtq.data(), wts.data(), cbias.data(),
                            expect.data(), m, n, k, relu);
      std::fill(got.begin(), got.end(), -3.0f);
      gemm_q8_abt_packed_bias_relu(a.data(), packed_t, cbias.data(),
                                   got.data(), m, relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), bytes), 0)
          << "packed linear m=" << m << " n=" << n << " k=" << k
          << " relu=" << relu;
    }
  }
}

TEST(Q8Gemm, DegenerateShapes) {
  // k == 0 is a pure bias epilogue; zero activations quantize to scale 0.
  std::vector<std::int8_t> wq;
  std::vector<float> ws = {0.5f, 0.25f};
  std::vector<float> bias = {1.0f, -2.0f};
  std::vector<float> c(6, 9.0f);
  gemm_q8_bias_relu(wq.data(), ws.data(), nullptr, bias.data(), c.data(), 2,
                    3, 0, /*relu=*/true);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(c[j], 1.0f);
    EXPECT_EQ(c[3 + j], 0.0f);  // relu clamps the -2 bias
  }

  const int m = 3, n = 5, k = 40;
  std::vector<float> w(static_cast<std::size_t>(m) * k, 0.7f);
  std::vector<float> zeros(static_cast<std::size_t>(k) * n, 0.0f);
  std::vector<std::int8_t> wq2(w.size());
  std::vector<float> ws2(m);
  quantize_rows_int8(w.data(), m, k, wq2.data(), ws2.data());
  std::vector<float> out(static_cast<std::size_t>(m) * n, 4.0f);
  gemm_q8_bias_relu(wq2.data(), ws2.data(), zeros.data(), nullptr, out.data(),
                    m, n, k, false);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizedConv2d, ImplicitGemmMatchesPerSampleIm2colBitwise) {
  // The int8 conv quantizes panels gathered straight from x; it must equal
  // per-sample im2col + gemm_q8_bias_relu on the same int8 weights bit for
  // bit (activation scales are per K block and column, so the lowering
  // cannot change them). Same shape matrix as the fp32 test in test_nn:
  // straddling panels, N > 1024 and K = 576 (three K blocks).
  constexpr int kCin = 64, kCout = 13;
  ConvWorkspace ws;
  for (const int ksize : {1, 3}) {
    Rng rng(static_cast<std::uint64_t>(50 + ksize));
    Conv2d src("c", kCin, kCout, ksize);
    src.init(rng);
    src.params()[1]->mutable_value().fill_randn(rng, 0.5f);
    const QuantizedConv2d conv(src);
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
            gemm_q8_bias_relu(conv.wq().data(), conv.wscale().data(),
                              col.data(), conv.bias().data(),
                              expect.data() +
                                  static_cast<std::size_t>(b) * kCout * hw,
                              kCout, hw, kk, relu);
          }
          Tensor y;
          conv.forward(x, y, ws, relu);
          ASSERT_EQ(y.numel(), expect.numel());
          EXPECT_EQ(std::memcmp(y.data(), expect.data(),
                                y.numel() * sizeof(float)),
                    0)
              << "k=" << ksize << " board=" << h << "x" << w
              << " B=" << batch << " relu=" << relu;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Net layer: conversion pass, checkpoint round-trip, evaluator flavor.

Tensor random_input(const NetConfig& cfg, int batch, Rng& rng) {
  Tensor x({batch, cfg.in_channels, cfg.height, cfg.width});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = rng.uniform_float();  // encode() planes live in [0, 1]
  }
  return x;
}

TEST(QuantizedNet, PredictTracksFp32) {
  const NetConfig cfg = NetConfig::tiny(7);
  PolicyValueNet net(cfg, 33);
  const QuantizedPolicyValueNet qnet(net);
  Rng rng(17);
  const Tensor x = random_input(cfg, 3, rng);

  Activations acts_f, acts_q;
  Tensor pf, vf, pq, vq;
  net.predict(x, acts_f, pf, vf);
  qnet.predict(x, acts_q, pq, vq);

  ASSERT_EQ(pf.numel(), pq.numel());
  ASSERT_EQ(vf.numel(), vq.numel());
  for (int b = 0; b < 3; ++b) {
    float sum = 0.0f;
    for (int a = 0; a < cfg.actions(); ++a) {
      const float d = pq.at2(b, a) - pf.at2(b, a);
      EXPECT_LT(std::abs(d), 0.05f) << "b=" << b << " a=" << a;
      sum += pq.at2(b, a);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);  // still a distribution
    EXPECT_NEAR(vq.data()[b], vf.data()[b], 0.05f);
    EXPECT_GE(vq.data()[b], -1.0f);
    EXPECT_LE(vq.data()[b], 1.0f);
  }
}

TEST(QuantizedNet, HeadsFollowTheSpec) {
  const NetConfig cfg = NetConfig::tiny(5);
  PolicyValueNet net(cfg, 7);

  const QuantizedPolicyValueNet defaults(net);
  EXPECT_TRUE(defaults.fconv_p().has_value());  // heads fp32 by default
  EXPECT_TRUE(defaults.ffc_v1().has_value());
  EXPECT_FALSE(defaults.qconv_p().has_value());

  QuantizeSpec spec;
  spec.policy_head_int8 = true;
  spec.value_head_int8 = true;
  const QuantizedPolicyValueNet full(net, spec);
  EXPECT_TRUE(full.qconv_p().has_value());
  EXPECT_TRUE(full.qfc_v1().has_value());
  EXPECT_FALSE(full.fconv_p().has_value());
  // fc_v2 is always fp32 regardless of spec.
  EXPECT_EQ(full.fc_v2().out_features(), 1);

  // Fully-quantized heads still produce a valid, fp32-tracking output.
  Rng rng(91);
  const Tensor x = random_input(cfg, 2, rng);
  Activations acts_f, acts_q;
  Tensor pf, vf, pq, vq;
  net.predict(x, acts_f, pf, vf);
  full.predict(x, acts_q, pq, vq);
  for (int b = 0; b < 2; ++b) {
    EXPECT_NEAR(vq.data()[b], vf.data()[b], 0.1f);
  }
}

TEST(QuantizedNet, CheckpointRoundTripIsBitExact) {
  const NetConfig cfg = NetConfig::tiny(6);
  PolicyValueNet net(cfg, 55);
  // Both head representations; with the default spec every head layer is
  // an fp32 fallback the loader writes into a freshly built layer.
  for (const bool policy_int8 : {true, false}) {
    QuantizeSpec spec;
    spec.policy_head_int8 = policy_int8;
    const QuantizedPolicyValueNet qnet(net, spec);

    std::stringstream stream;
    save_quantized_net(qnet, stream);
    const QuantizedPolicyValueNet loaded = load_quantized_net(stream);

    EXPECT_EQ(loaded.config(), cfg);
    EXPECT_EQ(loaded.spec(), spec);
    // Per-channel scales and int8 payloads survive exactly.
    EXPECT_EQ(loaded.conv1().wq(), qnet.conv1().wq());
    EXPECT_EQ(loaded.conv1().wscale(), qnet.conv1().wscale());
    EXPECT_EQ(loaded.conv3().wscale(), qnet.conv3().wscale());
    ASSERT_EQ(loaded.qfc_p().has_value(), policy_int8);
    if (policy_int8) {
      EXPECT_EQ(loaded.qfc_p()->wscale(), qnet.qfc_p()->wscale());
    }

    // Same weights + deterministic kernels => bitwise-identical predictions.
    Rng rng(23);
    const Tensor x = random_input(cfg, 4, rng);
    Activations acts_a, acts_b;
    Tensor pa, va, pb, vb;
    qnet.predict(x, acts_a, pa, va);
    loaded.predict(x, acts_b, pb, vb);
    ASSERT_EQ(pa.numel(), pb.numel());
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.numel() * sizeof(float)),
              0)
        << "policy_int8=" << policy_int8;
    ASSERT_EQ(std::memcmp(va.data(), vb.data(), va.numel() * sizeof(float)),
              0)
        << "policy_int8=" << policy_int8;
  }
}

TEST(QuantizedNet, NetEvaluatorServesInt8) {
  const NetConfig cfg = NetConfig::tiny(5);
  PolicyValueNet net(cfg, 3);
  const QuantizedPolicyValueNet qnet(net);

  NetEvaluator fp32_eval(net);
  NetEvaluator int8_eval(qnet);
  EXPECT_EQ(fp32_eval.precision(), Precision::kFp32);
  EXPECT_EQ(int8_eval.precision(), Precision::kInt8);
  EXPECT_EQ(int8_eval.action_count(), fp32_eval.action_count());
  EXPECT_EQ(int8_eval.input_size(), fp32_eval.input_size());

  Rng rng(41);
  const int batch = 4;
  const Tensor x = random_input(cfg, batch, rng);
  std::vector<EvalOutput> of(batch), oq(batch);
  fp32_eval.evaluate_batch(x.data(), batch, of.data());
  int8_eval.evaluate_batch(x.data(), batch, oq.data());
  for (int b = 0; b < batch; ++b) {
    ASSERT_EQ(oq[b].policy.size(), of[b].policy.size());
    for (std::size_t a = 0; a < of[b].policy.size(); ++a) {
      EXPECT_NEAR(oq[b].policy[a], of[b].policy[a], 0.05f);
    }
    EXPECT_NEAR(oq[b].value, of[b].value, 0.05f);
  }

  // The int8 evaluator is deterministic batch-to-batch (cache safety).
  std::vector<EvalOutput> oq2(batch);
  int8_eval.evaluate_batch(x.data(), batch, oq2.data());
  for (int b = 0; b < batch; ++b) {
    EXPECT_EQ(oq[b].policy, oq2[b].policy);
    EXPECT_EQ(oq[b].value, oq2[b].value);
  }
}

TEST(QuantizedCheckpoint, RejectsOutOfRangeConfig) {
  // The APMQ loader checks every header field before it sizes a layer from
  // it: a zero, negative or huge field aborts with the field's name.
  PolicyValueNet net(NetConfig::tiny(4), 1);
  std::stringstream saved;
  save_quantized_net(QuantizedPolicyValueNet(net), saved);
  // Config i32 fields start after the 4-byte magic and u32 version, in
  // NetConfig order: in_channels, height, width, trunk1, trunk2, ...
  const auto patched = [&](int field, std::int32_t v) {
    std::string bytes = saved.str();
    std::memcpy(bytes.data() + 8 + 4 * field, &v, sizeof v);
    return bytes;
  };
  std::stringstream zero(patched(5, 0));
  EXPECT_DEATH(load_quantized_net(zero), "trunk3 out of range");
  std::stringstream negative(patched(9, -1));
  EXPECT_DEATH(load_quantized_net(negative), "action_override out of range");
  std::stringstream huge(patched(8, 1 << 30));
  EXPECT_DEATH(load_quantized_net(huge), "value_hidden out of range");
  // Each field in range, the fc_p weight count not: 7 policy channels over
  // a 200x200 board with 40000 actions is ~1.1e10 floats.
  std::string board = patched(1, 200);
  std::memcpy(board.data() + 8 + 4 * 2, &board[8 + 4 * 1], 4);
  std::int32_t policy = 7;
  std::memcpy(board.data() + 8 + 4 * 6, &policy, sizeof policy);
  std::stringstream wide(board);
  EXPECT_DEATH(load_quantized_net(wide), "fc_p weight size overflows int");
}

}  // namespace
}  // namespace apm
