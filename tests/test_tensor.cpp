// Tensor-kernel tests: GEMM family vs naive references (parameterized over
// shapes), im2col/col2im adjointness, activations, softmax.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace apm {
namespace {

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

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = 2.0f * rng.uniform_float() - 1.0f;
  return v;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmShapes, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 73856093u ^
          static_cast<std::uint64_t>(n) * 19349663u ^
          static_cast<std::uint64_t>(k));
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(a, b, expect, m, n, k);

  std::vector<float> got(static_cast<std::size_t>(m) * n, -1.0f);
  gemm(a.data(), b.data(), got.data(), m, n, k, /*accumulate=*/false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f) << "i=" << i;
}

TEST_P(GemmShapes, TransposedVariantsMatch) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 83492791u ^
          static_cast<std::uint64_t>(n) ^
          static_cast<std::uint64_t>(k) * 2654435761ULL);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(a, b, expect, m, n, k);

  // gemm_atb: pass A laid out as [K, M] (transposed).
  std::vector<float> a_t(static_cast<std::size_t>(k) * m);
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk) a_t[kk * m + i] = a[i * k + kk];
  std::vector<float> got(static_cast<std::size_t>(m) * n, 0.0f);
  gemm_atb(a_t.data(), b.data(), got.data(), m, n, k, false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f);

  // gemm_abt: pass B laid out as [N, K] (transposed).
  std::vector<float> b_t(static_cast<std::size_t>(n) * k);
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j) b_t[j * k + kk] = b[kk * n + j];
  std::fill(got.begin(), got.end(), 0.0f);
  gemm_abt(a.data(), b_t.data(), got.data(), m, n, k, false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{65, 33, 17},
                      std::tuple{128, 70, 129}, std::tuple{1, 64, 200},
                      std::tuple{200, 1, 64},
                      // Ragged shapes straddling the packing tiles
                      // (MR=4 or 8 by ISA, NR=16, MC=64, KC=256):
                      // row/column/depth remainders and the multi-KC
                      // epilogue ordering.
                      std::tuple{4, 16, 256}, std::tuple{5, 17, 257},
                      std::tuple{8, 16, 256}, std::tuple{9, 17, 257},
                      std::tuple{15, 225, 576},
                      std::tuple{67, 31, 300}, std::tuple{70, 47, 513},
                      std::tuple{129, 18, 64}, std::tuple{63, 15, 255}));

TEST(Gemm, FusedBiasReluMatchesSeparatePasses) {
  for (const auto [m, n, k] :
       {std::tuple{7, 30, 19}, std::tuple{65, 17, 260}}) {
    Rng rng(static_cast<std::uint64_t>(m + n + k));
    const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
    const auto bias = random_vec(static_cast<std::size_t>(m), rng);

    std::vector<float> expect(static_cast<std::size_t>(m) * n);
    naive_gemm(a, b, expect, m, n, k);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) {
        float& v = expect[static_cast<std::size_t>(i) * n + j];
        v = std::max(v + bias[i], 0.0f);
      }

    std::vector<float> got(static_cast<std::size_t>(m) * n, -7.0f);
    gemm_bias_relu(a.data(), b.data(), bias.data(), got.data(), m, n, k,
                   /*relu=*/true);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], expect[i], 1e-3f) << "i=" << i;

    // relu=false keeps negative outputs.
    std::vector<float> no_relu(static_cast<std::size_t>(m) * n);
    gemm_bias_relu(a.data(), b.data(), bias.data(), no_relu.data(), m, n, k,
                   /*relu=*/false);
    bool saw_negative = false;
    for (float v : no_relu) saw_negative = saw_negative || v < 0.0f;
    EXPECT_TRUE(saw_negative);
  }
}

TEST(Gemm, FusedAbtBiasReluMatchesSeparatePasses) {
  const int m = 9, n = 21, k = 130;
  Rng rng(31);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const auto bias = random_vec(static_cast<std::size_t>(n), rng);

  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(a, b, expect, m, n, k);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float& v = expect[static_cast<std::size_t>(i) * n + j];
      v = std::max(v + bias[j], 0.0f);
    }

  // gemm_abt consumes B as [N, K].
  std::vector<float> b_t(static_cast<std::size_t>(n) * k);
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j) b_t[j * k + kk] = b[kk * n + j];
  std::vector<float> got(static_cast<std::size_t>(m) * n);
  gemm_abt_bias_relu(a.data(), b_t.data(), bias.data(), got.data(), m, n, k,
                     /*relu=*/true);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f) << "i=" << i;
}

TEST(Gemm, PackedWeightsBitwiseEqualPerCallPack) {
  // Weights packed once must give bit for bit what the per-call pack gives,
  // for both roles (conv A panels, linear B panels), across the kMR/kMC
  // row tiles, several kKC blocks (k = 513), ragged N and both epilogues.
  // And because row i of C depends only on row i of
  // the row-side operand, each row computed alone (a one-row tail tile)
  // must equal the same row computed inside a full kMR x 16 tile. M hits
  // every tail row count of both tile heights (kMR = 4 and 8); N hits
  // every count of B panels left over after the multi-panel tail calls.
  const int k = 513;
  for (const int n : {16, 31, 33, 47, 225, 1100}) {
    for (const int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 67}) {
      Rng rng(static_cast<std::uint64_t>(m * 7919 + n));
      const auto act = random_vec(static_cast<std::size_t>(m) * k, rng);
      const auto w_lin = random_vec(static_cast<std::size_t>(n) * k, rng);
      const auto b_lin = random_vec(static_cast<std::size_t>(n), rng);
      const auto w_conv = random_vec(static_cast<std::size_t>(m) * k, rng);
      const auto col = random_vec(static_cast<std::size_t>(k) * n, rng);
      const auto b_conv = random_vec(static_cast<std::size_t>(m), rng);
      PackedWeights lin, conv;
      pack_weights(w_lin.data(), n, k, WeightRole::kBt, lin);
      pack_weights(w_conv.data(), m, k, WeightRole::kA, conv);

      const std::size_t out = static_cast<std::size_t>(m) * n;
      std::vector<float> expect(out), got(out), row(n);
      for (const bool relu : {false, true}) {
        gemm_abt_bias_relu(act.data(), w_lin.data(), b_lin.data(),
                           expect.data(), m, n, k, relu);
        std::fill(got.begin(), got.end(), -7.0f);
        gemm_abt_packed_bias_relu(act.data(), lin, b_lin.data(), got.data(),
                                  m, relu);
        ASSERT_EQ(std::memcmp(got.data(), expect.data(), out * 4), 0)
            << "linear m=" << m << " n=" << n << " relu=" << relu;
        for (int i = 0; i < m; ++i) {
          gemm_abt_packed_bias_relu(act.data() + i * k, lin,
                                    b_lin.data(), row.data(), 1, relu);
          ASSERT_EQ(std::memcmp(row.data(), expect.data() + i * n, n * 4), 0)
              << "linear row " << i << " of m=" << m << " n=" << n;
        }

        gemm_bias_relu(w_conv.data(), col.data(), b_conv.data(),
                       expect.data(), m, n, k, relu);
        std::fill(got.begin(), got.end(), -7.0f);
        gemm_packed_bias_relu(conv, col.data(), b_conv.data(), got.data(), n,
                              relu);
        ASSERT_EQ(std::memcmp(got.data(), expect.data(), out * 4), 0)
            << "conv m=" << m << " n=" << n << " relu=" << relu;
        PackedWeights one;
        for (int i = 0; i < m; ++i) {
          pack_weights(w_conv.data() + i * k, 1, k, WeightRole::kA, one);
          gemm_packed_bias_relu(one, col.data(), b_conv.data() + i,
                                row.data(), n, relu);
          ASSERT_EQ(std::memcmp(row.data(), expect.data() + i * n, n * 4), 0)
              << "conv row " << i << " of m=" << m << " n=" << n;
        }
      }
    }
  }
}

// The documented accumulation chain of one C element, spelled out in
// scalar code: each 256-deep K block is a sequential multiply-add chain
// from zero (one fused multiply-add per step where the target has FMA, as
// the kernel's contracted c += a * b is), the blocks are added to C in
// order, and the bias and ReLU come last.
float sequential_chain(const float* a, std::size_t a_step, const float* b,
                       std::size_t b_step, int k, float bias, bool relu) {
  constexpr int kBlock = 256;
  float c = 0.0f;
  for (int k0 = 0; k0 < k; k0 += kBlock) {
    float acc = 0.0f;
    for (int p = k0; p < std::min(k, k0 + kBlock); ++p) {
#if defined(__FMA__)
      acc = std::fma(a[p * a_step], b[p * b_step], acc);
#else
      acc = acc + a[p * a_step] * b[p * b_step];
#endif
    }
    c = k0 == 0 ? acc : c + acc;
  }
  c += bias;
  return relu ? std::max(c, 0.0f) : c;
}

TEST(Gemm, MatchesSequentialFmaChain) {
  // Every equivalence test above compares one driver path with another, so
  // a kernel that split or reordered the K loop would pass them all and
  // still change every game. This pins the chain itself, bitwise, on the
  // per-call and pack-once forward GEMMs: full tiles, tail tiles, leftover
  // B panels and several K blocks.
  for (const auto& [m, n, k] :
       {std::tuple{1, 33, 513}, std::tuple{8, 16, 256},
        std::tuple{9, 47, 300}, std::tuple{67, 225, 600}}) {
    Rng rng(static_cast<std::uint64_t>(m * 1009 + n * 31 + k));
    const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<std::size_t>(n) * k, rng);
    const auto row_bias = random_vec(static_cast<std::size_t>(m), rng);
    const auto col_bias = random_vec(static_cast<std::size_t>(n), rng);
    PackedWeights conv, lin;
    pack_weights(a.data(), m, k, WeightRole::kA, conv);
    pack_weights(b.data(), n, k, WeightRole::kBt, lin);
    const std::size_t out = static_cast<std::size_t>(m) * n;
    std::vector<float> got(out), expect(out);
    for (const bool relu : {false, true}) {
      // Conv shape: C = A[M,K] * B[K,N] + bias[i], with b read as [K, N].
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j)
          expect[static_cast<std::size_t>(i) * n + j] = sequential_chain(
              a.data() + static_cast<std::size_t>(i) * k, 1, b.data() + j,
              static_cast<std::size_t>(n), k, row_bias[i], relu);
      gemm_bias_relu(a.data(), b.data(), row_bias.data(), got.data(), m, n, k,
                     relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), out * 4), 0)
          << "gemm_bias_relu m=" << m << " n=" << n << " k=" << k;
      gemm_packed_bias_relu(conv, b.data(), row_bias.data(),
                            got.data(), n, relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), out * 4), 0)
          << "gemm_packed_bias_relu m=" << m << " n=" << n << " k=" << k;

      // Linear shape: C = A[M,K] * B[N,K]^T + bias[j].
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j)
          expect[static_cast<std::size_t>(i) * n + j] = sequential_chain(
              a.data() + static_cast<std::size_t>(i) * k, 1,
              b.data() + static_cast<std::size_t>(j) * k, 1, k, col_bias[j],
              relu);
      gemm_abt_bias_relu(a.data(), b.data(), col_bias.data(), got.data(), m,
                         n, k, relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), out * 4), 0)
          << "gemm_abt_bias_relu m=" << m << " n=" << n << " k=" << k;
      gemm_abt_packed_bias_relu(a.data(), lin, col_bias.data(),
                                got.data(), m, relu);
      ASSERT_EQ(std::memcmp(got.data(), expect.data(), out * 4), 0)
          << "gemm_abt_packed_bias_relu m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(Tensor, ReshapeIsAView) {
  Tensor t({2, 3, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  const float* before = t.data();
  t.reshape({6, 4});
  EXPECT_EQ(t.data(), before);  // no reallocation, no copy
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_FLOAT_EQ(t.at2(5, 3), 23.0f);
}

TEST(Gemm, AccumulateAddsOntoC) {
  const int m = 4, n = 4, k = 4;
  Rng rng(1);
  const auto a = random_vec(16, rng);
  const auto b = random_vec(16, rng);
  std::vector<float> base(16, 1.0f);
  std::vector<float> expect(16);
  naive_gemm(a, b, expect, m, n, k);
  gemm(a.data(), b.data(), base.data(), m, n, k, /*accumulate=*/true);
  for (int i = 0; i < 16; ++i) ASSERT_NEAR(base[i], expect[i] + 1.0f, 1e-4f);
}

TEST(Im2Col, AdjointOfCol2Im) {
  // <im2col(x), y> == <x, col2im(y)> characterises the adjoint pair, which
  // is exactly the property conv backward relies on.
  const int c = 3, h = 5, w = 4, ksize = 3, pad = 1;
  const std::size_t x_len = static_cast<std::size_t>(c) * h * w;
  const std::size_t col_len = static_cast<std::size_t>(c) * ksize * ksize * h * w;
  Rng rng(99);
  const auto x = random_vec(x_len, rng);
  const auto y = random_vec(col_len, rng);

  std::vector<float> col(col_len);
  im2col(x.data(), c, h, w, ksize, pad, col.data());
  std::vector<float> back(x_len, 0.0f);
  col2im(y.data(), c, h, w, ksize, pad, back.data());

  const float lhs = dot(col.data(), y.data(), col_len);
  const float rhs = dot(x.data(), back.data(), x_len);
  EXPECT_NEAR(lhs, rhs, 1e-2f);
}

TEST(Im2Col, IdentityKernelCopiesChannels) {
  const int c = 2, h = 3, w = 3;
  Rng rng(3);
  const auto x = random_vec(static_cast<std::size_t>(c) * h * w, rng);
  std::vector<float> col(static_cast<std::size_t>(c) * h * w);
  im2col(x.data(), c, h, w, /*ksize=*/1, /*pad=*/0, col.data());
  for (std::size_t i = 0; i < col.size(); ++i) ASSERT_EQ(col[i], x[i]);
}

TEST(Activations, ReluForwardBackward) {
  const float x[4] = {-1.0f, 0.0f, 2.0f, -3.0f};
  float y[4];
  relu_forward(x, y, 4);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  const float dy[4] = {1, 1, 1, 1};
  float dx[4];
  relu_backward(x, dy, dx, 4, false);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Activations, TanhDerivative) {
  const float x[2] = {0.5f, -1.2f};
  float y[2];
  tanh_forward(x, y, 2);
  const float dy[2] = {1.0f, 1.0f};
  float dx[2];
  tanh_backward(y, dy, dx, 2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(dx[i], 1.0f - std::tanh(x[i]) * std::tanh(x[i]), 1e-6f);
  }
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const float x[6] = {1.0f, 2.0f, 3.0f, -1.0f, 0.0f, 1.0f};
  float y[6];
  softmax_rows(x, y, 2, 3);
  for (int r = 0; r < 2; ++r) {
    float sum_row = 0;
    for (int c = 0; c < 3; ++c) sum_row += y[r * 3 + c];
    EXPECT_NEAR(sum_row, 1.0f, 1e-6f);
    EXPECT_LT(y[r * 3], y[r * 3 + 1]);
    EXPECT_LT(y[r * 3 + 1], y[r * 3 + 2]);
  }
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(8);
  auto x = random_vec(12, rng);
  std::vector<float> sm(12), lsm(12);
  softmax_rows(x.data(), sm.data(), 3, 4);
  log_softmax_rows(x.data(), lsm.data(), 3, 4);
  for (int i = 0; i < 12; ++i)
    EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-5f);
}

TEST(Softmax, StableUnderLargeInputs) {
  const float x[3] = {1000.0f, 1001.0f, 999.0f};
  float y[3];
  softmax_rows(x, y, 1, 3);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0f, 1e-6f);
}

TEST(Tensor, ResizeAndFill) {
  Tensor t({2, 3});
  t.fill(2.5f);
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t[5], 2.5f);
  t.resize({4});  // shrink: no reallocation needed
  EXPECT_EQ(t.numel(), 4u);
  EXPECT_EQ(t.shape_str(), "[4]");
}

TEST(Tensor, RandnMomentsPlausible) {
  Tensor t({10000});
  Rng rng(4);
  t.fill_randn(rng, 2.0f);
  double sum_v = 0, sum_sq = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    sum_v += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum_v / t.numel();
  const double var = sum_sq / t.numel() - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({3}), b({3});
  a.fill(1.0f);
  b.fill(1.0f);
  b[1] = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
}

}  // namespace
}  // namespace apm
