// nn / tensor layer costs by direct timed calls into the public layer API
// (Conv2d/Linear forward, QuantizedPolicyValueNet::predict, gemm kernels).
// Run on the calling thread while no workload thread is busy.
#include <functional>

#include "bench.hpp"
#include "nn/quantize.hpp"
#include "probes.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 15;

// Median wall time (µs) of `fn` over kReps calls after one warm-up call.
double time_us(const std::function<void()>& fn, int reps = kReps) {
  fn();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

struct LayerTimes {
  double conv1 = 0, conv2 = 0, conv3 = 0, policy = 0, value = 0;
};

LayerTimes time_layers(const apm::PolicyValueNet& net, int batch,
                       apm::Rng& rng) {
  const apm::NetConfig& c = net.config();
  apm::Tensor x({batch, c.in_channels, c.height, c.width});
  x.fill_uniform(rng, 0.0f, 1.0f);
  apm::Activations a;
  const int hw = c.height * c.width;
  LayerTimes t;
  t.conv1 = time_us([&] { net.conv1().forward(x, a.t1r, a.conv_ws, nullptr, true); });
  t.conv2 = time_us([&] { net.conv2().forward(a.t1r, a.t2r, a.conv_ws, nullptr, true); });
  t.conv3 = time_us([&] { net.conv3().forward(a.t2r, a.t3r, a.conv_ws, nullptr, true); });
  t.policy = time_us([&] {
    net.conv_p().forward(a.t3r, a.p0r, a.conv_ws, nullptr, true);
    a.p0r.reshape({batch, c.policy_channels * hw});
    net.fc_p().forward(a.p0r, a.p_logits, false);
  });
  t.value = time_us([&] {
    net.conv_v().forward(a.t3r, a.v0r, a.conv_ws, nullptr, true);
    a.v0r.reshape({batch, c.value_channels * hw});
    net.fc_v1().forward(a.v0r, a.v1r, true);
    net.fc_v2().forward(a.v1r, a.v2, false);
  });
  return t;
}

}  // namespace

void add_layer_metrics(Report& r, const apm::PolicyValueNet& net,
                       int traced_batch, std::uint64_t seed) {
  apm::Rng rng(seed ^ 0x5eedULL);
  const apm::NetConfig& c = net.config();
  const int hw = c.height * c.width;
  const int bmed = traced_batch < 1 ? 1 : traced_batch;
  const std::string net_desc = std::to_string(c.in_channels) + "->" +
                               std::to_string(c.trunk1) + "->" +
                               std::to_string(c.trunk2) + "->" +
                               std::to_string(c.trunk3) + " on " +
                               std::to_string(c.height) + "x" +
                               std::to_string(c.width);
  const LayerTimes b1 = time_layers(net, 1, rng);
  const LayerTimes bm = time_layers(net, bmed, rng);
  const std::string base1 = "median of " + std::to_string(kReps) +
                            " direct forward calls, batch 1, net " + net_desc;
  const std::string basem = "median of " + std::to_string(kReps) +
                            " direct forward calls, batch " +
                            std::to_string(bmed) +
                            " (traced median batch), net " + net_desc;
  r.add("nn.traced_median_batch", bmed, "positions",
        "median dispatched batch of the traced phase");
  r.add("nn.conv1_us_b1", b1.conv1, "us", base1);
  r.add("nn.conv2_us_b1", b1.conv2, "us", base1);
  r.add("nn.conv3_us_b1", b1.conv3, "us", base1);
  r.add("nn.policy_head_us_b1", b1.policy, "us", base1);
  r.add("nn.value_head_us_b1", b1.value, "us", base1);
  r.add("nn.conv1_us_bmed", bm.conv1, "us", basem);
  r.add("nn.conv2_us_bmed", bm.conv2, "us", basem);
  r.add("nn.conv3_us_bmed", bm.conv3, "us", basem);
  r.add("nn.policy_head_us_bmed", bm.policy, "us", basem);
  r.add("nn.value_head_us_bmed", bm.value, "us", basem);

  {
    const apm::QuantizedPolicyValueNet qnet(net);
    apm::Tensor x({bmed, c.in_channels, c.height, c.width});
    x.fill_uniform(rng, 0.0f, 1.0f);
    apm::Activations a;
    apm::Tensor policy, value;
    const double us = time_us([&] { qnet.predict(x, a, policy, value); });
    r.add("nn.int8.forward_us_per_position", us / bmed, "us",
          "int8 snapshot predict() at batch " + std::to_string(bmed) +
              ", per position, median of " + std::to_string(kReps));
  }

  // Single-core GEMM peak at 512^3 (the roofline's compute ceiling).
  constexpr int kN = 512;
  std::vector<float> ga(static_cast<std::size_t>(kN) * kN),
      gb(ga.size()), gc(ga.size());
  for (float& v : ga) v = rng.uniform_float() - 0.5f;
  for (float& v : gb) v = rng.uniform_float() - 0.5f;
  const double peak_us = time_us(
      [&] { apm::gemm(ga.data(), gb.data(), gc.data(), kN, kN, kN, false); },
      7);
  const double peak_gflops = 2.0 * kN * kN * kN / (peak_us * 1e3);
  r.add("tensor.gemm_peak_gflops", peak_gflops, "GFLOP/s",
        "gemm 512x512x512 on one core, median of 7");

  // conv3 as the GEMM it lowers to: [trunk3 x 9*trunk2] x [9*trunk2 x B*H*W].
  const int m = c.trunk3, k = 9 * c.trunk2, n = bmed * hw;
  std::vector<float> wa(static_cast<std::size_t>(m) * k),
      col(static_cast<std::size_t>(k) * n), out(static_cast<std::size_t>(m) * n),
      bias(static_cast<std::size_t>(m), 0.01f);
  for (float& v : wa) v = rng.uniform_float() - 0.5f;
  for (float& v : col) v = rng.uniform_float();
  const double conv_us = time_us([&] {
    apm::gemm_bias_relu(wa.data(), col.data(), bias.data(), out.data(), m, n,
                        k, true);
  });
  const double conv_gflops = 2.0 * m * n * static_cast<double>(k) /
                             (conv_us * 1e3);
  const std::string shape = std::to_string(m) + "x" + std::to_string(k) +
                            "x" + std::to_string(n);
  r.add("tensor.conv3_gemm_gflops", conv_gflops, "GFLOP/s",
        "gemm_bias_relu " + shape + " (conv3 at batch " +
            std::to_string(bmed) + "), one core");
  r.add("tensor.conv3_roofline_frac", conv_gflops / peak_gflops, "ratio",
        "conv3 GEMM rate / 512^3 single-core peak");
  r.add("tensor.conv3_bytes_computed",
        4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
               static_cast<double>(m) * n + m),
        "bytes",
        "computed from tensor sizes (weights + im2col + output + bias), "
        "not measured");
}

}  // namespace perfbench
