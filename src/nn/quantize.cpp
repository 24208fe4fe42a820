#include "nn/quantize.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "nn/serialize.hpp"
#include "support/check.hpp"
#include "tensor/ops.hpp"

namespace apm {
namespace {

// Same flatten-as-a-view trick as PolicyValueNet: [B, C, H, W] -> [B, C*H*W]
// is a pure shape change on row-major storage.
void flatten_view(Tensor& x) {
  const int batch = x.dim(0);
  const int features = static_cast<int>(x.numel()) / batch;
  x.reshape({batch, features});
}

std::vector<float> tensor_to_vec(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

}  // namespace

QuantizedConv2d::QuantizedConv2d(const Conv2d& src)
    : in_channels_(src.in_channels()),
      out_channels_(src.out_channels()),
      ksize_(src.ksize()),
      wq_(src.weight().value().numel()),
      wscale_(static_cast<std::size_t>(src.out_channels())),
      bias_(tensor_to_vec(src.bias().value())) {
  const int kk = in_channels_ * ksize_ * ksize_;
  quantize_rows_int8(src.weight().value().data(), out_channels_, kk,
                     wq_.data(), wscale_.data());
  pack_weights_q8(wq_.data(), wscale_.data(), out_channels_, kk,
                  WeightRole::kA, packed_);
}

QuantizedConv2d::QuantizedConv2d(int in_channels, int out_channels, int ksize,
                                 std::vector<std::int8_t> wq,
                                 std::vector<float> wscale,
                                 std::vector<float> bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      ksize_(ksize),
      wq_(std::move(wq)),
      wscale_(std::move(wscale)),
      bias_(std::move(bias)) {
  const std::size_t kk =
      static_cast<std::size_t>(in_channels) * ksize * ksize;
  APM_CHECK(wq_.size() == kk * out_channels);
  APM_CHECK(wscale_.size() == static_cast<std::size_t>(out_channels));
  APM_CHECK(bias_.size() == static_cast<std::size_t>(out_channels));
  pack_weights_q8(wq_.data(), wscale_.data(), out_channels,
                  static_cast<int>(kk), WeightRole::kA, packed_);
}

void QuantizedConv2d::forward(const Tensor& x, Tensor& y, ConvWorkspace& ws,
                              bool fuse_relu) const {
  const ConvInput in = conv_input(x, y, ws, in_channels_, out_channels_,
                                  ksize_);
  conv_q8_packed_bias_relu(packed_, in, bias_.data(), y.data(), fuse_relu);
}

QuantizedLinear::QuantizedLinear(const Linear& src)
    : in_(src.in_features()),
      out_(src.out_features()),
      wq_(src.weight().value().numel()),
      wscale_(static_cast<std::size_t>(src.out_features())),
      bias_(tensor_to_vec(src.bias().value())) {
  quantize_rows_int8(src.weight().value().data(), out_, in_, wq_.data(),
                     wscale_.data());
  pack_weights_q8(wq_.data(), wscale_.data(), out_, in_, WeightRole::kBt,
                  packed_);
}

QuantizedLinear::QuantizedLinear(int in_features, int out_features,
                                 std::vector<std::int8_t> wq,
                                 std::vector<float> wscale,
                                 std::vector<float> bias)
    : in_(in_features),
      out_(out_features),
      wq_(std::move(wq)),
      wscale_(std::move(wscale)),
      bias_(std::move(bias)) {
  APM_CHECK(wq_.size() ==
            static_cast<std::size_t>(in_features) * out_features);
  APM_CHECK(wscale_.size() == static_cast<std::size_t>(out_features));
  APM_CHECK(bias_.size() == static_cast<std::size_t>(out_features));
  pack_weights_q8(wq_.data(), wscale_.data(), out_features, in_features,
                  WeightRole::kBt, packed_);
}

void QuantizedLinear::forward(const Tensor& x, Tensor& y,
                              bool fuse_relu) const {
  APM_CHECK(x.rank() == 2 && x.dim(1) == in_);
  const int batch = x.dim(0);
  y.resize({batch, out_});
  gemm_q8_abt_packed_bias_relu(x.data(), packed_, bias_.data(), y.data(),
                               batch, fuse_relu);
}

QuantizedPolicyValueNet::QuantizedPolicyValueNet(const PolicyValueNet& net,
                                                 const QuantizeSpec& spec)
    : cfg_(net.config()),
      spec_(spec),
      conv1_(net.conv1()),
      conv2_(net.conv2()),
      conv3_(net.conv3()) {
  if (spec.policy_head_int8) {
    qconv_p_.emplace(net.conv_p());
    qfc_p_.emplace(net.fc_p());
  } else {
    fconv_p_.emplace(net.conv_p());
    ffc_p_.emplace(net.fc_p());
  }
  if (spec.value_head_int8) {
    qconv_v_.emplace(net.conv_v());
    qfc_v1_.emplace(net.fc_v1());
  } else {
    fconv_v_.emplace(net.conv_v());
    ffc_v1_.emplace(net.fc_v1());
  }
  fc_v2_.emplace(net.fc_v2());
}

QuantizedPolicyValueNet::QuantizedPolicyValueNet(const NetConfig& cfg,
                                                 const QuantizeSpec& spec,
                                                 QuantizedConv2d c1,
                                                 QuantizedConv2d c2,
                                                 QuantizedConv2d c3)
    : cfg_(cfg),
      spec_(spec),
      conv1_(std::move(c1)),
      conv2_(std::move(c2)),
      conv3_(std::move(c3)) {}

void QuantizedPolicyValueNet::predict(const Tensor& x, Activations& a,
                                      Tensor& policy, Tensor& value) const {
  APM_CHECK(x.rank() == 4 && x.dim(1) == cfg_.in_channels &&
            x.dim(2) == cfg_.height && x.dim(3) == cfg_.width);
  const int batch = x.dim(0);

  // Same fused-ReLU inference sequence as PolicyValueNet::forward
  // (train=false); each layer dispatches to its own precision.
  conv1_.forward(x, a.t1r, a.conv_ws, /*fuse_relu=*/true);
  conv2_.forward(a.t1r, a.t2r, a.conv_ws, true);
  conv3_.forward(a.t2r, a.t3r, a.conv_ws, true);

  if (qconv_p_) {
    qconv_p_->forward(a.t3r, a.p0r, a.conv_ws, true);
  } else {
    fconv_p_->forward(a.t3r, a.p0r, a.conv_ws, nullptr, true);
  }
  flatten_view(a.p0r);
  if (qfc_p_) {
    qfc_p_->forward(a.p0r, a.p_logits, false);
  } else {
    ffc_p_->forward(a.p0r, a.p_logits);
  }

  if (qconv_v_) {
    qconv_v_->forward(a.t3r, a.v0r, a.conv_ws, true);
  } else {
    fconv_v_->forward(a.t3r, a.v0r, a.conv_ws, nullptr, true);
  }
  flatten_view(a.v0r);
  if (qfc_v1_) {
    qfc_v1_->forward(a.v0r, a.v1r, /*fuse_relu=*/true);
  } else {
    ffc_v1_->forward(a.v0r, a.v1r, /*fuse_relu=*/true);
  }
  fc_v2_->forward(a.v1r, a.v2);
  a.value.resize({batch});
  tanh_forward(a.v2.data(), a.value.data(), a.value.numel());

  policy.resize({batch, cfg_.actions()});
  softmax_rows(a.p_logits.data(), policy.data(), batch, cfg_.actions());
  value.resize({batch});
  std::memcpy(value.data(), a.value.data(), batch * sizeof(float));
}

// --- quantized checkpoint (magic "APMQ") ------------------------------------

namespace {

constexpr char kQMagic[4] = {'A', 'P', 'M', 'Q'};
constexpr std::uint32_t kQVersion = 1;

template <typename T>
void write_array(std::ostream& out, const T* data, std::size_t n) {
  write_pod<std::uint64_t>(out, n);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
std::vector<T> read_array(std::istream& in, std::size_t expect) {
  const auto n = read_pod<std::uint64_t>(in);
  APM_CHECK_MSG(n == expect, "quantized checkpoint size mismatch");
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  APM_CHECK_MSG(in.good(), "truncated quantized checkpoint");
  return v;
}

// A QuantizedConv2d or QuantizedLinear: wq, wscale, bias.
template <typename QLayer>
void write_qlayer(std::ostream& out, const QLayer& l) {
  write_array(out, l.wq().data(), l.wq().size());
  write_array(out, l.wscale().data(), l.wscale().size());
  write_array(out, l.bias().data(), l.bias().size());
}

void write_fp32(std::ostream& out, const Param& w, const Param& b) {
  write_array(out, w.value().data(), w.value().numel());
  write_array(out, b.value().data(), b.value().numel());
}

QuantizedConv2d read_qconv(std::istream& in, int in_ch, int out_ch,
                           int ksize) {
  const std::size_t kk = static_cast<std::size_t>(in_ch) * ksize * ksize;
  auto wq = read_array<std::int8_t>(in, kk * out_ch);
  auto ws = read_array<float>(in, static_cast<std::size_t>(out_ch));
  auto bias = read_array<float>(in, static_cast<std::size_t>(out_ch));
  return QuantizedConv2d(in_ch, out_ch, ksize, std::move(wq), std::move(ws),
                         std::move(bias));
}

QuantizedLinear read_qlin(std::istream& in, int in_f, int out_f) {
  auto wq =
      read_array<std::int8_t>(in, static_cast<std::size_t>(in_f) * out_f);
  auto ws = read_array<float>(in, static_cast<std::size_t>(out_f));
  auto bias = read_array<float>(in, static_cast<std::size_t>(out_f));
  return QuantizedLinear(in_f, out_f, std::move(wq), std::move(ws),
                         std::move(bias));
}

// An fp32 Conv2d or Linear built from its constructor arguments, its
// weight then bias read as write_fp32 wrote them.
template <typename Layer, typename... Shape>
Layer read_fp32(std::istream& in, const char* name, Shape... shape) {
  Layer layer(name, shape...);
  for (Param* p : layer.params()) {
    const auto v = read_array<float>(in, p->numel());
    std::memcpy(p->mutable_value().data(), v.data(), v.size() * sizeof(float));
  }
  return layer;
}

}  // namespace

void save_quantized_net(const QuantizedPolicyValueNet& net,
                        std::ostream& out) {
  out.write(kQMagic, sizeof kQMagic);
  write_pod(out, kQVersion);
  write_net_config(out, net.config());
  const QuantizeSpec& spec = net.spec();
  write_pod<std::uint8_t>(out, spec.policy_head_int8 ? 1 : 0);
  write_pod<std::uint8_t>(out, spec.value_head_int8 ? 1 : 0);

  write_qlayer(out, net.conv1());
  write_qlayer(out, net.conv2());
  write_qlayer(out, net.conv3());
  // Heads follow in fixed order: policy (conv, fc), value (conv, fc1), then
  // the always-fp32 fc_v2. Layer precision is implied by the spec bytes.
  if (spec.policy_head_int8) {
    write_qlayer(out, *net.qconv_p());
    write_qlayer(out, *net.qfc_p());
  } else {
    write_fp32(out, net.fconv_p()->weight(), net.fconv_p()->bias());
    write_fp32(out, net.ffc_p()->weight(), net.ffc_p()->bias());
  }
  if (spec.value_head_int8) {
    write_qlayer(out, *net.qconv_v());
    write_qlayer(out, *net.qfc_v1());
  } else {
    write_fp32(out, net.fconv_v()->weight(), net.fconv_v()->bias());
    write_fp32(out, net.ffc_v1()->weight(), net.ffc_v1()->bias());
  }
  write_fp32(out, net.fc_v2().weight(), net.fc_v2().bias());
  APM_CHECK_MSG(out.good(), "quantized checkpoint write failed");
}

QuantizedPolicyValueNet load_quantized_net(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof magic);
  APM_CHECK_MSG(in.good() && std::memcmp(magic, kQMagic, 4) == 0,
                "bad quantized checkpoint magic");
  const auto version = read_pod<std::uint32_t>(in);
  APM_CHECK_MSG(version == kQVersion,
                "unsupported quantized checkpoint version");
  const NetConfig cfg = read_net_config(in);
  QuantizeSpec spec;
  spec.policy_head_int8 = read_pod<std::uint8_t>(in) != 0;
  spec.value_head_int8 = read_pod<std::uint8_t>(in) != 0;

  auto c1 = read_qconv(in, cfg.in_channels, cfg.trunk1, 3);
  auto c2 = read_qconv(in, cfg.trunk1, cfg.trunk2, 3);
  auto c3 = read_qconv(in, cfg.trunk2, cfg.trunk3, 3);
  QuantizedPolicyValueNet net(cfg, spec, std::move(c1), std::move(c2),
                              std::move(c3));

  const int hw = cfg.height * cfg.width;
  if (spec.policy_head_int8) {
    net.qconv_p_ = read_qconv(in, cfg.trunk3, cfg.policy_channels, 1);
    net.qfc_p_ = read_qlin(in, cfg.policy_channels * hw, cfg.actions());
  } else {
    net.fconv_p_ =
        read_fp32<Conv2d>(in, "conv_p", cfg.trunk3, cfg.policy_channels, 1);
    net.ffc_p_ = read_fp32<Linear>(in, "fc_p", cfg.policy_channels * hw,
                                   cfg.actions());
  }
  if (spec.value_head_int8) {
    net.qconv_v_ = read_qconv(in, cfg.trunk3, cfg.value_channels, 1);
    net.qfc_v1_ = read_qlin(in, cfg.value_channels * hw, cfg.value_hidden);
  } else {
    net.fconv_v_ =
        read_fp32<Conv2d>(in, "conv_v", cfg.trunk3, cfg.value_channels, 1);
    net.ffc_v1_ = read_fp32<Linear>(in, "fc_v1", cfg.value_channels * hw,
                                    cfg.value_hidden);
  }
  net.fc_v2_ = read_fp32<Linear>(in, "fc_v2", cfg.value_hidden, 1);
  return net;
}

}  // namespace apm
