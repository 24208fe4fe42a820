#pragma once
// fp32 -> int8 conversion of PolicyValueNet for inference serving.
//
// Each Conv2d/Linear weight matrix is quantized to symmetric per-output-
// channel int8 (quantize_rows_int8) and packed once, in the layer's
// constructor, into the int8 GEMM's K-quad panels with their per-block
// weight sums (pack_weights_q8); biases stay fp32 because they are added
// in the dequantized epilogue. Forward passes run on the gemm_q8
// family: activations are quantized on the fly inside the pack step, the
// micro-kernel accumulates in int32, and the dequant + bias + ReLU land in
// the fused store epilogue — so a quantized layer makes the same single
// pass over its output as the fp32 layer it replaces.
//
// QuantizeSpec selects which parts drop to int8. The trunk convolutions
// (the bulk of the FLOPs) are always quantized; the policy and value heads
// can individually stay fp32, which is the default — head outputs feed
// softmax/tanh directly, where quantization noise is most visible. The
// final value layer (fc_v2, value_hidden -> 1) always stays fp32: it is a
// dot product per sample, costs nothing, and sits right before the tanh.
//
// Training is untouched: a QuantizedPolicyValueNet is an immutable
// inference snapshot constructed FROM a trained PolicyValueNet (or loaded
// from a quantized checkpoint, magic "APMQ"); it has no gradients and no
// train path. Thread-safety matches PolicyValueNet: predict() is const and
// reentrant with per-caller Activations workspaces. The fp32 layers the
// spec keeps are copies with their own weight packs, built by the first
// predict().

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "nn/policy_value_net.hpp"

namespace apm {

// Which sub-nets run int8. Trunk convs are always int8 (that is the point
// of the conversion); heads default to fp32.
struct QuantizeSpec {
  bool policy_head_int8 = false;  // conv_p + fc_p
  bool value_head_int8 = false;   // conv_v + fc_v1 (fc_v2 is always fp32)
  bool operator==(const QuantizeSpec&) const = default;
};

// Inference-only conv with per-output-channel int8 weights. Runs the same
// implicit-GEMM gather and store as Conv2d (conv_input, one ConvPlan per
// shape), so the only difference in the pipeline is the GEMM kernel.
class QuantizedConv2d {
 public:
  explicit QuantizedConv2d(const Conv2d& src);

  // Deserialization: pre-quantized raw parts (sizes must be consistent:
  // wq [out*in*k*k], wscale [out], bias [out]).
  QuantizedConv2d(int in_channels, int out_channels, int ksize,
                  std::vector<std::int8_t> wq, std::vector<float> wscale,
                  std::vector<float> bias);

  // x: [B, Cin, H, W] -> y: [B, Cout, H, W] (ReLU'd when fuse_relu).
  void forward(const Tensor& x, Tensor& y, ConvWorkspace& ws,
               bool fuse_relu = false) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int ksize() const { return ksize_; }
  const std::vector<std::int8_t>& wq() const { return wq_; }
  const std::vector<float>& wscale() const { return wscale_; }
  const std::vector<float>& bias() const { return bias_; }

 private:
  int in_channels_;
  int out_channels_;
  int ksize_;
  std::vector<std::int8_t> wq_;  // [Cout, Cin*k*k]
  std::vector<float> wscale_;    // [Cout]
  std::vector<float> bias_;      // [Cout]
  PackedWeightsQ8 packed_;       // wq_ as 4-row K-quad A panels
};

// Inference-only fully connected layer with per-output-channel int8
// weights: y = dequant(q8(x) Wq^T) + b, optional fused ReLU.
class QuantizedLinear {
 public:
  explicit QuantizedLinear(const Linear& src);
  QuantizedLinear(int in_features, int out_features,
                  std::vector<std::int8_t> wq, std::vector<float> wscale,
                  std::vector<float> bias);

  void forward(const Tensor& x, Tensor& y, bool fuse_relu = false) const;

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  const std::vector<std::int8_t>& wq() const { return wq_; }
  const std::vector<float>& wscale() const { return wscale_; }
  const std::vector<float>& bias() const { return bias_; }

 private:
  int in_;
  int out_;
  std::vector<std::int8_t> wq_;  // [Out, In]
  std::vector<float> wscale_;    // [Out]
  std::vector<float> bias_;      // [Out]
  PackedWeightsQ8 packed_;       // wq_ as kNR-lane B panels
};

// The int8 serving snapshot of a PolicyValueNet. Layers the spec keeps in
// fp32 are stored as full Conv2d/Linear copies so the forward pass is
// self-contained (the source net may be retrained or freed).
class QuantizedPolicyValueNet {
 public:
  explicit QuantizedPolicyValueNet(const PolicyValueNet& net,
                                   const QuantizeSpec& spec = {});

  const NetConfig& config() const { return cfg_; }
  const QuantizeSpec& spec() const { return spec_; }

  // Inference: fills policy (softmax probabilities, [B, A]) and values
  // ([B]) — the predict() contract of PolicyValueNet, same Activations
  // workspace type, same fused-ReLU layer sequence.
  void predict(const Tensor& x, Activations& acts, Tensor& policy,
               Tensor& value) const;

  // Quantized trunk layers (always present) and head layers (exactly one of
  // the q*/f* pair is engaged per head, per spec). Exposed for tests and
  // serialization.
  const QuantizedConv2d& conv1() const { return conv1_; }
  const QuantizedConv2d& conv2() const { return conv2_; }
  const QuantizedConv2d& conv3() const { return conv3_; }
  const std::optional<QuantizedConv2d>& qconv_p() const { return qconv_p_; }
  const std::optional<QuantizedConv2d>& qconv_v() const { return qconv_v_; }
  const std::optional<QuantizedLinear>& qfc_p() const { return qfc_p_; }
  const std::optional<QuantizedLinear>& qfc_v1() const { return qfc_v1_; }
  const std::optional<Conv2d>& fconv_p() const { return fconv_p_; }
  const std::optional<Conv2d>& fconv_v() const { return fconv_v_; }
  const std::optional<Linear>& ffc_p() const { return ffc_p_; }
  const std::optional<Linear>& ffc_v1() const { return ffc_v1_; }
  const Linear& fc_v2() const { return *fc_v2_; }

 private:
  friend QuantizedPolicyValueNet load_quantized_net(std::istream& in);

  // Deserialization shell: config/spec set, layers filled in by the loader.
  QuantizedPolicyValueNet(const NetConfig& cfg, const QuantizeSpec& spec,
                          QuantizedConv2d c1, QuantizedConv2d c2,
                          QuantizedConv2d c3);

  NetConfig cfg_;
  QuantizeSpec spec_;
  QuantizedConv2d conv1_, conv2_, conv3_;
  std::optional<QuantizedConv2d> qconv_p_, qconv_v_;
  std::optional<Conv2d> fconv_p_, fconv_v_;
  std::optional<QuantizedLinear> qfc_p_, qfc_v1_;
  std::optional<Linear> ffc_p_, ffc_v1_;
  std::optional<Linear> fc_v2_;  // always fp32
};

// Quantized checkpoint (magic "APMQ"): config + spec + per-layer payloads
// (int8 weights with per-channel scales for quantized layers, raw fp32 for
// layers the spec kept). Self-describing — load reconstructs the net
// without the fp32 source.
void save_quantized_net(const QuantizedPolicyValueNet& net,
                        std::ostream& out);
QuantizedPolicyValueNet load_quantized_net(std::istream& in);

}  // namespace apm
