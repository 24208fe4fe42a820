#pragma once
// The paper's Gomoku policy/value network: 5 convolution layers and
// 3 fully-connected layers (§5.1), organised AlphaZero-style:
//
//   trunk : conv3x3(Cin→32) → ReLU → conv3x3(32→64) → ReLU
//           → conv3x3(64→128) → ReLU
//   policy: conv1x1(128→4) → ReLU → FC(4·H·W → A) → log-softmax
//   value : conv1x1(128→2) → ReLU → FC(2·H·W → 64) → ReLU → FC(64 → 1) → tanh
//
// (3 trunk convs + 2 head convs = 5 conv; 1 policy FC + 2 value FCs = 3 FC.)
//
// Inference (`predict`) is const and reentrant: concurrent callers each pass
// their own Activations workspace. Training (`train_step`) implements the
// AlphaZero loss of Eq. 2,  l = (v−r)² − π·log p, with L2 regularisation
// delegated to the optimizer's weight decay.

#include <memory>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/tensor.hpp"

namespace apm {

struct NetConfig {
  int in_channels = 4;
  int height = 15;
  int width = 15;
  int trunk1 = 32;
  int trunk2 = 64;
  int trunk3 = 128;
  int policy_channels = 4;
  int value_channels = 2;
  int value_hidden = 64;
  // Policy-head width when the game's action space is not the board
  // (Connect4: 7 columns over a 6×7 board). 0 = H·W, the board-game
  // default. Every consumer (policy FC, softmax widths, NetEvaluator) goes
  // through actions(), so this is the single source of the head size.
  int action_override = 0;

  int actions() const {
    return action_override > 0 ? action_override : height * width;
  }
  bool operator==(const NetConfig&) const = default;

  // A reduced configuration for unit tests / quick examples.
  static NetConfig tiny(int board, int in_ch = 4) {
    NetConfig cfg;
    cfg.in_channels = in_ch;
    cfg.height = board;
    cfg.width = board;
    cfg.trunk1 = 8;
    cfg.trunk2 = 8;
    cfg.trunk3 = 16;
    cfg.policy_channels = 2;
    cfg.value_channels = 1;
    cfg.value_hidden = 16;
    return cfg;
  }
};

// Per-call workspace: all intermediate activations plus col caches and
// every training-time temporary, so neither forward() nor train_step()
// allocates once the workspace is warm. Reused across calls; owns no
// weights. One per inference thread.
//
// Every layer's ReLU is fused into its GEMM epilogue, so only post-ReLU
// tensors exist; backward masks its gradients with them. p0r/v0r are left
// reshaped to [B, C·H·W] after forward — flattening is a view change on the
// contiguous [B, C, H, W] layout, not a copy.
struct Activations {
  Tensor t1r, t2r, t3r;                  // trunk, post ReLU
  Tensor p0r, p_logits, p_logp;          // policy head
  Tensor v0r, v1r, v2, value;            // value head
  ConvWorkspace conv_ws;                 // conv gather plans, per shape
  // caches kept only when training (forward(train=true)):
  Tensor col1, col2, col3, colp, colv;
  // backward scratch:
  Tensor dlogits, dv2, dv1r, dv1, dv0r, dv0, dt3_v;
  Tensor dp0r, dp0, dt3_p;
  Tensor dt3, dt3_pre, dt2r, dt2_pre, dt1r, dt1_pre, dx, dcol;
};

// Loss breakdown returned by train_step (all means over the batch).
struct LossParts {
  float total = 0.0f;        // value_loss + policy_loss (Eq. 2)
  float value_loss = 0.0f;   // (v − r)²
  float policy_loss = 0.0f;  // −π · log p
  float entropy = 0.0f;      // −Σ p log p of the net's own policy (monitor)
};

class PolicyValueNet {
 public:
  explicit PolicyValueNet(const NetConfig& cfg, std::uint64_t seed = 7);

  const NetConfig& config() const { return cfg_; }

  // Forward pass. x: [B, Cin, H, W].
  // After the call: acts.p_logits is [B, A] policy logits and acts.value is
  // [B] in (−1, 1). When train == true the col caches needed by backward()
  // are retained and acts.p_logp additionally holds the [B, A]
  // log-probabilities (inference skips that reduction; predict() softmaxes
  // the logits directly).
  void forward(const Tensor& x, Activations& acts, bool train = false) const;

  // Convenience inference API: fills policy (softmax probabilities, [B, A])
  // and values ([B]).
  void predict(const Tensor& x, Activations& acts, Tensor& policy,
               Tensor& value) const;

  // One SGD-ready step: forward(train), compute Eq. 2 loss against
  // (target_pi [B, A], target_z [B]), backprop into parameter gradients.
  // Does NOT update weights (optimizer's job) and does not zero gradients
  // first (caller controls accumulation).
  LossParts train_step(const Tensor& x, const Tensor& target_pi,
                       const Tensor& target_z, Activations& acts);

  std::vector<Param*> params();
  std::size_t num_parameters();
  void zero_grad();

  // Copies the weights of `other` into this net (shapes must match).
  void copy_weights_from(PolicyValueNet& other);

  // Read-only layer access for the fp32 -> int8 conversion pass
  // (nn/quantize.hpp), which snapshots weights per layer without going
  // through the flat params() list.
  const Conv2d& conv1() const { return conv1_; }
  const Conv2d& conv2() const { return conv2_; }
  const Conv2d& conv3() const { return conv3_; }
  const Conv2d& conv_p() const { return conv_p_; }
  const Conv2d& conv_v() const { return conv_v_; }
  const Linear& fc_p() const { return fc_p_; }
  const Linear& fc_v1() const { return fc_v1_; }
  const Linear& fc_v2() const { return fc_v2_; }

 private:
  NetConfig cfg_;
  Conv2d conv1_, conv2_, conv3_, conv_p_, conv_v_;
  Linear fc_p_, fc_v1_, fc_v2_;
};

}  // namespace apm
