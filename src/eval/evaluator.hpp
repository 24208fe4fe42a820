#pragma once
// Node-evaluation interface ("neural_network_simulate" in Algorithms 2/3).
//
// MCTS hands an encoded state (C×H×W floats) to an Evaluator and receives a
// policy over the full action space plus a scalar value in [−1, 1] from the
// perspective of the player to move. Implementations must be thread-safe
// for concurrent evaluate() calls — the shared-tree scheme calls it from N
// threads at once.

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace apm {

struct EvalOutput {
  std::vector<float> policy;
  float value = 0.0f;
};

// Numeric precision an evaluator (and, in the serving plane, a whole lane)
// runs at. kInt8 is the quantized inference path (nn/quantize.hpp): int8
// weights/activations with fp32 dequantized outputs — the output contract
// (policy distribution + value in [−1, 1]) is identical, only the arithmetic
// inside the forward pass changes.
enum class Precision { kFp32, kInt8 };

inline const char* precision_name(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual int action_count() const = 0;
  virtual std::size_t input_size() const = 0;

  // Single-state evaluation; `out.policy` is resized by the callee.
  virtual void evaluate(const float* input, EvalOutput& out) = 0;

  // Batch evaluation over `n` contiguous states. Default implementation
  // loops; NetEvaluator overrides with a true batched forward pass.
  virtual void evaluate_batch(const float* inputs, int n, EvalOutput* outs);
};

// Uniform policy, zero value. The fastest possible evaluator; used by tests
// that need MCTS behaviour isolated from any network.
class UniformEvaluator final : public Evaluator {
 public:
  UniformEvaluator(int actions, std::size_t input_size)
      : actions_(actions), input_size_(input_size) {}

  int action_count() const override { return actions_; }
  std::size_t input_size() const override { return input_size_; }
  void evaluate(const float* input, EvalOutput& out) override;

 private:
  int actions_;
  std::size_t input_size_;
};

// Deterministic pseudo-random evaluator: policy and value are derived by
// hashing the input state, so identical states always evaluate identically
// (across threads and runs) without any network cost. An optional busy-wait
// emulates a configurable per-call DNN latency — this is what the
// design-time profiler (§4.2) uses to emulate "a DNN filled with random
// parameters" at a controlled cost, and what the figure benches use to
// sweep the T_DNN/T_in-tree ratio.
class SyntheticEvaluator final : public Evaluator {
 public:
  SyntheticEvaluator(int actions, std::size_t input_size,
                     double latency_us = 0.0, std::uint64_t salt = 0);

  int action_count() const override { return actions_; }
  std::size_t input_size() const override { return input_size_; }
  void evaluate(const float* input, EvalOutput& out) override;

  double latency_us() const { return latency_us_; }

 private:
  int actions_;
  std::size_t input_size_;
  double latency_us_;
  std::uint64_t salt_;
};

// Spin for approximately `us` microseconds (models compute, not sleep).
void busy_wait_us(double us);

}  // namespace apm
