#pragma once
// Evaluator backed by a real PolicyValueNet forward pass on the CPU.
//
// Weights are shared read-only; each calling thread gets its own workspace
// (Activations + input/output tensors, keyed by thread id), so concurrent
// evaluate() calls from the shared-tree scheme are safe and the hot path is
// allocation-free once the per-thread workspaces are warm. Each forward
// pass runs entirely on the thread that calls evaluate(); the cores are
// the tree workers' and stream threads' to use.

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "eval/evaluator.hpp"
#include "nn/policy_value_net.hpp"
#include "nn/quantize.hpp"

namespace apm {

class NetEvaluator final : public Evaluator {
 public:
  // The net must outlive the evaluator. A trainer may write new weights
  // (optimizer step, copy_weights_from, load_net) only while no evaluate()
  // is in flight — between moves, never during a search; the first
  // evaluate() after the write repacks each changed layer once, and
  // concurrent callers wait for that pack.
  explicit NetEvaluator(const PolicyValueNet& net);

  // Int8 flavor: serves a quantized snapshot (nn/quantize.hpp) through the
  // identical evaluate/evaluate_batch contract — callers cannot tell the
  // precisions apart except through precision() and the latency.
  explicit NetEvaluator(const QuantizedPolicyValueNet& net);

  int action_count() const override;
  std::size_t input_size() const override;
  void evaluate(const float* input, EvalOutput& out) override;
  void evaluate_batch(const float* inputs, int n, EvalOutput* outs) override;

  Precision precision() const {
    return qnet_ != nullptr ? Precision::kInt8 : Precision::kFp32;
  }

 private:
  // Everything one calling thread needs to run predict() without touching
  // the allocator: activations, the staged input batch and the outputs.
  struct Workspace {
    Activations acts;
    Tensor x;
    Tensor policy;
    Tensor value;
  };

  Workspace& local_workspace();
  const NetConfig& net_config() const {
    return qnet_ != nullptr ? qnet_->config() : net_->config();
  }

  // Exactly one of the two is set, fixed at construction.
  const PolicyValueNet* net_ = nullptr;
  const QuantizedPolicyValueNet* qnet_ = nullptr;
  std::mutex acts_mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<Workspace>> slots_;
};

}  // namespace apm
