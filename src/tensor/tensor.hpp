#pragma once
// Dense row-major float32 tensor.
//
// The NN substrate is deliberately minimal: contiguous storage, explicit
// shapes, no views/broadcasting — every op in ops.hpp states its exact
// layout contract. This keeps the inference path allocation-free once
// workspaces are sized, which matters because the evaluator batch path sits
// inside the MCTS iteration loop.

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace apm {

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<int> shape) { resize(std::move(shape)); }

  Tensor(std::initializer_list<int> shape)
      : Tensor(std::vector<int>(shape)) {}

  // Reshapes, reallocating only when the element count grows.
  void resize(std::vector<int> shape);

  // Reinterprets the same storage under a new shape with an identical
  // element count — a true view change, no copy and no reallocation.
  void reshape(std::vector<int> shape);

  // --- shape ---
  const std::vector<int>& shape() const { return shape_; }
  int dim(std::size_t i) const {
    APM_DCHECK(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return numel_; }
  std::string shape_str() const;

  // --- data access ---
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) {
    APM_DCHECK(i < numel_);
    return data_[i];
  }
  float operator[](std::size_t i) const {
    APM_DCHECK(i < numel_);
    return data_[i];
  }

  // 2-D convenience accessor: t(row, col) on a [R, C] tensor.
  float& at2(int r, int c) {
    APM_DCHECK(rank() == 2);
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }
  float at2(int r, int c) const {
    APM_DCHECK(rank() == 2);
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }

  // --- fills ---
  void fill(float value);
  void zero() { fill(0.0f); }

  // He-style normal init: N(0, stddev). Uses Box-Muller over the given rng.
  void fill_randn(Rng& rng, float stddev);

  // Uniform in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);

  // --- factories ---
  static Tensor zeros(std::vector<int> shape);
  static Tensor randn(std::vector<int> shape, Rng& rng, float stddev);

 private:
  std::vector<float> data_;
  std::vector<int> shape_;
  std::size_t numel_ = 0;
};

}  // namespace apm
