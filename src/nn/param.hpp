#pragma once
// A learnable parameter: value + gradient accumulator, and the lazily
// repacked GEMM form of a weight parameter (WeightPack).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace apm {

class Param {
 public:
  std::string name;
  Tensor grad;

  Param() = default;
  Param(const Param&) = default;
  // Assignment writes the value, so it goes through mutable_value().
  Param& operator=(const Param& other) {
    name = other.name;
    grad = other.grad;
    mutable_value() = other.value_;
    return *this;
  }

  void init_shape(std::string n, std::vector<int> shape) {
    name = std::move(n);
    mutable_value().resize(shape);
    grad.resize(std::move(shape));
    grad.zero();
  }

  const Tensor& value() const { return value_; }

  // The only write access to the value. Bumps version(), so a layer holding
  // a packed copy of these weights repacks on its next forward. Fetch it
  // afresh for each batch of writes: a reference kept across a forward
  // would write behind the layer's back. Writes must not overlap a forward
  // of the owning layer.
  Tensor& mutable_value() {
    ++version_;
    return value_;
  }

  // Count of mutable_value() calls on this object and the object it was
  // copied from; it never repeats for one object.
  std::uint64_t version() const { return version_; }

  void zero_grad() { grad.zero(); }
  std::size_t numel() const { return value_.numel(); }

 private:
  Tensor value_;
  std::uint64_t version_ = 0;
};

// A layer's weight matrix W[rows, k] (rows = dim 0, k = the remaining dims
// flattened) in the GEMM driver's packed layout, built on the first
// forward after the weights were written and reused until the next write.
// Concurrent forwards are safe: the first one after a write packs under
// the lock, the others wait for it, and a forward that finds the pack
// current reads it without locking.
class WeightPack {
 public:
  WeightPack() = default;
  // A copy starts empty: the new owner packs its own weights on first use.
  WeightPack(const WeightPack&) {}
  WeightPack& operator=(const WeightPack&) {
    packed_version_.store(kNone, std::memory_order_relaxed);
    return *this;
  }

  // The panels of `w` for `role`, repacked first when `w` was written since
  // the last pack.
  const PackedWeights& get(const Param& w, WeightRole role) const {
    const std::uint64_t v = w.version();
    if (packed_version_.load(std::memory_order_acquire) != v) {
      std::lock_guard<std::mutex> lock(mu_);
      if (packed_version_.load(std::memory_order_relaxed) != v) {
        const Tensor& t = w.value();
        const int rows = t.dim(0);
        const int k = rows > 0 ? static_cast<int>(t.numel()) / rows : 0;
        pack_weights(t.data(), rows, k, role, packed_);
        packed_version_.store(v, std::memory_order_release);
      }
    }
    return packed_;
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  mutable std::mutex mu_;  // serialises repacks
  mutable std::atomic<std::uint64_t> packed_version_{kNone};
  mutable PackedWeights packed_;  // written under mu_, published by the
                                  // release store of packed_version_
};

}  // namespace apm
