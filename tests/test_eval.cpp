// Evaluator-layer tests: deterministic evaluators, NetEvaluator batch
// consistency, the GPU timing model's monotonicity contracts (§4.1), and
// the async batching queue (§3.3).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "eval/async_batch.hpp"
#include "eval/evaluator.hpp"
#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "support/timer.hpp"

namespace apm {
namespace {

TEST(UniformEvaluator, UniformPolicyZeroValue) {
  UniformEvaluator eval(10, 4);
  const float input[4] = {1, 2, 3, 4};
  EvalOutput out;
  eval.evaluate(input, out);
  ASSERT_EQ(out.policy.size(), 10u);
  for (float p : out.policy) EXPECT_FLOAT_EQ(p, 0.1f);
  EXPECT_FLOAT_EQ(out.value, 0.0f);
}

TEST(SyntheticEvaluator, DeterministicPerState) {
  SyntheticEvaluator eval(5, 3);
  const float a[3] = {1, 0, 0};
  const float b[3] = {0, 1, 0};
  EvalOutput out_a1, out_a2, out_b;
  eval.evaluate(a, out_a1);
  eval.evaluate(a, out_a2);
  eval.evaluate(b, out_b);
  EXPECT_EQ(out_a1.policy, out_a2.policy);
  EXPECT_FLOAT_EQ(out_a1.value, out_a2.value);
  EXPECT_NE(out_a1.policy, out_b.policy);
}

TEST(SyntheticEvaluator, PolicyIsDistributionAndValueBounded) {
  SyntheticEvaluator eval(30, 8);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    float input[8];
    for (float& x : input) x = rng.uniform_float();
    EvalOutput out;
    eval.evaluate(input, out);
    float total = 0;
    for (float p : out.policy) {
      ASSERT_GT(p, 0.0f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
    EXPECT_GE(out.value, -1.0f);
    EXPECT_LE(out.value, 1.0f);
  }
}

TEST(SyntheticEvaluator, LatencyKnobSlowsCalls) {
  SyntheticEvaluator fast(5, 3, 0.0);
  SyntheticEvaluator slow(5, 3, 200.0);
  const float input[3] = {1, 2, 3};
  EvalOutput out;
  Timer t;
  for (int i = 0; i < 10; ++i) fast.evaluate(input, out);
  const double fast_us = t.elapsed_us();
  t.reset();
  for (int i = 0; i < 10; ++i) slow.evaluate(input, out);
  const double slow_us = t.elapsed_us();
  EXPECT_GT(slow_us, fast_us + 1000.0);
}

TEST(NetEvaluator, BatchMatchesSingleEvaluations) {
  PolicyValueNet net(NetConfig::tiny(4), 9);
  NetEvaluator eval(net);
  Rng rng(10);
  const std::size_t isz = eval.input_size();
  std::vector<float> inputs(3 * isz);
  for (float& x : inputs) x = rng.uniform_float();

  std::vector<EvalOutput> batch_out(3);
  eval.evaluate_batch(inputs.data(), 3, batch_out.data());
  for (int i = 0; i < 3; ++i) {
    EvalOutput single;
    eval.evaluate(inputs.data() + i * isz, single);
    ASSERT_EQ(single.policy.size(), batch_out[i].policy.size());
    for (std::size_t a = 0; a < single.policy.size(); ++a) {
      EXPECT_NEAR(single.policy[a], batch_out[i].policy[a], 1e-5f);
    }
    EXPECT_NEAR(single.value, batch_out[i].value, 1e-5f);
  }
}

TEST(GpuTimingModel, TransferGrowsLinearlyWithBatch) {
  GpuTimingModel m;
  EXPECT_GT(m.transfer_us(2), m.transfer_us(1));
  // Per-sample transfer cost decreases with B (launch amortisation).
  EXPECT_LT(m.transfer_us(32) / 32, m.transfer_us(1));
}

TEST(GpuTimingModel, ComputeMonotonicallyIncreases) {
  GpuTimingModel m;
  for (int b = 1; b < 128; ++b) {
    ASSERT_LE(m.compute_us(b), m.compute_us(b + 1)) << "b=" << b;
  }
}

TEST(GpuTimingModel, PcieTotalMonotonicallyDecreasesInB) {
  // §4.1: T_PCIe over N samples in N/B transfers decreases with B.
  GpuTimingModel m;
  const int n = 64;
  for (int b = 1; b < n; ++b) {
    ASSERT_GE(m.pcie_total_us(n, b), m.pcie_total_us(n, b + 1) - 1e-9)
        << "b=" << b;
  }
}

TEST(GpuTimingModel, SubSaturationBatchingIsCheap) {
  GpuTimingModel m;
  const double marginal_below =
      m.compute_us(m.saturation_batch) - m.compute_us(m.saturation_batch - 1);
  const double marginal_above =
      m.compute_us(m.saturation_batch + 2) -
      m.compute_us(m.saturation_batch + 1);
  EXPECT_LT(marginal_below, marginal_above);
}

TEST(SimGpuBackend, ComputesRealResultsWithModelledLatency) {
  SyntheticEvaluator eval(6, 4);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  const float inputs[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EvalOutput outs[2];
  const double us = backend.compute_batch(inputs, 2, outs);
  EXPECT_NEAR(us, model.batch_total_us(2), 1e-9);
  EvalOutput direct;
  eval.evaluate(inputs, direct);
  EXPECT_EQ(outs[0].policy, direct.policy);
}

TEST(CpuBackend, ModelledLatencyTracksMeasured) {
  SyntheticEvaluator eval(6, 4, /*latency_us=*/50.0);
  CpuBackend backend(eval);
  const float inputs[4] = {1, 2, 3, 4};
  EvalOutput out;
  const double measured = backend.compute_batch(inputs, 1, &out);
  EXPECT_GE(measured, 45.0);
  EXPECT_NEAR(backend.model_batch_us(4), 4 * measured, measured);
}

TEST(NetEvaluator, ConcurrentCallersMatchSingleThread) {
  // Shared-tree workers call one NetEvaluator from several threads at
  // once; each thread gets its own workspace from the evaluator's
  // per-thread map. Every thread's outputs must be bitwise what a
  // sequential run of the same positions gives.
  PolicyValueNet net(NetConfig::tiny(9), 11);
  NetEvaluator eval(net);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  const std::size_t isz = eval.input_size();
  Rng rng(77);
  std::vector<float> inputs(kThreads * kPerThread * isz);
  for (auto& v : inputs) v = rng.uniform_float();
  const auto position = [&](int t, int i) {
    return inputs.data() + (t * kPerThread + i) * isz;
  };

  // Reference: every position evaluated on this thread, one at a time.
  std::vector<EvalOutput> expect(kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      eval.evaluate(position(t, i), expect[t * kPerThread + i]);

  // Each thread alternates single evaluations with one batch of its
  // positions, so the workspaces also resize under concurrency.
  std::vector<EvalOutput> single(kThreads * kPerThread);
  std::vector<EvalOutput> batched(kThreads * kPerThread);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        eval.evaluate(position(t, i), single[t * kPerThread + i]);
      }
      eval.evaluate_batch(position(t, 0), kPerThread,
                          batched.data() + t * kPerThread);
    });
  }
  for (auto& th : threads) th.join();

  for (int j = 0; j < kThreads * kPerThread; ++j) {
    ASSERT_EQ(single[j].policy, expect[j].policy) << "position " << j;
    ASSERT_EQ(single[j].value, expect[j].value) << "position " << j;
  }
  // The concurrent batches against the same batches run sequentially.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<EvalOutput> seq(kPerThread);
    eval.evaluate_batch(position(t, 0), kPerThread, seq.data());
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(batched[t * kPerThread + i].policy, seq[i].policy)
          << "thread " << t << " row " << i;
      ASSERT_EQ(batched[t * kPerThread + i].value, seq[i].value)
          << "thread " << t << " row " << i;
    }
  }
}

TEST(AsyncBatch, ThresholdTriggersDispatch) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, /*threshold=*/4, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float input[2] = {1, 2};
  std::vector<std::future<EvalOutput>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(queue.submit_future(input));
  for (auto& f : futures) {
    const EvalOutput out = f.get();
    EXPECT_EQ(out.policy.size(), 5u);
  }
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.full_batches, 2u);
  EXPECT_EQ(stats.max_batch, 4u);
}

TEST(AsyncBatch, FlushDispatchesPartialBatch) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 16, 1, /*stale_flush_us=*/0.0);
  const float input[2] = {3, 4};
  auto fut = queue.submit_future(input);
  queue.flush();
  EXPECT_EQ(fut.get().policy.size(), 5u);
  EXPECT_EQ(queue.stats().batches, 1u);
  EXPECT_EQ(queue.stats().full_batches, 0u);
}

TEST(AsyncBatch, StaleFlushCompletesWithoutExplicitFlush) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 64, 1, /*stale_flush_us=*/200.0);
  const float input[2] = {5, 6};
  auto fut = queue.submit_future(input);
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(queue.stats().stale_flushes, 1u);
  EXPECT_EQ(queue.stats().threshold_dispatches, 0u);
}

TEST(AsyncBatch, DispatchReasonCounters) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, /*threshold=*/4, /*streams=*/1,
                            /*stale_flush_us=*/0.0);
  const float input[2] = {1, 2};
  std::vector<std::future<EvalOutput>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(queue.submit_future(input));
  for (int i = 0; i < 2; ++i) futures.push_back(queue.submit_future(input));
  queue.flush();
  for (auto& f : futures) f.get();
  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.threshold_dispatches, 1u);
  EXPECT_EQ(stats.manual_flushes, 1u);
  EXPECT_EQ(stats.stale_flushes, 0u);
}

TEST(AsyncBatch, DrainWaitsForEverything) {
  SyntheticEvaluator eval(5, 2, /*latency_us=*/100.0);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 3, 2, 0.0);
  std::atomic<int> done{0};
  const float input[2] = {7, 8};
  for (int i = 0; i < 7; ++i) {
    queue.submit(input, [&done](EvalOutput) { done.fetch_add(1); });
  }
  queue.drain();
  EXPECT_EQ(done.load(), 7);
}

TEST(AsyncBatch, ConcurrentSubmittersAllServed) {
  SyntheticEvaluator eval(5, 2);
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator queue(backend, 8, 2, 500.0);
  std::atomic<int> done{0};
  constexpr int kThreads = 4, kPerThread = 50;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const float input[2] = {9, 10};
        for (int i = 0; i < kPerThread; ++i) {
          queue.submit(input, [&done](EvalOutput) { done.fetch_add(1); });
        }
      });
    }
  }
  queue.drain();
  EXPECT_EQ(done.load(), kThreads * kPerThread);
  EXPECT_EQ(queue.stats().submitted, 200u);
}

}  // namespace
}  // namespace apm
