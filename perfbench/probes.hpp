#pragma once
// Benchmark-owned probes at the interfaces the program accepts from its
// caller: a Game decorator, an Evaluator decorator and an InferenceBackend
// decorator. Each times the calls it forwards into a SpanLog and changes
// nothing else — the result digests of traced and untraced runs are
// compared to prove it. Nothing here touches the program's own tracing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/evaluator.hpp"
#include "eval/gpu_model.hpp"
#include "games/game.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kClone,
  kEncode,
  kApply,
  kGameOther,  // legal_actions, is_terminal, hash, eval_key, ...
  kEval,       // Evaluator::evaluate / evaluate_batch
  kBackend,    // InferenceBackend::compute_batch
  kCount
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t start = 0;
  std::uint32_t dur = 0;
  std::uint16_t items = 0;  // positions in a backend/eval batch
  SpanKind kind = SpanKind::kGameOther;
  // Game spans: clone hops from the benchmark's prototype (0 = prototype,
  // 1 = a served game's own board, 2+ = the search's playout copies).
  std::uint8_t depth = 0;
};

// In-memory span store with one append-only buffer per recording thread.
// Recording is off until enable(); spans are read after the recording
// threads have been joined (the served workloads stop their service, the
// adaptive workload reads between moves while no search runs).
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  void record(SpanKind kind, std::uint64_t start, std::uint64_t end,
              int depth = 0, int items = 0);

  // Every span recorded so far, any thread, unordered.
  std::vector<Span> collect() const;
  void clear();

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> on_{false};
  const std::uint64_t id_;
  mutable std::mutex mu_;  // guards buffers_ (not the buffers' contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Times one forwarded call when the log is recording.
class SpanTimer {
 public:
  SpanTimer(SpanLog* log, SpanKind kind, int depth = 0, int items = 0)
      : log_(log != nullptr && log->enabled() ? log : nullptr),
        kind_(kind),
        depth_(depth),
        items_(items),
        start_(log_ != nullptr ? now_ns() : 0) {}
  ~SpanTimer() {
    if (log_ != nullptr) log_->record(kind_, start_, now_ns(), depth_, items_);
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  SpanLog* log_;
  SpanKind kind_;
  int depth_;
  int items_;
  std::uint64_t start_;
};

class TimedGame final : public apm::Game {
 public:
  TimedGame(std::unique_ptr<apm::Game> inner, SpanLog* log, int depth = 0)
      : inner_(std::move(inner)), log_(log), depth_(depth) {}

  std::unique_ptr<apm::Game> clone() const override;
  int action_count() const override { return inner_->action_count(); }
  int height() const override { return inner_->height(); }
  int width() const override { return inner_->width(); }
  int encode_channels() const override { return inner_->encode_channels(); }
  std::string name() const override { return inner_->name(); }
  int current_player() const override;
  bool is_terminal() const override;
  int winner() const override;
  int move_count() const override;
  bool is_legal(int action) const override;
  void legal_actions(std::vector<int>& out) const override;
  void apply(int action) override;
  std::uint64_t hash() const override;
  std::uint64_t eval_key() const override;
  void encode(float* planes) const override;
  std::string to_string() const override { return inner_->to_string(); }

 private:
  std::unique_ptr<apm::Game> inner_;
  SpanLog* log_;
  int depth_;
};

class TimedEvaluator final : public apm::Evaluator {
 public:
  TimedEvaluator(apm::Evaluator& inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  void evaluate(const float* input, apm::EvalOutput& out) override;
  void evaluate_batch(const float* inputs, int n,
                      apm::EvalOutput* outs) override;

 private:
  apm::Evaluator& inner_;
  SpanLog* log_;
};

class TimedBackend final : public apm::InferenceBackend {
 public:
  TimedBackend(apm::InferenceBackend& inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  double compute_batch(const float* inputs, int n,
                       apm::EvalOutput* outs) override;
  double model_batch_us(int n) const override {
    return inner_.model_batch_us(n);
  }

 private:
  apm::InferenceBackend& inner_;
  SpanLog* log_;
};

// Per-kind totals of a span set, optionally filtered to a depth range.
struct KindTotals {
  double ns[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t calls[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t items[static_cast<int>(SpanKind::kCount)] = {};
  double ns_of(SpanKind k) const { return ns[static_cast<int>(k)]; }
  std::uint64_t calls_of(SpanKind k) const {
    return calls[static_cast<int>(k)];
  }
  double game_ns() const;
};
KindTotals totals(const std::vector<Span>& spans, int min_depth = 0,
                  int max_depth = 255);

}  // namespace perfbench
