#pragma once
// The DNN-training half of Algorithm 1 (lines 13–15) plus the full
// iterative pipeline: self-play episodes produce samples, SGD iterations
// consume them, and a throughput meter reports the §5.4 metric
// (samples/second over search + update time).
//
// Episode generation runs through the MatchService: waves of concurrent
// games, each on its own adaptive SearchEngine (tree reuse + runtime
// scheme switching), all sharing one evaluation resource so batches form
// across games. SGD runs between waves — inference reads the weights, so
// updates must never overlap a running search.

#include <functional>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/policy_value_net.hpp"
#include "serve/match_service.hpp"
#include "train/replay_buffer.hpp"
#include "train/self_play.hpp"

namespace apm {

struct TrainerConfig {
  int sgd_iters_per_move = 5;   // SGD_iterations of Algorithm 1
  int batch_size = 64;
  SgdConfig sgd;
  std::uint64_t seed = 17;
  // The EvaluatorPool model this trainer's net backs. A weight update makes
  // exactly that model's cached policies stale, so run() invalidates only
  // its cache between waves (other models' residency and hit rates survive
  // — the per-model invalidation contract of serve/evaluator_pool.hpp).
  // −1 = unknown: clear every lane's cache and TT in the service's pool.
  int model_id = -1;
};

// Point-in-time training progress for loss-over-time plots (Figure 7).
struct LossPoint {
  double wall_seconds = 0.0;    // measured on this host
  double virtual_seconds = 0.0; // scaled by an external latency model
  int samples_seen = 0;
  float loss = 0.0f;
  float value_loss = 0.0f;
  float policy_loss = 0.0f;
  float entropy = 0.0f;
};

class Trainer {
 public:
  Trainer(PolicyValueNet& net, TrainerConfig cfg, std::size_t buffer_capacity);

  ReplayBuffer& buffer() { return buffer_; }
  PolicyValueNet& net() { return net_; }

  // Runs `iters` SGD iterations over uniformly sampled minibatches and
  // returns the mean loss parts. Requires a non-empty buffer.
  LossParts train(int iters);

  // Full Algorithm-1 loop, routed through the concurrent match service:
  // `episodes` self-play games are generated in waves of up to
  // service.slots() concurrent games (the service owns the per-game
  // adaptive engines and the shared evaluator), then each completed
  // episode's samples get cfg.sgd_iters_per_move × moves SGD iterations —
  // one LossPoint per episode, as before. The service must be freshly
  // constructed over the evaluator that reads this trainer's net; the
  // trainer starts it and leaves it drained (caller stops it).
  std::vector<LossPoint> run(MatchService& service, int episodes,
                             const std::function<void(const LossPoint&)>&
                                 on_progress = nullptr);

  // §5.4 throughput: samples processed / (search + update) seconds.
  double samples_per_second() const;
  int total_samples() const { return total_samples_; }

 private:
  PolicyValueNet& net_;
  TrainerConfig cfg_;
  ReplayBuffer buffer_;
  SgdOptimizer optimizer_;
  Activations acts_;
  Rng rng_;
  double search_seconds_ = 0.0;
  double train_seconds_ = 0.0;
  int total_samples_ = 0;
};

}  // namespace apm
