#include "mcts/factory.hpp"

#include "support/check.hpp"

namespace apm {

namespace {

// The tree drivers prefer the batch queue when both resources are set.
EvalPort port_for(const SearchResources& res) {
  return res.batch != nullptr ? EvalPort(*res.batch)
                              : EvalPort(*res.evaluator);
}

std::unique_ptr<MctsSearch> build(Scheme scheme, MctsConfig cfg, int workers,
                                  const SearchResources& res,
                                  SearchTree* shared_tree) {
  switch (scheme) {
    case Scheme::kSerial:
      return std::make_unique<SerialMcts>(cfg, port_for(res), shared_tree);
    case Scheme::kSharedTree:
      return std::make_unique<SharedTreeMcts>(cfg, workers, port_for(res),
                                              shared_tree);
    case Scheme::kLocalTree:
      return std::make_unique<LocalTreeMcts>(cfg, workers, port_for(res),
                                             shared_tree);
    case Scheme::kLeafParallel:
      APM_CHECK_MSG(res.evaluator != nullptr,
                    "leaf-parallel search needs a synchronous evaluator");
      return std::make_unique<LeafParallelMcts>(cfg, workers, *res.evaluator,
                                                shared_tree);
    case Scheme::kRootParallel:
      APM_CHECK_MSG(res.evaluator != nullptr,
                    "root-parallel search needs a synchronous evaluator");
      return std::make_unique<RootParallelMcts>(cfg, workers,
                                                *res.evaluator);
  }
  APM_CHECK_MSG(false, "unknown scheme");
  return nullptr;
}

}  // namespace

std::unique_ptr<MctsSearch> make_search(Scheme scheme, MctsConfig cfg,
                                        int workers, SearchResources res,
                                        SearchTree* shared_tree) {
  APM_CHECK_MSG(res.evaluator != nullptr || res.batch != nullptr,
                "make_search: no evaluation resource provided");
  std::unique_ptr<MctsSearch> search =
      build(scheme, cfg, workers, res, shared_tree);
  search->set_batch_tag(res.batch_tag);
  search->set_transposition(res.tt, res.tt_shared);
  return search;
}

}  // namespace apm
