#include "probes.hpp"

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_next_log_id{1};

// The calling thread's buffer in the most recently used log. A thread
// records into one log at a time, so a single cached slot suffices.
struct ThreadSlot {
  std::uint64_t log_id = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;
}  // namespace

SpanLog::SpanLog() : id_(g_next_log_id.fetch_add(1)) {}

SpanLog::Buffer& SpanLog::local() {
  if (t_slot.log_id != id_) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 14);
    t_slot.log_id = id_;
    t_slot.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

void SpanLog::record(SpanKind kind, std::uint64_t start, std::uint64_t end,
                     int depth, int items) {
  Span s;
  s.start = start;
  s.dur = static_cast<std::uint32_t>(
      end - start > 0xffffffffULL ? 0xffffffffULL : end - start);
  s.items = static_cast<std::uint16_t>(items);
  s.kind = kind;
  s.depth = static_cast<std::uint8_t>(depth > 255 ? 255 : depth);
  local().spans.push_back(s);
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void SpanLog::clear() {
  std::lock_guard lock(mu_);
  for (const auto& b : buffers_) b->spans.clear();
}

std::unique_ptr<apm::Game> TimedGame::clone() const {
  std::unique_ptr<apm::Game> copy;
  {
    SpanTimer t(log_, SpanKind::kClone, depth_);
    copy = inner_->clone();
  }
  return std::make_unique<TimedGame>(std::move(copy), log_, depth_ + 1);
}

int TimedGame::current_player() const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->current_player();
}

bool TimedGame::is_terminal() const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->is_terminal();
}

int TimedGame::winner() const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->winner();
}

int TimedGame::move_count() const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->move_count();
}

bool TimedGame::is_legal(int action) const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->is_legal(action);
}

void TimedGame::legal_actions(std::vector<int>& out) const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  inner_->legal_actions(out);
}

void TimedGame::apply(int action) {
  SpanTimer t(log_, SpanKind::kApply, depth_);
  inner_->apply(action);
}

std::uint64_t TimedGame::hash() const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->hash();
}

std::uint64_t TimedGame::eval_key() const {
  SpanTimer t(log_, SpanKind::kGameOther, depth_);
  return inner_->eval_key();
}

void TimedGame::encode(float* planes) const {
  SpanTimer t(log_, SpanKind::kEncode, depth_);
  inner_->encode(planes);
}

void TimedEvaluator::evaluate(const float* input, apm::EvalOutput& out) {
  SpanTimer t(log_, SpanKind::kEval, 0, 1);
  inner_.evaluate(input, out);
}

void TimedEvaluator::evaluate_batch(const float* inputs, int n,
                                    apm::EvalOutput* outs) {
  SpanTimer t(log_, SpanKind::kEval, 0, n);
  inner_.evaluate_batch(inputs, n, outs);
}

double TimedBackend::compute_batch(const float* inputs, int n,
                                   apm::EvalOutput* outs) {
  SpanTimer t(log_, SpanKind::kBackend, 0, n);
  return inner_.compute_batch(inputs, n, outs);
}

double KindTotals::game_ns() const {
  return ns_of(SpanKind::kClone) + ns_of(SpanKind::kEncode) +
         ns_of(SpanKind::kApply) + ns_of(SpanKind::kGameOther);
}

KindTotals totals(const std::vector<Span>& spans, int min_depth,
                  int max_depth) {
  KindTotals t;
  for (const Span& s : spans) {
    const bool game = s.kind <= SpanKind::kGameOther;
    if (game && (s.depth < min_depth || s.depth > max_depth)) continue;
    const int k = static_cast<int>(s.kind);
    t.ns[k] += static_cast<double>(s.dur);
    t.calls[k] += 1;
    t.items[k] += s.items;
  }
  return t;
}

}  // namespace perfbench
