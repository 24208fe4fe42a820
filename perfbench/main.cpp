// Served-moves benchmark program.
//
//   perfbench --workload <g15-selfplay|g15-adaptive|o6-book> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//
// --trace 0 measures the end-to-end metrics with no probe installed.
// --trace 1 runs an untraced and a traced half (probes on) and reports the
// per-layer metrics, the per-move budget and the tracing overhead. Every
// run checks the program's outputs and exits 1 when a check fails. The
// last line of standard output is one JSON object.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.hpp"

namespace perfbench {
namespace {

struct LayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports, on every workload. A layer a
// workload bypasses reports 0 with an "n/a" base.
constexpr LayerName kLayerMetrics[] = {
    {"serve.worker_busy_frac", "ratio"},
    {"serve.retunes", "count"},
    {"serve.threshold_final", "positions"},
    {"eval.mean_fill", "positions"},
    {"eval.stale_flush_frac", "ratio"},
    {"eval.queue_wait_p50_us", "us"},
    {"eval.queue_wait_p90_us", "us"},
    {"eval.backend_busy_frac", "ratio"},
    {"eval.backend_us_per_position", "us"},
    {"eval.cache_hit_frac", "ratio"},
    {"eval.cache_inserts", "1/move"},
    {"eval.cache_evictions", "1/move"},
    {"mcts.search_self_ms_per_move", "ms"},
    {"mcts.select_us_per_playout", "us"},
    {"mcts.expand_us_per_playout", "us"},
    {"mcts.backup_us_per_playout", "us"},
    {"mcts.eval_worker_busy_frac", "ratio"},
    {"mcts.expansion_collisions_per_move", "1/move"},
    {"mcts.reused_visit_frac", "ratio"},
    {"mcts.tt_graft_frac", "ratio"},
    {"mcts.tt_pending", "1/move"},
    {"perfmodel.switches_per_move", "1/move"},
    {"perfmodel.serial_move_frac", "ratio"},
    {"perfmodel.shared_tree_move_frac", "ratio"},
    {"perfmodel.local_tree_move_frac", "ratio"},
    {"perfmodel.predict_err", "ratio"},
    {"perfmodel.best_fixed_moves_per_s", "1/s"},
    {"perfmodel.adaptive_regret", "ratio"},
    {"games.clone_us", "us"},
    {"games.clone_calls_per_move", "1/move"},
    {"games.encode_us", "us"},
    {"games.encode_calls_per_move", "1/move"},
    {"games.apply_us", "us"},
    {"games.apply_calls_per_move", "1/move"},
    {"nn.traced_median_batch", "positions"},
    {"nn.conv1_us_b1", "us"},
    {"nn.conv2_us_b1", "us"},
    {"nn.conv3_us_b1", "us"},
    {"nn.policy_head_us_b1", "us"},
    {"nn.value_head_us_b1", "us"},
    {"nn.conv1_us_bmed", "us"},
    {"nn.conv2_us_bmed", "us"},
    {"nn.conv3_us_bmed", "us"},
    {"nn.policy_head_us_bmed", "us"},
    {"nn.value_head_us_bmed", "us"},
    {"nn.int8.forward_us_per_position", "us"},
    {"tensor.gemm_peak_gflops", "GFLOP/s"},
    {"tensor.conv3_gemm_gflops", "GFLOP/s"},
    {"tensor.conv3_roofline_frac", "ratio"},
    {"tensor.conv3_bytes_computed", "bytes"},
    {"obs.trace_overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

constexpr const char* kEndToEnd[] = {"moves_per_s", "move_p50_ms",
                                     "move_p90_ms", "setup_s", "peak_rss_mb"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <g15-selfplay|g15-adaptive|"
               "o6-book> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const char* n : kEndToEnd) std::printf("end_to_end %s\n", n);
      for (const LayerName& l : kLayerMetrics) {
        std::printf("per_layer %s %s\n", l.name, l.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--commit") {
      opt.commit = v;
    } else {
      return usage();
    }
  }
  if (opt.workload != "g15-selfplay" && opt.workload != "g15-adaptive" &&
      opt.workload != "o6-book") {
    return usage();
  }
  if (!(opt.seconds > 0.0)) return usage();

  for (const std::string& line : fingerprint(opt)) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("workload %s seed %llu seconds %.3f trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Report r = opt.workload == "g15-adaptive" ? run_adaptive(opt)
                                            : run_served(opt);
  if (!opt.trace) r.add("peak_rss_mb", peak_rss_mb(), "MiB", "getrusage ru_maxrss");

  const int nproc = host_cpus();
  std::printf("workload.busy_threads %d (nproc %d)\n", r.busy_threads, nproc);
  if (r.busy_threads > nproc) {
    r.fail("busy threads " + std::to_string(r.busy_threads) +
           " exceed nproc " + std::to_string(nproc));
  }

  // The metric set is fixed per mode: fill layers a workload bypasses.
  std::vector<Metric> out;
  if (opt.trace) {
    for (const LayerName& l : kLayerMetrics) {
      const Metric* found = nullptr;
      for (const Metric& m : r.metrics) {
        if (m.name == l.name) found = &m;
      }
      if (found != nullptr) {
        out.push_back(*found);
        out.back().unit = l.unit;
      } else {
        out.push_back({l.name, 0.0, l.unit,
                       "n/a: this workload bypasses the layer"});
      }
    }
  } else {
    for (const char* n : kEndToEnd) {
      bool found = false;
      for (const Metric& m : r.metrics) {
        if (m.name == n) {
          out.push_back(m);
          found = true;
        }
      }
      if (!found) r.fail(std::string("missing metric ") + n);
    }
  }
  for (Metric& m : out) {
    if (!std::isfinite(m.value)) {
      r.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    std::printf("metric %-36s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  std::printf("games attempted %lld completed %lld failed %lld\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.completed),
              static_cast<long long>(r.failed));
  for (const std::string& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = r.errors.empty();
  std::printf("correctness %s\n", correct ? "pass" : "FAIL");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted < 1 ? 1 : r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + json_escape(out[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(out[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
