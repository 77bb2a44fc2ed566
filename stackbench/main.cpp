// stackbench: the one benchmark of the stune stack.
//
//   stackbench run --workload W --seed N --seconds S --trace 0|1
//                  [--commit SHA] [--references PATH] [--spans PATH]
//   stackbench reference --seed N
//   stackbench selftest [--references PATH]
//
// `run` prints every metric by name and unit, a `record:` line holding the
// full result with its stamp, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer metrics. It exits non-zero when an output
// check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

#ifndef STACKBENCH_BUILD_TYPE
#define STACKBENCH_BUILD_TYPE "unknown"
#endif
#ifndef STACKBENCH_COMPILER
#define STACKBENCH_COMPILER "unknown"
#endif
#ifndef STACKBENCH_NATIVE_KERNELS
#define STACKBENCH_NATIVE_KERNELS 0
#endif

namespace stackbench {
namespace {

/// Every per-layer metric, its unit, and the end-to-end metric it should
/// move on which workload. A traced run prints all of them; a layer not
/// reachable from the running workload reads 0 and says why.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr LayerSpec kLayers[] = {
    {"service.outcome.retrieved_frac", "ratio", "serve_p50_us, job_s_mean on serve_onboarding"},
    {"service.outcome.served_frac", "ratio", "serve_slo_frac on serve_onboarding"},
    {"service.outcome.degraded_frac", "ratio",
     "job_s_mean on serve_onboarding; serve_ops_per_s, serve_p50_us on serve_recurring"},
    {"service.outcome.shed_frac", "ratio", "serve_failed_frac, serve_slo_frac on serve_onboarding"},
    {"service.retrieved.p50_us", "us",
     "serve_p99_us, serve_slo_frac on serve_onboarding; no change on serve_recurring"},
    {"service.retrieved.p99_us", "us",
     "serve_p99_us, serve_slo_frac on serve_onboarding; no change on serve_recurring"},
    {"service.served.p50_us", "us",
     "serve_p99_us, serve_slo_frac on serve_onboarding; no change on serve_recurring"},
    {"service.served.p99_us", "us",
     "serve_p99_us, serve_slo_frac on serve_onboarding; no change on serve_recurring"},
    {"service.degraded.p50_us", "us", "serve_p99_us, serve_slo_frac on serve_onboarding"},
    {"service.degraded.p99_us", "us", "serve_p99_us, serve_slo_frac on serve_onboarding"},
    {"service.shed.p50_us", "us", "serve_p50_us on serve_onboarding"},
    {"service.tuning_sessions", "count", "serve_p99_us, serve_slo_frac on serve_onboarding"},
    {"service.peak_inflight", "count", "serve_p99_us on serve_onboarding"},
    {"service.retrieval.hit_frac", "ratio", "serve_p50_us, job_s_mean on serve_onboarding"},
    {"service.retrieval.entries", "count",
     "serve_p50_us, job_s_mean on serve_onboarding; peak_rss_mb on serve_recurring"},
    {"service.kb.records", "count", "serve_p50_us, job_s_mean on serve_onboarding"},
    {"service.kb.append.p50_us", "us",
     "serve_ops_per_s, peak_rss_mb on serve_recurring; tune_session_s_p50 on tune_session"},
    {"service.kb.append.p99_us", "us",
     "serve_ops_per_s, peak_rss_mb on serve_recurring; tune_session_s_p50 on tune_session"},
    {"service.retrieval.query.p50_us", "us",
     "serve_ops_per_s on serve_recurring; tune_session_s_p50 on tune_session"},
    {"transfer.warm_start.p50_us", "us", "tune_to_good_s_p50 on tune_session"},
    {"transfer.donor.ratio_p50", "ratio",
     "tune_to_good_trials_p50 on tune_session; job_s_mean on serve_onboarding"},
    {"workload.plans_per_op", "count", "serve_ops_per_s on serve_recurring"},
    {"workload.eval_cache.hit_frac", "ratio", "serve_ops_per_s on serve_recurring"},
    {"workload.execute.p50_us", "us", "tune_session_s_p50 on tune_session"},
    {"workload.execute.p99_us", "us", "tune_session_s_p50 on tune_session"},
    {"workload.execute.count", "count", "tune_session_s_p50 on tune_session"},
    {"disc.ctx.outcome_hit_frac", "ratio",
     "tune_session_s_p50 on tune_session; serve_ops_per_s on serve_recurring"},
    {"disc.ctx.draw_hit_frac", "ratio",
     "tune_session_s_p50 on tune_session; serve_ops_per_s on serve_recurring"},
    {"tuning.suggest.p50_us", "us",
     "tune_session_s_p50, tune_to_good_s_p50 on tune_session; no change on serve_recurring"},
    {"tuning.suggest.p99_us", "us",
     "tune_session_s_p50, tune_to_good_s_p50 on tune_session; no change on serve_recurring"},
    {"tuning.suggest.count", "count", "tune_session_s_p50 on tune_session"},
    {"tuning.observe.p50_us", "us", "tune_session_s_p50, tune_to_good_s_p50 on tune_session"},
    {"tuning.executor.self_ms", "ms", "tune_session_s_p50, tune_to_good_s_p50 on tune_session"},
    {"client.late.p99_us", "us", "serve_p99_us, serve_slo_frac on serve_onboarding"},
    {"trace.overhead_frac", "ratio", "every end-to-end metric of this workload"},
};

/// Why a layer metric has no value on a workload: the call happens inside
/// TuningService::serve(), out of reach of the benchmark's spans, or the
/// layer has no part in the workload.
const char* unreachable_reason(const std::string& workload, const std::string& layer) {
  if (workload == "tune_session") return "no serve() on this workload";
  if (layer.rfind("tuning.", 0) == 0 || layer.rfind("disc.", 0) == 0 ||
      layer.rfind("workload.execute", 0) == 0 || layer.rfind("transfer.", 0) == 0 ||
      layer.rfind("service.kb.append", 0) == 0 || layer == "service.retrieval.query.p50_us") {
    return "called inside TuningService::serve(); measured on tune_session";
  }
  if (layer == "client.late.p99_us") return "closed loop: no schedule to be late against";
  return "not measured on this workload";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// A number as JSON: all 17 significant digits; NaN/inf (no value) as 0.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string stamp_json(const RunArgs& args, const std::string& commit) {
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": \"" + json_escape(STACKBENCH_COMPILER) + "\"";
  s += ", \"build_type\": \"" + json_escape(STACKBENCH_BUILD_TYPE) + "\"";
  s += std::string(", \"native_kernels\": ") + (STACKBENCH_NATIVE_KERNELS ? "true" : "false");
  s += ", \"git_commit\": \"" + json_escape(commit) + "\"";
  s += ", \"seed\": " + std::to_string(args.seed);
  s += "}";
  return s;
}

int run(const RunArgs& args, const std::string& commit) {
  RunResult r;
  if (args.workload == "serve_recurring") {
    r = run_serve_recurring(args);
  } else if (args.workload == "serve_onboarding") {
    r = run_serve_onboarding(args);
  } else if (args.workload == "tune_session") {
    r = run_tune_session(args);
  } else {
    std::fprintf(stderr,
                 "stackbench: unknown workload '%s' (serve_recurring, serve_onboarding, "
                 "tune_session)\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf("== stackbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("stamp: %s\n", stamp_json(args, commit).c_str());
  for (const auto& n : r.notes) std::printf("workload: %s\n", n.c_str());
  for (const auto& o : r.options) {
    std::printf("option: %s = %s (default differs) -- %s\n", o.field.c_str(), o.value.c_str(),
                o.reason.c_str());
  }
  std::printf("-- end-to-end%s\n", args.trace ? " (this traced run; not the gated figures)" : "");
  for (const auto& m : r.end_to_end) {
    std::printf("  %-26s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (const auto& m : r.detail) {
    std::printf("  %-26s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }

  std::vector<Metric> layers;
  if (args.trace) {
    std::printf("-- per layer (traced ops only)      value  unit   -> moves\n");
    for (const LayerSpec& spec : kLayers) {
      Metric m{spec.name, 0.0, spec.unit, unreachable_reason(args.workload, spec.name)};
      for (const auto& got : r.layers) {
        if (got.name == spec.name) {
          m.value = got.value;
          m.note = got.note;
        }
      }
      std::printf("  %-32s %12.4f %-6s -> %s [%s]\n", m.name.c_str(), m.value, m.unit.c_str(),
                  spec.moves, m.note.c_str());
      layers.push_back(m);
    }
  }

  const bool correct = r.errors.empty();
  for (const auto& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("checks: %s; attempted %llu, failed %llu\n", correct ? "all passed" : "FAILED",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  const auto metrics_json = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i > 0) s += ", ";
      s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
    }
    return s + "}";
  };
  std::string record = "{\"workload\": \"" + args.workload + "\", \"seed\": " +
                       std::to_string(args.seed) + ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"stamp\": " + stamp_json(args, commit) +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"end_to_end\": " + metrics_json(r.end_to_end) +
                       ", \"detail\": " + metrics_json(r.detail) +
                       ", \"per_layer\": " + metrics_json(layers) + "}";
  std::printf("record: %s\n", record.c_str());
  if (!correct) {
    std::fflush(stdout);
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(args.trace ? layers : r.end_to_end).c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: stackbench run --workload W --seed N --seconds S --trace 0|1 "
               "[--commit SHA] [--references PATH] [--spans PATH]\n"
               "       stackbench reference --seed N\n"
               "       stackbench selftest [--references PATH]\n");
  return 2;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) {
  using namespace stackbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  RunArgs args;
  std::string commit = "unknown";
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--commit") {
      commit = val;
    } else if (key == "--references") {
      args.reference_path = val;
    } else if (key == "--spans") {
      args.trace_out = val;
    } else {
      return usage();
    }
  }
  if ((argc - 2) % 2 != 0) return usage();
  if (cmd == "run") {
    if (args.workload.empty() || !(args.seconds > 0.0)) return usage();
    return run(args, commit);
  }
  if (cmd == "reference") return write_references(args.seed);
  if (cmd == "selftest") return run_selftest(args.reference_path) == 0 ? 0 : 1;
  return usage();
}
