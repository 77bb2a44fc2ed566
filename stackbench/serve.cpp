// serve_recurring and serve_onboarding: load on TuningService::serve().
//
// serve_recurring is a closed loop over a fleet of recurring tenants whose
// configurations were chosen during set-up, so nearly all of an op is the
// engine's production run and the knowledge-base append. serve_onboarding
// is an open loop at a fixed offered rate mixing first-time tenants, their
// second runs and tenants whose input drifts, so retrieval queries, the
// degrade ladder and tuning sessions holding a shard lock all happen in the
// timed window.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/tuning_service.hpp"
#include "simcore/rng.hpp"
#include "simcore/units.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace stackbench {
namespace {

namespace svc = stune::service;
using stune::simcore::Bytes;
using stune::simcore::hash_combine;
using stune::simcore::hash_string;

/// Input sizes a tenant can have, GiB. Fleets hold every workload at every
/// size in equal numbers, so the job mix (and job_s_mean) is the same for
/// every seed; the seed decides names, shard placement and request order.
constexpr double kSizesGiB[] = {1.0, 2.0, 4.0, 8.0};
constexpr std::size_t kSizes = std::size(kSizesGiB);

/// Recurring tenants of both serve workloads: 2 per (workload, size) cell.
constexpr std::size_t kFleet = 9 * kSizes * 2;
/// serve_onboarding offered load, requests per second, Poisson arrivals.
constexpr double kOfferedRate = 2000.0;
/// A request meets the SLO when answered unshed, with a successful run,
/// within this latency (from its due time on the open loop).
constexpr double kSloLimitUs = 20000.0;
/// Set-up tunes the whole fleet, so it is repeated fewer times than the
/// tune workload's.
constexpr int kServeSetupRepeats = 5;
/// serve_recurring reads peak RSS, job_s_mean and slo_frac over this many
/// first ops of the window, a fixed amount of work: with one client the
/// service sees the same calls in the same order for a seed, however many
/// ops the window holds after it. At the slowest rate seen on the 4-vCPU
/// reference box (about 6k ops/s) it is reached in under 9 s.
constexpr std::size_t kCheckpointOps = 50000;
/// serve_onboarding's schedule is a fixed amount of work already.
constexpr std::size_t kAllOps = std::numeric_limits<std::size_t>::max();
/// Traced runs alternate traced and untraced ops in slices this long.
constexpr double kTraceSliceS = 0.25;

struct Tenant {
  std::string name;
  std::shared_ptr<const stune::workload::Workload> workload;  // counting decorator
  std::string workload_name;
  Bytes base_bytes = 0;
};

/// One finished op, as the client saw it.
struct OpRecord {
  std::size_t seq = 0;      // request order: closed-loop op count or schedule index
  double start_s = 0.0;     // due time (open loop) or sending time, into the window
  double latency_us = 0.0;  // from due time on the open loop, else from sending
  double service_us = 0.0;  // from sending
  double late_us = 0.0;
  svc::ServeOutcome outcome = svc::ServeOutcome::kServed;
  bool ok = false;  // unshed, report checked, production run succeeded
  bool traced = false;
  double job_s = 0.0;
};

struct Instruments {
  Tracer tracer;
  std::atomic<std::uint64_t> plans{0};
};

/// Tenant i runs workload i % 9 at size (i / 9) % 4, so any 36 consecutive
/// tenants cover every (workload, size) cell once. A tenant's name decides
/// its shard and its tuning seeds; `seed` = 0 gives fixed names.
std::vector<Tenant> make_tenants(std::size_t count, std::uint64_t seed, const char* tag,
                                 Instruments& ins) {
  const auto& names = stune::workload::workload_names();
  std::vector<Tenant> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tenant t;
    t.workload_name = names[i % names.size()];
    t.base_bytes = stune::simcore::gib(kSizesGiB[(i / names.size()) % kSizes]);
    char name[64];
    const std::uint64_t id = hash_combine(seed, hash_combine(hash_string(tag), i));
    std::snprintf(name, sizeof name, "%s-%016llx", tag, static_cast<unsigned long long>(id));
    t.name = name;
    t.workload = std::make_shared<CountingWorkload>(stune::workload::make_workload(t.workload_name),
                                                    &ins.plans, &ins.tracer);
    out.push_back(std::move(t));
  }
  return out;
}

/// Checks one answer. An unshed answer must carry a report of the tenant's
/// own workload (every stage label reads "<workload>:<stage>"); a wrong one
/// is an output error. Returns whether the op succeeded.
bool check_answer(const svc::ServeResult& r, const Tenant& t, RunResult& out) {
  if (r.outcome == svc::ServeOutcome::kShed) return false;
  const std::string prefix = t.workload_name + ":";
  bool ours = !r.report.stages.empty();
  for (const auto& st : r.report.stages) ours = ours && st.label.rfind(prefix, 0) == 0;
  if (!ours) {
    out.error("tenant " + t.name + " (" + t.workload_name + ") got a report of another workload" +
              (r.report.stages.empty() ? std::string(" (no stages)")
                                       : " (stage " + r.report.stages.front().label + ")"));
    return false;
  }
  return r.report.success;
}

/// `refilling_stock`: a tuning stock of one session per shard that refills
/// once per second of the request schedule (serve_onboarding); otherwise the
/// service's default, unlimited tuning capacity (serve_recurring).
svc::ServiceOptions serve_options(RunResult& out, bool refilling_stock) {
  svc::ServiceOptions o;
  o.shards = 8;
  o.tune_cloud = false;
  o.ledger_counterfactual = false;
  o.retrieval.enabled = true;
  o.knowledge.max_records = 50000;
  out.options = {
      {"shards", "8", "tenants on different shards run concurrently; with 1 shard the client "
                      "threads serialize on one mutex"},
      {"tune_cloud", "false", "stage-1 cloud exploration is not part of the serve path measured "
                              "here; tenants run on default_cluster"},
      {"ledger_counterfactual", "false", "one production run per op; the counterfactual run "
                                         "measures the savings ledger, not serving"},
      {"retrieval.enabled", "true", "the zero-execution retrieval tier is on the measured path"},
      {"knowledge.max_records", "50000", "bounds retained full records over long runs; the "
                                         "retrieval index still grows on every append"},
  };
  if (refilling_stock) {
    o.admission.tuning_tokens_per_s = 1.0;
    o.admission.tuning_burst = 1.0;
    out.options.push_back({"admission.tuning_tokens_per_s", "1 (per shard)",
                           "the tuning stock refills on the request schedule"});
    out.options.push_back({"admission.tuning_burst", "1",
                           "at most one queued tuning session per shard"});
  }
  return o;
}

/// Submit the fleet, tune every tenant through run_once() (admission-exempt,
/// so the tuning stock is untouched), then serve every tenant once. The
/// timed window starts with every tenant holding a tuned configuration.
std::vector<int> warm_fleet(svc::TuningService& service, const std::vector<Tenant>& fleet,
                            RunResult& out) {
  std::vector<int> handles;
  handles.reserve(fleet.size());
  for (const Tenant& t : fleet) handles.push_back(service.submit(t.name, t.workload, t.base_bytes));
  for (const int h : handles) service.run_once(h);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto r = service.serve(handles[i]);
    if (!check_answer(r, fleet[i], out)) out.error("set-up serve failed for " + fleet[i].name);
  }
  return handles;
}

struct HealthTotals {
  std::uint64_t hits = 0, misses = 0, fallbacks = 0, sessions = 0;
  std::size_t peak_inflight = 0;
  std::size_t entries = 0;
};

HealthTotals health_totals(const svc::TuningService& service) {
  const auto h = service.health(false);
  HealthTotals t;
  t.hits = h.retrieved;
  t.misses = h.retrieval_misses;
  t.fallbacks = h.retrieval_fallbacks;
  t.entries = h.retrieval_entries;
  for (const auto& s : h.per_shard) {
    t.sessions += s.tuning_sessions;
    t.peak_inflight = std::max(t.peak_inflight, s.peak_inflight);
  }
  return t;
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

/// Everything the two serve workloads report from their op records.
/// job_s_mean and slo_frac cover the ops with seq < `checkpoint_ops`.
void report_serve(const std::vector<OpRecord>& ops, double window_s, bool open_loop,
                  std::size_t checkpoint_ops, const svc::TuningService& service,
                  const HealthTotals& before, const stune::workload::EvalCacheStats& cache_before,
                  std::uint64_t plans, bool trace, RunResult& out) {
  std::vector<double> lat, late, service_traced, service_untraced;
  std::vector<TimedOp> timed;
  std::vector<double> by_outcome[4];
  std::size_t outcomes[4] = {0, 0, 0, 0};
  std::size_t ok = 0, early = 0, early_ok = 0, slo_met = 0;
  double job_sum = 0.0;
  for (const OpRecord& op : ops) {
    const auto o = static_cast<std::size_t>(op.outcome);
    ++outcomes[o];
    late.push_back(op.late_us);
    if (op.traced) {
      service_traced.push_back(op.service_us);
      by_outcome[o].push_back(op.latency_us);
    } else {
      lat.push_back(op.latency_us);
      timed.push_back({op.start_s, op.latency_us});
      service_untraced.push_back(op.service_us);
    }
    ok += op.ok ? 1 : 0;
    if (op.seq >= checkpoint_ops) continue;
    ++early;
    if (op.ok) {
      ++early_ok;
      job_sum += op.job_s;
      if (op.latency_us <= kSloLimitUs) ++slo_met;
    }
  }
  out.attempted = ops.size();
  out.failed = ops.size() - ok;
  const auto n = static_cast<double>(ops.size());
  const Summary s = summarize(lat);
  const SliceFigures sm = slice_figures(timed, window_s, kSliceS);
  const double failed_frac = frac(static_cast<double>(out.failed), n);
  const double slo_frac = frac(static_cast<double>(slo_met), static_cast<double>(early));
  const double job_s_mean = frac(job_sum, static_cast<double>(early_ok));
  const std::string from = open_loop ? ", from due time" : "";
  const std::string over = early == ops.size()
                               ? "all " + std::to_string(early) + " ops"
                               : "the first " + std::to_string(early) + " ops";
  if (early < checkpoint_ops && checkpoint_ops != kAllOps) {
    out.notes.push_back("the window ended before op " + std::to_string(checkpoint_ops) +
                        ": job_s_mean, slo_frac and peak_rss_mb cover " + over);
  }

  out.add("ops_per_s", sm.ops_per_s, "1/s", sm.describe() + ", completed serve() calls per second");
  out.add("p50_us", sm.p50_us, "us", sm.describe() + from);
  out.add("p99_us", sm.p99_us, "us", sm.describe() + from);
  out.add("job_s_mean", job_s_mean, "sim-s", "mean simulated production runtime over " + over);
  out.add("slo_frac", slo_frac, "ratio",
          "answered unshed, run ok, within " + std::to_string(static_cast<int>(kSloLimitUs)) +
              " us " + (open_loop ? "of due time" : "of sending") + ", over " + over);

  if (!open_loop) {
    out.add_detail("serve_ops_per_s", static_cast<double>(ops.size()) / window_s, "ops/s",
                   "whole window");
  }
  out.add_detail("serve_p50_us", s.p50, "us", count_note(s.n));
  out.add_detail("serve_p99_us", s.at(99.0), "us", count_note(s.n));
  if (s.tail_pct > 0.0) {
    char label[32];
    std::snprintf(label, sizeof label, "serve_p%g_us", s.tail_pct);
    if (s.tail_pct != 99.0) out.add_detail(label, s.tail, "us", "highest supported percentile");
  }
  if (open_loop) out.add_detail("serve_slo_frac", slo_frac, "ratio");
  out.add_detail("serve_failed_frac", failed_frac, "ratio", "shed + threw + run failed");
  const HealthTotals after = health_totals(service);
  out.add_detail("serve_degraded_frac",
                 frac(static_cast<double>(outcomes[static_cast<std::size_t>(
                          svc::ServeOutcome::kDegraded)]),
                      n),
                 "ratio", "answers from the degrade path, whole window");
  out.add_detail("serve_tuning_sessions", static_cast<double>(after.sessions - before.sessions),
                 "count", "tuning sessions serve() ran in the window");

  if (!trace) return;
  const auto cache = service.eval_cache_stats();
  const char* outcome_names[4] = {"served", "degraded", "shed", "retrieved"};
  for (std::size_t o = 0; o < 4; ++o) {
    out.layer(std::string("service.outcome.") + outcome_names[o] + "_frac",
              frac(static_cast<double>(outcomes[o]), n), count_note(ops.size()));
    if (o == 2) {
      out.layer("service.shed.p50_us", summarize(by_outcome[o]).p50,
                count_note(by_outcome[o].size()));
      continue;
    }
    const Summary so = summarize(by_outcome[o]);
    out.layer(std::string("service.") + outcome_names[o] + ".p50_us", so.p50, count_note(so.n));
    out.layer(std::string("service.") + outcome_names[o] + ".p99_us",
              so.supports(99.0) ? so.at(99.0) : so.tail,
              so.supports(99.0) ? count_note(so.n) : so.describe("us") + "; p99 unsupported");
  }
  out.layer("service.tuning_sessions", static_cast<double>(after.sessions - before.sessions),
            "in the window");
  out.layer("service.peak_inflight", static_cast<double>(after.peak_inflight), "max over shards");
  const double lookups = static_cast<double>((after.hits - before.hits) +
                                             (after.misses - before.misses) +
                                             (after.fallbacks - before.fallbacks));
  out.layer("service.retrieval.hit_frac",
            frac(static_cast<double>(after.hits - before.hits), lookups),
            "hits/(hits+misses+fallbacks), " + std::to_string(static_cast<long long>(lookups)) +
                " lookups");
  out.layer("service.retrieval.entries", static_cast<double>(after.entries), "at window end");
  out.layer("service.kb.records", static_cast<double>(service.knowledge_size()), "at window end");
  out.layer("workload.plans_per_op", frac(static_cast<double>(plans), n),
            "Workload::logical() calls per serve()");
  const double cache_hits = static_cast<double>(cache.hits - cache_before.hits);
  const double cache_total = cache_hits + static_cast<double>(cache.misses - cache_before.misses);
  out.layer("workload.eval_cache.hit_frac", frac(cache_hits, cache_total),
            count_note(static_cast<std::size_t>(cache_total)) + " lookups");
  if (open_loop) {
    const Summary sl = summarize(late);
    out.layer("client.late.p99_us", sl.at(99.0), count_note(sl.n));
  }
  // Medians of the time from sending to answer: tracing cost per op, without
  // the lock-wait tails that land in either half at random.
  const Summary traced = summarize(service_traced);
  const Summary untraced = summarize(service_untraced);
  out.layer("trace.overhead_frac", frac(traced.p50, untraced.p50) - (traced.n > 0 ? 1.0 : 0.0),
            "median serve() time of traced over untraced ops, minus 1 (" +
                std::to_string(traced.n) + " vs " + std::to_string(untraced.n) + " ops)");
}

/// Runs `body(thread_index)` on `clients` threads, the caller being the
/// last one.
template <typename Body>
void on_client_threads(std::size_t clients, Body&& body) {
  std::vector<std::thread> threads;
  threads.reserve(clients - 1);
  for (std::size_t k = 0; k + 1 < clients; ++k) threads.emplace_back(body, k);
  body(clients - 1);
  for (auto& t : threads) t.join();
}

bool traced_slice(bool trace, double t_s) {
  return trace && static_cast<long long>(std::floor(t_s / kTraceSliceS)) % 2 == 1;
}

}  // namespace

RunResult run_serve_recurring(const RunArgs& args) {
  RunResult out;
  Instruments ins;
  std::unique_ptr<svc::TuningService> service;
  std::vector<Tenant> fleet;
  std::vector<int> handles;
  std::vector<double> setups;
  for (int rep = 0; rep < kServeSetupRepeats; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<svc::TuningService>(serve_options(out, false));
    fleet = make_tenants(kFleet, 0, "tenant", ins);
    handles = warm_fleet(*service, fleet, out);
    setups.push_back(seconds_since(t0));
  }
  out.notes.push_back("closed loop: " + std::to_string(kRecurringClients) + " client thread over " +
                      std::to_string(kFleet) +
                      " recurring tenants (9 workloads x 4 sizes x 2), all tuned in set-up; "
                      "default tuning capacity, so a drift alarm re-tunes the tenant");

  const HealthTotals before = health_totals(*service);
  const auto cache_before = service->eval_cache_stats();
  const std::uint64_t plans_before = ins.plans.load();
  const double window_s = args.seconds;
  std::vector<std::vector<OpRecord>> per_thread(kRecurringClients);
  std::atomic<std::size_t> done{0};
  std::atomic<double> rss_mb{0.0};
  const auto t_start = Clock::now();
  const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(window_s));
  on_client_threads(kRecurringClients, [&](std::size_t k) {
    // Each client walks the fleet in its own seeded order.
    std::vector<std::size_t> order(fleet.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    stune::simcore::Rng(hash_combine(args.seed, 0xC11E47ULL + k)).shuffle(order);
    std::vector<OpRecord>& mine = per_thread[k];
    mine.reserve(1 << 18);
    std::uint64_t request = (static_cast<std::uint64_t>(k) << 40);
    for (std::size_t step = 0;; ++step) {
      const auto t0 = Clock::now();
      if (t0 >= deadline) break;
      const std::size_t idx = order[step % order.size()];
      OpRecord op;
      op.traced = traced_slice(args.trace, std::chrono::duration<double>(t0 - t_start).count());
      ins.tracer.begin_request(++request, op.traced);
      svc::ServeResult r;
      bool threw = false;
      try {
        const ScopedSpan span(&ins.tracer, "service.serve");
        r = service->serve(handles[idx]);
      } catch (const std::exception&) {
        threw = true;  // counted as a failed op
      }
      ins.tracer.end_request();
      op.start_s = std::chrono::duration<double>(t0 - t_start).count();
      op.latency_us = seconds_since(t0) * 1e6;
      op.service_us = op.latency_us;
      op.outcome = r.outcome;
      op.ok = !threw && check_answer(r, fleet[idx], out);
      op.job_s = r.report.runtime;
      op.seq = done.fetch_add(1);
      mine.push_back(op);
      if (op.seq + 1 == kCheckpointOps) rss_mb.store(peak_rss_mb());
    }
  });
  // Read before the op records are merged, so the copy does not count.
  if (done.load() < kCheckpointOps) rss_mb.store(peak_rss_mb());
  std::vector<OpRecord> ops;
  for (auto& v : per_thread) ops.insert(ops.end(), v.begin(), v.end());

  out.add("setup_s", summarize(setups).p50, "s",
          "median of " + std::to_string(kServeSetupRepeats) +
              " set-ups: submit, tune every tenant, one serve pass");
  out.add("peak_rss_mb", rss_mb.load(), "MiB",
          "process high-water RSS after the first " +
              std::to_string(std::min<std::size_t>(done.load(), kCheckpointOps)) + " ops");
  report_serve(ops, window_s, /*open_loop=*/false, kCheckpointOps, *service, before, cache_before,
               ins.plans.load() - plans_before, args.trace, out);
  if (args.trace && !args.trace_out.empty()) write_spans(ins.tracer.collect(), args.trace_out);
  return out;
}

namespace {

enum class Kind { kRecurring, kDrift, kNew, kFollowUp };

/// Handle-table sentinels for first-time tenants.
constexpr int kNotSubmitted = -1;
constexpr int kSubmitFailed = -2;

struct Request {
  double due_s = 0.0;
  Kind kind = Kind::kRecurring;
  std::size_t tenant = 0;  // index into the combined tenant table
  double scale = 0.0;      // input = base size x scale; 0 = the previous size
};

/// The open-loop schedule: Poisson arrivals at kOfferedRate for `window_s`.
/// Every block of ten requests holds one first-time tenant, the second run
/// of the previous block's first-time tenant, two runs of drifting tenants
/// and six plain recurring runs, in seeded order. The first half of the
/// fleet drifts: each run steps its input by 10% over a sawtooth of eight
/// sizes. Both halves hold every (workload, size) cell once and are visited
/// round-robin in a seeded order.
std::vector<Request> make_schedule(std::uint64_t seed, double window_s, std::size_t fleet,
                                   std::size_t* new_tenants) {
  stune::simcore::Rng rng(hash_combine(seed, 0x5C4EDULL));
  const std::size_t half = fleet / 2;
  std::vector<std::size_t> drifting(half), recurring(fleet - half);
  for (std::size_t i = 0; i < half; ++i) drifting[i] = i;
  for (std::size_t i = half; i < fleet; ++i) recurring[i - half] = i;
  rng.shuffle(drifting);
  rng.shuffle(recurring);
  std::vector<Request> out;
  std::vector<std::size_t> drift_runs(fleet, 0);
  std::size_t next_drift = 0, next_recurring = 0, news = 0;
  double t = 0.0;
  for (std::size_t block = 0;; ++block) {
    std::vector<Kind> kinds = {Kind::kNew,       Kind::kFollowUp,  Kind::kDrift,
                               Kind::kDrift,     Kind::kRecurring, Kind::kRecurring,
                               Kind::kRecurring, Kind::kRecurring, Kind::kRecurring,
                               Kind::kRecurring};
    rng.shuffle(kinds);
    for (Kind kind : kinds) {
      t += rng.exponential(kOfferedRate);
      if (t >= window_s) {
        *new_tenants = news;
        return out;
      }
      Request r;
      r.due_s = t;
      r.kind = kind;
      if (kind == Kind::kFollowUp && block == 0) {  // no earlier first-time tenant yet
        r.kind = Kind::kRecurring;
      }
      switch (r.kind) {
        case Kind::kNew:
          r.tenant = fleet + news++;
          break;
        case Kind::kFollowUp:
          r.tenant = fleet + block - 1;
          break;
        case Kind::kDrift: {
          const std::size_t d = drifting[next_drift++ % drifting.size()];
          r.tenant = d;
          r.scale = std::pow(1.1, static_cast<double>(drift_runs[d]++ % 8));
          break;
        }
        case Kind::kRecurring:
          r.tenant = recurring[next_recurring++ % recurring.size()];
          break;
      }
      out.push_back(r);
    }
  }
}

}  // namespace

RunResult run_serve_onboarding(const RunArgs& args) {
  RunResult out;
  Instruments ins;
  const double window_s = args.seconds;
  std::unique_ptr<svc::TuningService> service;
  std::vector<Tenant> tenants;  // the recurring fleet, then the first-time tenants
  std::vector<int> fleet_handles;
  std::vector<Request> schedule;
  std::vector<double> setups;
  for (int rep = 0; rep < kServeSetupRepeats; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<svc::TuningService>(serve_options(out, true));
    tenants = make_tenants(kFleet, 0, "tenant", ins);
    fleet_handles = warm_fleet(*service, tenants, out);
    std::size_t news = 0;
    schedule = make_schedule(args.seed, window_s, kFleet, &news);
    auto fresh = make_tenants(news, args.seed, "new", ins);
    for (auto& t : fresh) tenants.push_back(std::move(t));
    setups.push_back(seconds_since(t0));
  }
  out.notes.push_back("open loop: Poisson arrivals at " +
                      std::to_string(static_cast<int>(kOfferedRate)) + " req/s from " +
                      std::to_string(kOnboardingClients) +
                      " client threads; per 10 requests: 1 first-time tenant, 1 second run of a "
                      "first-time tenant, 2 drifting tenants, 6 recurring; " +
                      std::to_string(kFleet) + " recurring tenants, half drifting");

  std::vector<std::atomic<int>> handles(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    handles[i].store(i < fleet_handles.size() ? fleet_handles[i] : kNotSubmitted);
  }
  const HealthTotals before = health_totals(*service);
  const auto cache_before = service->eval_cache_stats();
  const std::uint64_t plans_before = ins.plans.load();
  std::vector<std::vector<OpRecord>> per_thread(kOnboardingClients);
  std::atomic<std::size_t> next{0};
  const auto t_start = Clock::now();
  on_client_threads(kOnboardingClients, [&](std::size_t k) {
    // Wake on the due time, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<OpRecord>& mine = per_thread[k];
    mine.reserve(schedule.size() / kOnboardingClients + 64);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) break;
      const Request& rq = schedule[i];
      const auto due = t_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(rq.due_s));
      std::this_thread::sleep_until(due);
      OpRecord op;
      op.seq = i;
      op.start_s = rq.due_s;
      op.late_us = std::chrono::duration<double>(Clock::now() - due).count() * 1e6;
      op.traced = traced_slice(args.trace, rq.due_s);
      const Tenant& t = tenants[rq.tenant];
      svc::ServeRequest req;
      req.arrival_s = rq.due_s;
      if (rq.scale > 0.0) {
        req.input_bytes = static_cast<Bytes>(rq.scale * static_cast<double>(t.base_bytes));
      }
      ins.tracer.begin_request(i + 1, op.traced);
      svc::ServeResult r;
      bool threw = false;
      try {
        const ScopedSpan span(&ins.tracer, "client.request");
        int h = handles[rq.tenant].load(std::memory_order_acquire);
        if (rq.kind == Kind::kNew) {
          const ScopedSpan submit(&ins.tracer, "service.submit");
          h = service->submit(t.name, t.workload, t.base_bytes);
          handles[rq.tenant].store(h, std::memory_order_release);
        }
        while (h == kNotSubmitted) {  // second run queued before its first run submitted
          std::this_thread::yield();
          h = handles[rq.tenant].load(std::memory_order_acquire);
        }
        if (h == kSubmitFailed) throw std::runtime_error("first run of " + t.name + " failed");
        const ScopedSpan span_serve(&ins.tracer, "service.serve");
        r = service->serve(h, req);
      } catch (const std::exception&) {
        threw = true;  // counted as a failed op
        if (rq.kind == Kind::kNew && handles[rq.tenant].load() == kNotSubmitted) {
          handles[rq.tenant].store(kSubmitFailed, std::memory_order_release);
        }
      }
      ins.tracer.end_request();
      const auto end = Clock::now();
      op.latency_us = std::chrono::duration<double>(end - due).count() * 1e6;
      op.service_us = op.latency_us - op.late_us;
      op.outcome = r.outcome;
      op.ok = !threw && check_answer(r, t, out);
      op.job_s = r.report.runtime;
      mine.push_back(op);
    }
  });
  std::vector<OpRecord> ops;
  for (auto& v : per_thread) ops.insert(ops.end(), v.begin(), v.end());

  out.add("setup_s", summarize(setups).p50, "s",
          "median of " + std::to_string(kServeSetupRepeats) +
              " set-ups: submit, tune every tenant, one serve pass, schedule");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB", "process high-water RSS at the window's end");
  report_serve(ops, window_s, /*open_loop=*/true, kAllOps, *service, before, cache_before,
               ins.plans.load() - plans_before, args.trace, out);
  if (args.trace && !args.trace_out.empty()) write_spans(ins.tracer.collect(), args.trace_out);
  return out;
}

}  // namespace stackbench
