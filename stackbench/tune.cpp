// tune_session: a fixed sequence of bayesopt sessions over a few (workload,
// input size) cells, assembled from the public calls TuningService's
// tune_disc path makes: an incumbent probe, a retrieval-snapshot query,
// indexed_donors + select_warm_start, then TrialExecutor::run with
// workload::execute through an EvalCache and a TrialContext. A CommitHook
// appends every trial to a SharedKnowledgeBase, so later sessions warm-start
// from earlier ones. The surrogate dominates here; the serve layers idle.
//
// Also the budget-heavy reference search (`reference` sub-command) and the
// benchmark's self-test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "config/spark_space.hpp"
#include "disc/engine.hpp"
#include "disc/trial_context.hpp"
#include "service/cloud_tuner.hpp"
#include "service/shared_kb.hpp"
#include "service/tuning_service.hpp"
#include "simcore/rng.hpp"
#include "simcore/units.hpp"
#include "transfer/characterization.hpp"
#include "transfer/warm_start.hpp"
#include "tuning/trial_executor.hpp"
#include "tuning/tuner.hpp"
#include "workload/eval_cache.hpp"
#include "workload/execute.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace stackbench {
namespace {

namespace svc = stune::service;
using stune::simcore::bits_equal;
using stune::simcore::hash_combine;
using stune::tuning::Observation;

struct Cell {
  const char* workload;
  double gib;
};
/// One iterative, one shuffle-bound, one SQL and one compute-bound job.
constexpr Cell kCells[] = {{"pagerank", 4.0}, {"terasort", 8.0}, {"join", 4.0}, {"kmeans", 2.0}};
constexpr std::size_t kCellCount = std::size(kCells);
/// "Good" means within this factor of the cell's reference best.
constexpr double kGoodFactor = 1.05;
/// Independent chains of sessions, each with its own knowledge base, caches
/// and seed, taken in turn. Within a chain every session warm-starts from
/// the chain's earlier ones, so a chain that finds a near-best configuration
/// early keeps it for the rest of the run. Over ten seeds the spread of
/// job_s_mean fell from 0.044 with one chain to 0.013 with four.
constexpr std::size_t kChains = 4;
/// peak_rss_mb, job_s_mean and slo_frac cover this many first timed
/// sessions (16 per cell and chain), a fixed amount of work: sessions are a
/// deterministic function of the seed, and later ones warm-start from a
/// larger knowledge base, so a figure over every session the window holds
/// would depend on host speed. At the slowest rate seen on the 4-vCPU
/// reference box (about 25 sessions per second) it is reached in under 11 s.
constexpr std::size_t kCheckpointSessions = 256;

/// The engine context TuningService::execute builds for a tuning trial of
/// a tenant on the default cluster, from the service defaults.
stune::disc::SparkSimulator tuning_simulator() {
  const svc::ServiceOptions d;
  stune::disc::EngineOptions e;
  e.cost = d.cost_model;
  e.contention = d.contention;
  e.seed = hash_combine(d.seed, /*seed_salt=*/0);
  return stune::disc::SparkSimulator(stune::cluster::Cluster::from_spec(d.default_cluster), e);
}

/// What every session of one run shares.
struct Stack {
  explicit Stack(Tracer* t) : tracer(t), kb(svc::ServiceOptions{}.knowledge) {
    for (const Cell& c : kCells) {
      workloads.push_back(std::make_shared<CountingWorkload>(
          stune::workload::make_workload(c.workload), &plans, tracer));
    }
  }
  Tracer* tracer;
  std::atomic<std::uint64_t> plans{0};
  std::vector<std::shared_ptr<const stune::workload::Workload>> workloads;
  const stune::disc::SparkSimulator sim = tuning_simulator();
  svc::SharedKnowledgeBase kb;
  stune::workload::EvalCache cache;
  stune::disc::TrialContext ctx;
  stune::tuning::TrialExecutor executor{stune::tuning::ExecutorOptions{.jobs = 1}};
  std::uint64_t executions = 0;

  stune::disc::ExecutionReport execute(std::size_t cell, const stune::config::Configuration& c) {
    const ScopedSpan span(tracer, "workload.execute");
    ++executions;
    return stune::workload::execute(*workloads[cell], stune::simcore::gib(kCells[cell].gib), sim,
                                    c, cache, ctx);
  }

  void append(std::size_t cell, const stune::config::Configuration& c,
              const stune::disc::ExecutionReport& report, std::uint64_t session) {
    svc::ExecutionRecord r;
    r.tenant = "session-" + std::to_string(session);
    r.workload_label = kCells[cell].workload;
    r.cluster = svc::ServiceOptions{}.default_cluster;
    r.config = c;
    r.input_bytes = stune::simcore::gib(kCells[cell].gib);
    r.runtime = report.runtime;
    r.cost = report.cost;
    r.failed = !report.success;
    r.from_tuning = true;
    r.signature = stune::transfer::characterize(report);
    const ScopedSpan span(tracer, "service.kb.append");
    kb.record_execution(std::move(r));
  }
};

struct SessionResult {
  std::size_t cell = 0;
  std::vector<Observation> history;
  double best = std::numeric_limits<double>::infinity();
  double wall_s = 0.0;
  std::size_t to_good_trials = 0;  // budget + 1 when never good
  double to_good_s = 0.0;          // wall seconds; the session's wall time when never good
  bool good = false;
  bool warm = false;               // the session had a warm start
  double first_trial_runtime = 0.0;
};

/// One session of the service's tune_disc path on `cell`. `ordinal` seeds
/// the tuner and names the session; `reference` defines "good".
SessionResult run_session(Stack& st, std::size_t cell, std::uint64_t ordinal, std::uint64_t seed,
                          double reference, bool traced, std::vector<TimedOp>* rounds) {
  const svc::ServiceOptions defaults;
  SessionResult res;
  res.cell = cell;
  if (st.tracer != nullptr) st.tracer->begin_request(ordinal + 1, traced);
  const auto t0 = Clock::now();
  {
    const ScopedSpan session_span(st.tracer, "tune.session");
    const auto space = stune::config::spark_space();
    const auto incumbent = svc::provider_auto_config(st.sim.cluster());
    const auto probe = st.execute(cell, incumbent);
    st.append(cell, incumbent, probe, ordinal);
    const auto signature = stune::transfer::characterize(probe);
    if (probe.success) res.best = probe.runtime;

    stune::tuning::TuneOptions topts;
    topts.budget = defaults.tuning_budget;
    topts.retry = defaults.retry;
    topts.seed = hash_combine(seed, ordinal);
    if (probe.success) {
      topts.failure_penalty_floor = std::max(topts.failure_penalty_floor, probe.runtime);
    }

    {
      // The query serve() makes before tuning an untuned tenant.
      const ScopedSpan span(st.tracer, "service.retrieval.query");
      const auto snap = st.kb.retrieval_snapshot();
      if (snap->size() > 0) {
        svc::RetrievalQuery q;
        q.signature = signature;
        q.input_bytes = stune::simcore::gib(kCells[cell].gib);
        q.size_tolerance = defaults.retrieval.size_tolerance;
        q.min_similarity = defaults.retrieval.min_similarity;
        svc::RetrievalHit hits[svc::RetrievalSnapshot::kMaxK];
        snap->query(q, defaults.retrieval.top_k, hits);
      }
    }
    std::vector<stune::transfer::DonorObservation> donors;
    {
      const ScopedSpan span(st.tracer, "service.kb.donors");
      donors = st.kb.indexed_donors();
    }
    if (!donors.empty()) {
      const ScopedSpan span(st.tracer, "transfer.warm_start");
      topts.warm_start = stune::transfer::select_warm_start(signature, donors, defaults.transfer);
    }
    res.warm = !topts.warm_start.empty();

    // jobs = 1: trials run on this thread in suggestion order, so the
    // objective's reports line up with the commit hook's observations.
    std::deque<stune::disc::ExecutionReport> pending;
    const stune::tuning::TrialObjective objective = [&](const stune::config::Configuration& c,
                                                        int) {
      pending.push_back(st.execute(cell, c));
      const auto& report = pending.back();
      stune::tuning::EvalOutcome out{report.runtime, !report.success};
      out.fault = report.success ? stune::tuning::FaultClass::kNone
                                 : stune::tuning::FaultClass::kConfig;
      return out;
    };
    const stune::tuning::TrialExecutor::CommitHook hook = [&](const Observation& o) {
      st.append(cell, o.config, pending.front(), ordinal);
      pending.pop_front();
      res.history.push_back(o);
      if (res.history.size() == 1) res.first_trial_runtime = o.runtime;
      if (!o.failed) res.best = std::min(res.best, o.runtime);
      if (!res.good && res.best <= kGoodFactor * reference) {
        res.good = true;
        res.to_good_trials = res.history.size();
        res.to_good_s = seconds_since(t0);
      }
    };
    TimingTuner tuner(stune::tuning::make_tuner(defaults.tuner), st.tracer, rounds);
    const ScopedSpan span(st.tracer, "tuning.executor.run");
    st.executor.run(tuner, space, objective, topts, hook);
  }
  if (st.tracer != nullptr) st.tracer->end_request();
  res.wall_s = seconds_since(t0);
  if (!res.good) {
    res.to_good_trials = defaults.tuning_budget + 1;
    res.to_good_s = res.wall_s;
  }
  return res;
}

std::vector<double> read_references(const std::string& path, RunResult& out) {
  std::vector<double> refs(kCellCount, 0.0);
  std::ifstream in(path);
  if (!in) {
    out.error("cannot read reference file " + path);
    return refs;
  }
  std::string line;
  std::size_t found = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::size_t cell = 0;
    std::string workload;
    double gib = 0.0, best = 0.0;
    if (!(ls >> cell >> workload >> gib >> best) || cell >= kCellCount ||
        workload != kCells[cell].workload || gib != kCells[cell].gib || !(best > 0.0)) {
      out.error("malformed or mismatched reference line: " + line);
      continue;
    }
    refs[cell] = best;
    ++found;
  }
  if (found != kCellCount) out.error("reference file does not cover every cell");
  return refs;
}

bool same_history(const std::vector<Observation>& a, const std::vector<Observation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.config.values().size() != y.config.values().size()) return false;
    for (std::size_t j = 0; j < x.config.values().size(); ++j) {
      if (!bits_equal(x.config.values()[j], y.config.values()[j])) return false;
    }
    if (!bits_equal(x.runtime, y.runtime) || !bits_equal(x.objective, y.objective) ||
        x.failed != y.failed || x.fault != y.fault || x.attempts != y.attempts ||
        !bits_equal(x.backoff_seconds, y.backoff_seconds)) {
      return false;
    }
  }
  return true;
}

/// Layer counters summed over the chains.
struct ChainTotals {
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t outcome_hits = 0, outcome_misses = 0, draw_hits = 0, draw_misses = 0;
  std::uint64_t plans = 0, executions = 0;
  std::size_t kb_records = 0, retrieval_entries = 0;
};

ChainTotals chain_totals(const std::vector<std::unique_ptr<Stack>>& chains) {
  ChainTotals t;
  for (const auto& st : chains) {
    const auto cache = st->cache.stats();
    t.cache_hits += cache.hits;
    t.cache_misses += cache.misses;
    t.outcome_hits += st->ctx.outcome_hits();
    t.outcome_misses += st->ctx.outcome_misses();
    t.draw_hits += st->ctx.draw_hits();
    t.draw_misses += st->ctx.draw_misses();
    t.plans += st->plans.load();
    t.executions += st->executions;
    t.kb_records += st->kb.total_records();
    t.retrieval_entries += st->kb.retrieval_snapshot()->size();
  }
  return t;
}

}  // namespace

RunResult run_tune_session(const RunArgs& args) {
  RunResult out;
  Tracer tracer;
  std::vector<std::unique_ptr<Stack>> chains;
  std::vector<double> refs;
  std::vector<SessionResult> warm;  // chain 0's warm pass
  std::vector<double> setups;
  std::vector<TimedOp> scratch_rounds;
  const auto chain_seed = [&](std::size_t chain) { return hash_combine(args.seed, chain); };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    chains.clear();
    warm.clear();
    const auto t0 = Clock::now();
    refs = read_references(args.reference_path, out);
    // Warm pass: one session per cell and chain, so the timed sessions
    // warm-start from a populated knowledge base.
    for (std::size_t k = 0; k < kChains; ++k) {
      chains.push_back(std::make_unique<Stack>(&tracer));
      for (std::size_t c = 0; c < kCellCount; ++c) {
        auto r = run_session(*chains[k], c, c, chain_seed(k), refs[c], false, &scratch_rounds);
        if (k == 0) warm.push_back(std::move(r));
      }
    }
    setups.push_back(seconds_since(t0));
  }
  if (!out.errors.empty()) return out;
  out.notes.push_back("one thread; bayesopt, budget " +
                      std::to_string(svc::ServiceOptions{}.tuning_budget) +
                      ", jobs=1; cells pagerank/4GiB terasort/8GiB join/4GiB kmeans/2GiB in turn, "
                      "sessions taken in turn from " + std::to_string(kChains) +
                      " independent knowledge-base chains; ServiceOptions defaults throughout");

  const ChainTotals before = chain_totals(chains);
  const double window_s = args.seconds;
  std::vector<SessionResult> sessions;
  std::vector<bool> traced;
  std::vector<TimedOp> rounds, rounds_traced;
  double rss_mb = 0.0;
  const auto t_start = Clock::now();
  for (std::size_t i = 0; seconds_since(t_start) < window_s; ++i) {
    const std::size_t chain = i % kChains;
    const std::uint64_t ordinal = kCellCount + i / kChains;  // within the chain
    const std::size_t cell = ordinal % kCellCount;
    // Traced runs trace every other round of cells, so both halves hold
    // every cell equally.
    const bool tr = args.trace && (ordinal / kCellCount) % 2 == 1;
    sessions.push_back(run_session(*chains[chain], cell, ordinal, chain_seed(chain), refs[cell],
                                   tr, tr ? &rounds_traced : &rounds));
    traced.push_back(tr);
    if (sessions.size() == kCheckpointSessions) rss_mb = peak_rss_mb();
  }
  if (sessions.size() < kCheckpointSessions) {
    rss_mb = peak_rss_mb();
    out.notes.push_back("the window ended before session " + std::to_string(kCheckpointSessions) +
                        ": job_s_mean, slo_frac and peak_rss_mb cover " +
                        std::to_string(sessions.size()) + " sessions");
  }
  const double wall_s = seconds_since(t_start);

  // -- output checks -------------------------------------------------------
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionResult& s = sessions[i];
    if (s.history.size() != svc::ServiceOptions{}.tuning_budget) {
      out.error("timed session " + std::to_string(i) + " ran " +
                std::to_string(s.history.size()) + " trials");
    }
    if (s.best < refs[s.cell]) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "timed session %zu on %s beat the stored reference best (%.17g < %.17g): "
                    "the reference is stale, regenerate it with `run.py reference`",
                    i, kCells[s.cell].workload, s.best, refs[s.cell]);
      out.error(buf);
    }
  }
  {
    // Same seed, fresh state: chain 0's warm pass and first timed session
    // must reproduce their trial histories bitwise.
    Stack replay(nullptr);
    std::vector<TimedOp> ignore;
    for (std::size_t ord = 0; ord <= kCellCount; ++ord) {
      const std::size_t cell = ord % kCellCount;
      const auto again =
          run_session(replay, cell, ord, chain_seed(0), refs[cell], false, &ignore);
      const auto& first = ord < kCellCount ? warm[ord] : sessions.front();
      if (!same_history(first.history, again.history)) {
        out.error("session " + std::to_string(ord) + " on " + kCells[cell].workload +
                  " did not reproduce its trial history with the same seed");
      }
    }
  }

  // -- metrics --------------------------------------------------------------
  std::vector<double> wall, to_good_trials, to_good_s, ratio, best;
  std::vector<double> wall_tr;
  std::size_t good = 0, trials = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& s = sessions[i];
    (traced[i] ? wall_tr : wall).push_back(s.wall_s);
    to_good_trials.push_back(static_cast<double>(s.to_good_trials));
    to_good_s.push_back(s.to_good_s);
    ratio.push_back(s.best / refs[s.cell]);
    best.push_back(s.best);
    good += s.good ? 1 : 0;
    trials += s.history.size();
  }
  out.attempted = sessions.size();
  out.failed = 0;
  for (const auto& s : sessions) out.failed += std::isfinite(s.best) ? 0 : 1;
  const double origin_s = std::chrono::duration<double>(t_start.time_since_epoch()).count();
  for (TimedOp& r : rounds) r.start_s -= origin_s;
  const SliceFigures sm = slice_figures(rounds, window_s, kSliceS);
  // Quality over the first kCheckpointSessions sessions.
  const std::size_t early = std::min(sessions.size(), kCheckpointSessions);
  double best_sum = 0.0, attainment = 0.0;
  for (std::size_t i = 0; i < early; ++i) {
    best_sum += best[i];
    attainment += 1.0 / ratio[i];
  }
  const auto n = static_cast<double>(sessions.size());
  const std::string over = "over the first " + std::to_string(early) + " sessions";

  out.add("setup_s", summarize(setups).p50, "s",
          "median of " + std::to_string(kSetupRepeats) +
              " set-ups: reference load + one warm session per cell and chain");
  out.add("peak_rss_mb", rss_mb, "MiB",
          "process high-water RSS after the first " + std::to_string(early) + " sessions");
  out.add("ops_per_s", sm.ops_per_s, "1/s", sm.describe() + ", tuner ask/tell rounds per second");
  out.add("p50_us", sm.p50_us, "us", sm.describe() + ", per round: suggest + trials + observe");
  out.add("p99_us", sm.p99_us, "us", sm.describe() + ", per round");
  out.add("job_s_mean", best_sum / static_cast<double>(early), "sim-s",
          "mean best runtime at budget " + over);
  out.add("slo_frac", attainment / static_cast<double>(early), "ratio",
          "mean of reference best / best at budget " + over);

  const Summary w = summarize(wall);
  out.add_detail("tune_session_s_p50", w.p50, "s", "n=" + std::to_string(w.n));
  out.add_detail("tune_to_good_trials_p50", summarize(to_good_trials).p50, "trials",
                 "budget+1 when never good, n=" + std::to_string(sessions.size()));
  out.add_detail("tune_to_good_s_p50", summarize(to_good_s).p50, "s");
  out.add_detail("tune_best_ratio_p50", summarize(ratio).p50, "ratio",
                 "best at budget / reference");
  out.add_detail("tune_good_frac", static_cast<double>(good) / n, "ratio",
                 "sessions within 5% of the reference best by budget");
  out.add_detail("trials_per_s", static_cast<double>(trials) / wall_s, "1/s");
  out.add_detail("rounds_per_slice_min", static_cast<double>(sm.min_ops), "count",
                 "fewest ask/tell rounds in a slice; p99 needs 1001");

  if (args.trace) {
    const auto spans = tracer.collect();
    const auto stats = span_stats(spans);
    const auto dur = [&](const char* name) {
      const SpanStats* s = find_stats(stats, name);
      return summarize(s != nullptr ? s->duration_us : std::vector<double>{});
    };
    const std::size_t traced_sessions = wall_tr.size();
    const auto per_session = [&](std::size_t count) {
      return traced_sessions > 0 ? static_cast<double>(count) / static_cast<double>(traced_sessions)
                                 : 0.0;
    };
    const Summary append = dur("service.kb.append");
    out.layer("service.kb.append.p50_us", append.p50, "n=" + std::to_string(append.n));
    out.layer("service.kb.append.p99_us", append.at(99.0), "n=" + std::to_string(append.n));
    const Summary query = dur("service.retrieval.query");
    out.layer("service.retrieval.query.p50_us", query.p50, "n=" + std::to_string(query.n));
    const ChainTotals after = chain_totals(chains);
    out.layer("service.retrieval.entries", static_cast<double>(after.retrieval_entries),
              "at window end, summed over chains");
    out.layer("service.kb.records", static_cast<double>(after.kb_records),
              "at window end, summed over chains");
    const Summary ws = dur("transfer.warm_start");
    out.layer("transfer.warm_start.p50_us", ws.p50, "n=" + std::to_string(ws.n));
    std::vector<double> donor_ratio;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i].warm) {
        donor_ratio.push_back(sessions[i].first_trial_runtime / refs[sessions[i].cell]);
      }
    }
    out.layer("transfer.donor.ratio_p50", summarize(donor_ratio).p50,
              "first trial (the best warm start) / reference, n=" +
                  std::to_string(donor_ratio.size()));
    const Summary ex = dur("workload.execute");
    const double c_hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double c_all = c_hits + static_cast<double>(after.cache_misses - before.cache_misses);
    out.layer("workload.plans_per_op",
              static_cast<double>(after.plans - before.plans) /
                  static_cast<double>(std::max<std::uint64_t>(1, after.executions -
                                                                     before.executions)),
              "Workload::logical() calls per workload::execute()");
    out.layer("workload.eval_cache.hit_frac", frac(c_hits, c_all),
              "n=" + std::to_string(static_cast<long long>(c_all)));
    out.layer("workload.execute.p50_us", ex.p50, "n=" + std::to_string(ex.n));
    out.layer("workload.execute.p99_us", ex.at(99.0), "n=" + std::to_string(ex.n));
    out.layer("workload.execute.count", per_session(ex.n), "per traced session");
    const auto hit_frac = [](std::uint64_t hits, std::uint64_t misses) {
      return frac(static_cast<double>(hits), static_cast<double>(hits + misses));
    };
    out.layer("disc.ctx.outcome_hit_frac",
              hit_frac(after.outcome_hits - before.outcome_hits,
                       after.outcome_misses - before.outcome_misses),
              "TrialContext stage-outcome cache");
    out.layer("disc.ctx.draw_hit_frac",
              hit_frac(after.draw_hits - before.draw_hits, after.draw_misses - before.draw_misses),
              "TrialContext draw cache");
    const Summary sg = dur("tuning.suggest");
    out.layer("tuning.suggest.p50_us", sg.p50, "n=" + std::to_string(sg.n));
    out.layer("tuning.suggest.p99_us", sg.at(99.0), "n=" + std::to_string(sg.n));
    out.layer("tuning.suggest.count", per_session(sg.n), "per traced session");
    out.layer("tuning.observe.p50_us", dur("tuning.observe").p50);
    const SpanStats* run = find_stats(stats, "tuning.executor.run");
    std::vector<double> self_ms;
    if (run != nullptr) {
      for (const double us : run->self_us) self_ms.push_back(us / 1e3);
    }
    out.layer("tuning.executor.self_ms", summarize(self_ms).p50,
              "per session: executor span minus its child spans, n=" +
                  std::to_string(self_ms.size()));
    const Summary wt = summarize(wall_tr);
    out.layer("trace.overhead_frac", w.mean > 0.0 ? frac(wt.mean, w.mean) - 1.0 : 0.0,
              "mean session wall time traced over untraced, minus 1 (" +
                  std::to_string(wt.n) + " vs " + std::to_string(w.n) + " sessions)");
    if (!args.trace_out.empty()) write_spans(spans, args.trace_out);
  }
  return out;
}

// -- reference search -----------------------------------------------------------

namespace {

/// Best successful runtime on `cell` found by a seeded, budget-heavy search:
/// uniform samples, a long bayesopt session, then coordinate sweeps and
/// shrinking random-neighbour descent from the incumbent. Deterministic in
/// (seed, cell).
double reference_search(std::size_t cell, std::uint64_t seed, std::size_t* evaluations) {
  Stack st(nullptr);
  const auto space = stune::config::spark_space();
  stune::simcore::Rng rng(hash_combine(seed, cell));
  stune::config::Configuration best;
  double best_rt = std::numeric_limits<double>::infinity();
  std::size_t evals = 0;
  const auto consider = [&](const stune::config::Configuration& c) {
    ++evals;
    const auto r = st.execute(cell, c);
    if (r.success && r.runtime < best_rt) {
      best_rt = r.runtime;
      best = c;
      return true;
    }
    return false;
  };
  consider(svc::provider_auto_config(st.sim.cluster()));
  for (int i = 0; i < 3000; ++i) consider(space->sample(rng));

  stune::tuning::TuneOptions topts;
  topts.budget = 120;
  topts.seed = hash_combine(seed, 0xB0ULL + cell);
  topts.warm_start.push_back({best, best_rt, false, best_rt});
  const stune::tuning::Objective objective = [&](const stune::config::Configuration& c) {
    const auto r = st.execute(cell, c);
    return stune::tuning::EvalOutcome{r.runtime, !r.success};
  };
  const auto bo = stune::tuning::make_tuner("bayesopt")->tune(space, objective, topts);
  evals += bo.history.size();
  for (const auto& o : bo.history) {
    if (!o.failed && o.runtime < best_rt) {
      best_rt = o.runtime;
      best = o.config;
    }
  }

  const auto sweep = [&]() {
    bool improved = false;
    for (std::size_t p = 0; p < space->size(); ++p) {
      for (int k = 0; k <= 16; ++k) {
        auto unit = space->to_unit(best);
        unit[p] = static_cast<double>(k) / 16.0;
        improved = consider(space->from_unit(unit)) || improved;
      }
    }
    return improved;
  };
  for (int round = 0; round < 6 && sweep(); ++round) {
  }
  for (int step = 0; step < 4000; ++step) {
    const double frac = 0.2 * std::pow(0.02, static_cast<double>(step) / 4000.0);
    const auto mutations = static_cast<std::size_t>(1 + step % 3);
    consider(space->neighbor(best, frac, mutations, rng));
  }
  for (int round = 0; round < 6 && sweep(); ++round) {
  }
  *evaluations = evals;
  return best_rt;
}

void print_reference_line(std::size_t cell, double best, std::size_t evals, std::uint64_t seed) {
  std::printf("%zu\t%s\t%g\t%.17g\t%zu\t%llu\n", cell, kCells[cell].workload, kCells[cell].gib,
              best, evals, static_cast<unsigned long long>(seed));
}

}  // namespace

int write_references(std::uint64_t seed) {
  std::printf("# cell\tworkload\tinput_gib\tbest_runtime_s\tevaluations\tseed\n");
  std::printf("# Reference bests of the tune_session cells, from `run.py reference`; see "
              "stackbench/README.md.\n");
  for (std::size_t c = 0; c < kCellCount; ++c) {
    std::size_t evals = 0;
    const double best = reference_search(c, seed, &evals);
    print_reference_line(c, best, evals, seed);
    std::fflush(stdout);
  }
  return 0;
}

int run_selftest(const std::string& reference_path) {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };

  // The percentile helper: nearest rank, and a tail percentile only with
  // at least ten samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  expect(s.n == 1000 && s.p50 == 500.0, "median of 1..1000 is 500 (nearest rank)");
  expect(s.supports(99.0) && s.at(99.0) == 990.0 && !s.supports(99.9),
         "p99 of 1..1000 is 990; p99.9 has too few samples beyond it");
  expect(s.tail_pct == 99.0 && s.tail == 990.0, "highest supported percentile of 1000 is p99");
  const Summary small = summarize({3.0, 1.0, 2.0});
  expect(small.p50 == 2.0 && small.tail_pct == 0.0, "three samples support only the median");
  expect(summarize(std::vector<double>(20, 7.0)).tail_pct == 0.0 &&
             summarize(std::vector<double>(101, 7.0)).tail_pct == 90.0,
         "p90 needs more than 100 samples");

  // One reference cell re-derived from its seed must match the stored one.
  RunResult scratch;
  const auto refs = read_references(reference_path, scratch);
  expect(scratch.errors.empty(), "reference file reads and covers every cell");
  std::ifstream in(reference_path);
  std::string line;
  std::uint64_t seed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string skip;
    for (int i = 0; i < 5; ++i) ls >> skip;
    ls >> seed;
    break;
  }
  std::size_t evals = 0;
  const std::size_t cell = kCellCount - 1;  // the cheapest cell
  const double again = reference_search(cell, seed, &evals);
  char what[160];
  std::snprintf(what, sizeof what, "reference cell %zu (%s) re-derived: %.17g vs stored %.17g",
                cell, kCells[cell].workload, again, refs[cell]);
  expect(bits_equal(again, refs[cell]), what);
  return failures;
}

}  // namespace stackbench
