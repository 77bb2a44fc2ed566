// Measurement plumbing shared by the stack benchmark's workloads: the one
// percentile helper, in-memory span tracing, the result every run fills,
// and the decorators that put spans around calls into the workload and
// tuning layers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tuning/tuner.hpp"
#include "workload/workload.hpp"

namespace stackbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num / den, or 0 when there is nothing to divide by.
inline double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- percentiles ---------------------------------------------------------------

/// Median plus the highest percentile of a fixed ladder (p90, p99, p99.9,
/// p99.99) that has at least ten samples beyond it. Nearest-rank, so every
/// reported value is a sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  // 0 when no ladder step is supported
  double tail = 0.0;
  double mean = 0.0;
  /// Value at percentile `pct` if at least ten samples lie beyond it.
  bool supports(double pct) const;
  double at(double pct) const;
  std::vector<double> sorted;
  /// "p50 12.3 / p99 45.6 us (n=1234)".
  std::string describe(const char* unit) const;
};

Summary summarize(std::vector<double> samples);

/// One timed op: when it started (seconds on the steady clock, or into the
/// timed window) and how long it took.
struct TimedOp {
  double start_s = 0.0;
  double us = 0.0;
};

/// Throughput and latency of a timed window from equal slices of about
/// `slice_s` seconds: each slice's rate, p50 and p99, then their mean over
/// the slices with the fastest and the slowest slice left out. On the
/// reference box the host switches between a fast and a slow phase every
/// few seconds; a median over slices jumps between the two, a mean moves
/// with the share of slow slices. `ops` start times are relative to the
/// window. Slices are made longer (fewer) when the window holds too few ops
/// for every slice to carry a p99; a slice that still lacks one contributes
/// its highest supported percentile, and `p99_supported` says so.
struct SliceFigures {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t slices = 0;
  std::size_t min_ops = 0;       // fewest ops in a slice
  bool p99_supported = false;    // every slice has ten samples beyond its p99
  /// "trimmed mean over 10 slices, n>=1234" (+ a warning when p99 is
  /// unsupported).
  std::string describe() const;
};
SliceFigures slice_figures(const std::vector<TimedOp>& ops, double window_s, double slice_s);

// -- tracing -------------------------------------------------------------------

/// One recorded span: a call into a layer, on one thread. `parent` is the
/// enclosing span on the same thread (0 at the root); spans of one request
/// or tuning session share `request`.
struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in per-thread buffers and merged when the run ends. Tracing
/// is switched per operation: an op begun untraced records nothing, so
/// traced and untraced ops of one run can be compared.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread; returns its index in the thread's
  /// buffer, or -1 when the thread's current op is untraced.
  long open(const char* name);
  void close(long index);
  /// Spans the calling thread opens until end_request() carry `request`,
  /// and are recorded only when `traced`.
  void begin_request(std::uint64_t request, bool traced);
  void end_request();

  /// All spans of all threads (call after every thread has finished).
  std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<long> stack;
    std::uint64_t request = 0;
    bool active = false;
  };
  Buffer& local() const;

  const std::uint64_t generation_;  // tells a thread's cached buffer apart
  const std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards buffers_
  mutable std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when `tracer` is null or the thread is not tracing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  long index_;
};

/// Per span name: every duration (us) and every self time (duration minus
/// the part its direct children cover, us).
struct SpanStats {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};
std::vector<std::pair<std::string, SpanStats>> span_stats(const std::vector<Span>& spans);
const SpanStats* find_stats(const std::vector<std::pair<std::string, SpanStats>>& stats,
                            const std::string& name);
/// Write spans as CSV (name,id,parent,request,start_ns,end_ns).
void write_spans(const std::vector<Span>& spans, const std::string& path);

// -- layer decorators ------------------------------------------------------------

/// Counts and traces Workload::logical(), the planner entry every execution
/// goes through; everything else forwards to the wrapped workload.
class CountingWorkload final : public stune::workload::Workload {
 public:
  CountingWorkload(std::shared_ptr<const stune::workload::Workload> inner,
                   std::atomic<std::uint64_t>* plans, Tracer* tracer)
      : inner_(std::move(inner)), plans_(plans), tracer_(tracer) {}
  std::string name() const override { return inner_->name(); }
  stune::dag::LogicalPlan logical(const stune::config::SparkConf* conf) const override;

 private:
  std::shared_ptr<const stune::workload::Workload> inner_;
  std::atomic<std::uint64_t>* plans_;
  Tracer* tracer_;
};

/// Traces suggest()/observe()/begin() of the wrapped tuner, and always
/// times each ask/tell round (suggest entry to observe exit) into `rounds`,
/// start times on the steady clock.
class TimingTuner final : public stune::tuning::Tuner {
 public:
  TimingTuner(std::unique_ptr<stune::tuning::Tuner> inner, Tracer* tracer,
              std::vector<TimedOp>* rounds)
      : inner_(std::move(inner)), tracer_(tracer), rounds_(rounds) {}
  std::string name() const override { return inner_->name(); }
  void begin(std::shared_ptr<const stune::config::ConfigSpace> space,
             const stune::tuning::TuneOptions& options) override;
  std::vector<stune::config::Configuration> suggest(std::size_t max_batch) override;
  void observe(const std::vector<stune::tuning::Observation>& trials) override;

 private:
  std::unique_ptr<stune::tuning::Tuner> inner_;
  Tracer* tracer_;
  std::vector<TimedOp>* rounds_;
  Clock::time_point round_start_{};
};

// -- results -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // how it was measured / sample count
};

/// A ServiceOptions value that differs from the service default.
struct OptionNote {
  std::string field;
  std::string value;
  std::string reason;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path = "stackbench/reference.tsv";
  std::string trace_out;  // span CSV path ("" = do not write)
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // output-check failures
  std::vector<Metric> end_to_end;   // the BENCHMARK.json metrics
  std::vector<Metric> detail;       // further end-to-end figures, not gated
  std::vector<Metric> layers;       // traced run only; units live in main.cpp's table
  std::vector<OptionNote> options;
  std::vector<std::string> notes;   // workload parameters, printed

  void error(std::string what);
  void add(const std::string& name, double value, const char* unit, std::string note = {});
  void add_detail(const std::string& name, double value, const char* unit, std::string note = {});
  void layer(const std::string& name, double value, std::string note = {});
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace stackbench
