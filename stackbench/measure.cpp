#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace stackbench {

namespace {

constexpr double kLadder[] = {90.0, 99.0, 99.9, 99.99};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Nearest-rank index of percentile `pct` in n sorted samples.
std::size_t rank_index(double pct, std::size_t n) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n));
  return static_cast<std::size_t>(std::max(1.0, r)) - 1;
}

}  // namespace

bool Summary::supports(double pct) const {
  return n > 0 && rank_index(pct, n) + 10 < n;
}

double Summary::at(double pct) const {
  return supports(pct) ? sorted[rank_index(pct, n)] : NAN;
}

std::string Summary::describe(const char* unit) const {
  char buf[160];
  if (tail_pct > 0.0) {
    std::snprintf(buf, sizeof buf, "p50 %.1f / p%g %.1f %s (n=%zu)", p50, tail_pct, tail, unit,
                  n);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.1f %s (n=%zu, no tail percentile)", p50, unit, n);
  }
  return buf;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::sort(samples.begin(), samples.end());
  s.sorted = std::move(samples);
  s.p50 = s.sorted[rank_index(50.0, s.n)];
  double sum = 0.0;
  for (const double v : s.sorted) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  for (const double pct : kLadder) {
    if (!s.supports(pct)) break;
    s.tail_pct = pct;
    s.tail = s.sorted[rank_index(pct, s.n)];
  }
  return s;
}

std::string SliceFigures::describe() const {
  std::string s =
      "trimmed mean over " + std::to_string(slices) + " slices, n>=" + std::to_string(min_ops);
  if (!p99_supported) s += " (p99 unsupported in a slice: its highest supported percentile used)";
  return s;
}

namespace {

// Mean without the lowest and the highest value (with five or more).
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 5 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

}  // namespace

SliceFigures slice_figures(const std::vector<TimedOp>& ops, double window_s, double slice_s) {
  // Ops a slice should hold on average, so that an uneven split still
  // leaves each slice ten samples beyond its p99 (1001 needed).
  constexpr std::size_t kOpsPerSlice = 2000;
  SliceFigures m;
  const auto by_time = static_cast<std::size_t>(std::max(1.0, std::round(window_s / slice_s)));
  m.slices = std::clamp<std::size_t>(ops.size() / kOpsPerSlice, 1, by_time);
  const double len = window_s / static_cast<double>(m.slices);
  std::vector<std::vector<double>> per(m.slices);
  for (const TimedOp& op : ops) {
    const auto k = static_cast<std::size_t>(std::max(0.0, op.start_s / len));
    per[std::min(k, m.slices - 1)].push_back(op.us);
  }
  std::vector<double> rate, p50, p99;
  m.min_ops = ops.size();
  m.p99_supported = true;
  for (auto& v : per) {
    m.min_ops = std::min(m.min_ops, v.size());
    rate.push_back(static_cast<double>(v.size()) / len);
    const Summary s = summarize(std::move(v));
    p50.push_back(s.p50);
    m.p99_supported = m.p99_supported && s.supports(99.0);
    p99.push_back(s.supports(99.0) ? s.at(99.0) : s.tail);
  }
  m.ops_per_s = trimmed_mean(std::move(rate));
  m.p50_us = trimmed_mean(std::move(p50));
  m.p99_us = trimmed_mean(std::move(p99));
  return m;
}

// -- Tracer ------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_tracer_generation{1};
}  // namespace

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1, std::memory_order_relaxed)),
      origin_ns_(now_ns()) {}

Tracer::Buffer& Tracer::local() const {
  // One buffer per (thread, tracer); keyed by generation, not address, so a
  // later tracer at a reused address never sees a stale buffer.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != generation_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    owner = generation_;
  }
  return *buffer;
}

void Tracer::begin_request(std::uint64_t request, bool traced) {
  Buffer& b = local();
  b.active = traced;
  b.request = request;
  b.stack.clear();
}

void Tracer::end_request() { local().active = false; }

long Tracer::open(const char* name) {
  Buffer& b = local();
  if (!b.active) return -1;
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = b.stack.empty() ? 0 : b.spans[static_cast<std::size_t>(b.stack.back())].id;
  s.request = b.request;
  s.start_ns = now_ns() - origin_ns_;
  b.spans.push_back(s);
  const long index = static_cast<long>(b.spans.size() - 1);
  b.stack.push_back(index);
  return index;
}

void Tracer::close(long index) {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index)].end_ns = now_ns() - origin_ns_;
  if (!b.stack.empty() && b.stack.back() == index) b.stack.pop_back();
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

std::vector<std::pair<std::string, SpanStats>> span_stats(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;  // parent id -> children total
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanStats> by_name;
  for (const Span& s : spans) {
    SpanStats& st = by_name[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
    st.duration_us.push_back(dur / 1e3);
    st.self_us.push_back((dur - children) / 1e3);
  }
  return {by_name.begin(), by_name.end()};
}

const SpanStats* find_stats(const std::vector<std::pair<std::string, SpanStats>>& stats,
                            const std::string& name) {
  for (const auto& [n, st] : stats) {
    if (n == name) return &st;
  }
  return nullptr;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "stackbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "name,id,parent,request,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

// -- decorators ------------------------------------------------------------------

stune::dag::LogicalPlan CountingWorkload::logical(const stune::config::SparkConf* conf) const {
  const ScopedSpan span(tracer_, "workload.logical");
  plans_->fetch_add(1, std::memory_order_relaxed);
  return inner_->logical(conf);
}

void TimingTuner::begin(std::shared_ptr<const stune::config::ConfigSpace> space,
                        const stune::tuning::TuneOptions& options) {
  const ScopedSpan span(tracer_, "tuning.begin");
  inner_->begin(std::move(space), options);
}

std::vector<stune::config::Configuration> TimingTuner::suggest(std::size_t max_batch) {
  round_start_ = Clock::now();
  const ScopedSpan span(tracer_, "tuning.suggest");
  return inner_->suggest(max_batch);
}

void TimingTuner::observe(const std::vector<stune::tuning::Observation>& trials) {
  {
    const ScopedSpan span(tracer_, "tuning.observe");
    inner_->observe(trials);
  }
  rounds_->push_back({std::chrono::duration<double>(round_start_.time_since_epoch()).count(),
                      seconds_since(round_start_) * 1e6});
}

// -- results -----------------------------------------------------------------------

void RunResult::error(std::string what) {
  // Client threads report failed checks concurrently.
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  if (errors.size() < 20) errors.push_back(std::move(what));
  if (errors.size() == 20) errors.push_back("(further errors suppressed)");
}

void RunResult::add(const std::string& name, double value, const char* unit, std::string note) {
  end_to_end.push_back({name, value, unit, std::move(note)});
}

void RunResult::add_detail(const std::string& name, double value, const char* unit,
                           std::string note) {
  detail.push_back({name, value, unit, std::move(note)});
}

void RunResult::layer(const std::string& name, double value, std::string note) {
  layers.push_back({name, value, "", std::move(note)});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace stackbench
