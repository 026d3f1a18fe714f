#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/stats.h"
#include "util/strings.h"
#include "util/trace.h"

namespace sagebench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

void WriteFile(const std::string& path, const std::string& text) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "sagebench: cannot write %s\n", path.c_str());
  }
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sage::util::PercentileOfSorted(sorted, p);
}

size_t Samples::Beyond(double p) const {
  const size_t n = values_.size();
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"sim_meps", "Medge/s"},
      {"modeled_gteps", "GTEPS"},
      {"throughput", "ops/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

// Per-layer metrics with a time unit are measured on every workload; a
// layer's share of a workload's time is a fraction, which is 0 where the
// workload does not call that layer.
const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"graph.generate_s", "s"},
      {"core.create_ms", "ms"},
      {"core.run_ms.p50", "ms"},
      {"core.run_ms.p90", "ms"},
      {"core.host_ns_per_edge", "ns"},
      {"core.edges_traversed", "count"},
      {"core.iterations", "count"},
      {"core.frontier_nodes", "count"},
      {"core.tp_overhead_frac", "fraction"},
      {"reorder.rounds", "count"},
      {"reorder.modeled_frac", "fraction"},
      {"sim.gpu_seconds", "s"},
      {"sim.modeled_ms_per_op", "ms"},
      {"sim.kernels", "count"},
      {"sim.l2_hit_rate", "fraction"},
      {"sim.amplification", "ratio"},
      {"sim.device_sectors", "count"},
      {"sim.replay_slices", "count"},
      {"sim.arena_bytes_reused", "bytes"},
      {"sim.cache.hit_rate", "fraction"},
      {"sim.cache.evictions", "count"},
      {"sim.cache.prefill_bytes", "bytes"},
      {"sim.link.wire_bytes", "bytes"},
      {"sim.link.frames", "count"},
      {"sim.link.payload_ratio", "fraction"},
      {"sim.host_sectors", "count"},
      {"shard.create_frac", "fraction"},
      {"shard.comm_frac", "fraction"},
      {"shard.delta_over_dense", "fraction"},
      {"shard.imbalance", "ratio"},
      {"shard.edge_cut", "count"},
      {"serve.submit_frac", "fraction"},
      {"serve.queue_frac", "fraction"},
      {"serve.coalesce_frac", "fraction"},
      {"serve.run_frac", "fraction"},
      {"serve.batch_size_mean", "count"},
      {"serve.coalesced_frac", "fraction"},
      {"serve.engines_created", "count"},
      {"serve.pool_evictions", "count"},
      {"serve.registry_add_frac", "fraction"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.retries", "count"},
      {"self_frac.bench", "fraction"},
      {"self_frac.core", "fraction"},
      {"self_frac.shard", "fraction"},
      {"self_frac.serve", "fraction"},
      {"trace_overhead", "fraction"},
      {"verify_s", "s"},
  };
  return kSpecs;
}

namespace {

std::string UnitOf(const std::vector<MetricSpec>& specs,
                   const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return spec.unit;
  }
  return "";
}

}  // namespace

void Report::E2e(const std::string& name, double value,
                 const std::string& note) {
  end_to_end[name] = Metric{value, UnitOf(EndToEndMetrics(), name), note};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& note) {
  layer[name] = Metric{value, UnitOf(LayerMetrics(), name), note};
}

void Report::SelfFractions(const Tracer& tracer,
                           const std::vector<int64_t>& roots) {
  const std::map<std::string, double> self = tracer.LayerSelfSeconds(roots);
  double total = 0.0;
  for (const auto& [name, seconds] : self) total += seconds;
  for (const auto& [name, seconds] : self) {
    Layer("self_frac." + name, total > 0 ? seconds / total : 0.0);
  }
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t Tracer::Begin(const std::string& name, const std::string& layer,
                      uint32_t track, uint64_t request) {
  if (!enabled_) return -1;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  auto& stack = open_[track];
  Span span{name, layer, now, now, stack.empty() ? -1 : stack.back(), track,
            request};
  spans_.push_back(std::move(span));
  const auto id = static_cast<int64_t>(spans_.size() - 1);
  stack.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = now;
  auto& stack = open_[span.track];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

int64_t Tracer::Add(const std::string& name, const std::string& layer,
                    double start, double end, int64_t parent, uint32_t track,
                    uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, start, end, parent, track, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

std::vector<int64_t> Tracer::RootOf(const std::vector<int64_t>& roots) const {
  std::vector<int64_t> root(spans_.size(), -1);
  for (int64_t r : roots) root[static_cast<size_t>(r)] = r;
  // Parents are recorded before their children, so one forward sweep
  // propagates every root down its subtree.
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t parent = spans_[i].parent;
    if (root[i] < 0 && parent >= 0) root[i] = root[static_cast<size_t>(parent)];
  }
  return root;
}

std::vector<int64_t> Tracer::Roots(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && spans_[i].name == name) {
      out.push_back(static_cast<int64_t>(i));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfSeconds(
    const std::vector<int64_t>& roots) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimes();
  const std::vector<int64_t> root = RootOf(roots);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root[i] >= 0) out[spans_[i].layer] += self[i];
  }
  return out;
}

std::string Tracer::SelfTimeTable(const std::vector<int64_t>& roots) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimes();
  const std::vector<int64_t> root = RootOf(roots);
  struct Row {
    std::string layer;
    uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  double self_sum = 0.0;
  double wall = 0.0;
  for (int64_t r : roots) {
    const Span& span = spans_[static_cast<size_t>(r)];
    wall += span.end - span.start;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root[i] < 0) continue;
    Row& row = rows[spans_[i].name];
    row.layer = spans_[i].layer;
    ++row.count;
    row.total += spans_[i].end - spans_[i].start;
    row.self += self[i];
    self_sum += self[i];
  }
  std::string out;
  sage::util::AppendF(&out, "%-34s %-6s %8s %12s %12s %7s\n", "span", "layer",
                      "count", "total_s", "self_s", "self%");
  for (const auto& [name, row] : rows) {
    sage::util::AppendF(&out, "%-34s %-6s %8llu %12.6f %12.6f %6.2f%%\n",
                        name.c_str(), row.layer.c_str(),
                        static_cast<unsigned long long>(row.count), row.total,
                        row.self, wall > 0 ? 100.0 * row.self / wall : 0.0);
  }
  sage::util::AppendF(
      &out, "self times sum to %.6f s of %.6f s wall (%.3f%% off)\n",
      self_sum, wall, wall > 0 ? 100.0 * std::fabs(self_sum - wall) / wall : 0);
  return out;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  sage::util::TraceLog log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_) {
      sage::util::TraceEvent e;
      e.name = span.name;
      e.cat = span.layer;
      e.ph = 'X';
      e.ts_us = span.start * 1e6;
      e.dur_us = (span.end - span.start) * 1e6;
      e.pid = 1;
      e.tid = span.track;
      if (span.request != 0) e.ArgU64("request", span.request);
      if (span.parent >= 0) {
        e.ArgU64("parent", static_cast<uint64_t>(span.parent));
      }
      log.Add(std::move(e));
    }
  }
  log.Add(sage::util::ProcessNameEvent(1, "sagebench (wall clock)"));
  WriteFile(path, log.ToJson());
}

void WriteTraceFiles(
    const Options& options, const Tracer& tracer,
    const std::vector<std::pair<std::string, std::vector<int64_t>>>& tables) {
  const std::string base = options.out_dir + "/" + options.workload;
  tracer.WriteChromeTrace(base + ".trace.json");
  std::string text;
  for (const auto& [title, roots] : tables) {
    if (roots.empty() || roots.front() < 0) continue;
    text += "== " + title + "\n" + tracer.SelfTimeTable(roots) + "\n";
  }
  WriteFile(base + ".selftime.txt", text);
  std::fprintf(stderr, "sagebench: wrote %s.trace.json and %s.selftime.txt\n",
               base.c_str(), base.c_str());
}

}  // namespace sagebench
