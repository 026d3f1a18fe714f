// SageBench measurement plumbing: raw-sample percentiles, the metric report
// a workload fills, and the span recorder behind the traced run. Everything
// here observes the library from outside; nothing is linked into it.
#ifndef SAGEBENCH_MEASURE_H_
#define SAGEBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sagebench {

/// Seconds on the steady clock since the process started measuring.
double NowS();

/// Command-line settings of one workload process.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// kTiny datasets and short phases: a quick end-to-end check.
  bool smoke = false;
  /// Where the traced run writes its Chrome trace and self-time table.
  std::string out_dir = ".";
};

/// Raw samples with nearest-rank percentiles (no histogram buckets, so a
/// percentile is always one of the observed values).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Sum() const;
  /// The ceil(p/100 * n)-th smallest sample; 0 for an empty set.
  double Percentile(double p) const;
  /// Samples strictly above the p-th percentile's rank. A percentile is
  /// trustworthy when at least ten samples lie beyond it.
  size_t Beyond(double p) const;

 private:
  std::vector<double> values_;
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
  /// Free-form context printed next to the value (sample counts, ...).
  std::string note;
};

/// The metric names and units BENCHMARK.json declares. A run reports every
/// end-to-end metric; per-layer fractions of layers a workload does not
/// call are 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& LayerMetrics();

class Tracer;

/// What a workload hands back to main.
struct Report {
  bool correct = true;
  std::string error;  ///< first correctness failure, if any
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layer;
  /// Machine fingerprint and workload facts (printed, not compared).
  std::vector<std::pair<std::string, std::string>> facts;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void E2e(const std::string& name, double value, const std::string& note = "");
  void Layer(const std::string& name, double value, const std::string& note = "");
  /// Reports the layers' self-time shares under `roots` as self_frac.*.
  void SelfFractions(const Tracer& tracer,
                     const std::vector<int64_t>& roots);
};

/// Maximum resident set size of this process so far, in MiB.
double PeakRssMiB();

/// In-memory span recorder for the traced run. Spans nest per track: Begin
/// pushes onto the calling track's stack and End pops it. Records nothing
/// when disabled, so the untraced window runs the same code paths.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint32_t track = 0;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Switched only between phases, while no other thread records.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span on `track`; returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, const std::string& layer,
                uint32_t track = 0, uint64_t request = 0);
  void End(int64_t id);
  /// Records an already-finished span (e.g. reconstructed from a response's
  /// timing) under `parent`.
  int64_t Add(const std::string& name, const std::string& layer, double start,
              double end, int64_t parent, uint32_t track, uint64_t request = 0);

  /// Ids of the parentless spans called `name`.
  std::vector<int64_t> Roots(const std::string& name) const;
  /// Per-name self times (duration minus the time covered by children) of
  /// every span under `roots`, as a table, plus the check that the self
  /// times add up to the roots' wall time.
  std::string SelfTimeTable(const std::vector<int64_t>& roots) const;
  /// Self seconds per layer under `roots`.
  std::map<std::string, double> LayerSelfSeconds(
      const std::vector<int64_t>& roots) const;
  void WriteChromeTrace(const std::string& path) const;

 private:
  /// Each span's duration minus its children's (mu_ held).
  std::vector<double> SelfTimes() const;
  /// For every span, the member of `roots` it descends from, or -1.
  std::vector<int64_t> RootOf(const std::vector<int64_t>& roots) const;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint32_t, std::vector<int64_t>> open_;
};

/// RAII span on the main track.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, const std::string& layer,
        uint32_t track = 0)
      : tracer_(tracer), id_(tracer->Begin(name, layer, track)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Median of a non-empty list (the mean of the middle two for an even
/// count).
double Median(std::vector<double> v);

/// Writes `<out_dir>/<workload>.trace.json` (Chrome trace) and
/// `<workload>.selftime.txt` (one self-time table per entry of `tables`).
void WriteTraceFiles(
    const Options& options, const Tracer& tracer,
    const std::vector<std::pair<std::string, std::vector<int64_t>>>& tables);

}  // namespace sagebench

#endif  // SAGEBENCH_MEASURE_H_
