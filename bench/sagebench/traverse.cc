// The traverse workloads: repeated passes over a fixed list of traversals
// on the bench-scale datasets, timed from outside apps::RunApp and
// core::ShardedEngine::Run.
//
//   traverse      serial engines: in-core (the simulator's serial hot path)
//                 and out-of-core (a memory budget of 25% of the CSR, and
//                 Figure 8's host-resident adjacency: the tile cache and the
//                 PCIe link).
//   traverse-mt   the in-core list on host_threads = min(4, nproc) engines
//                 plus K=4 sharded engines: trace-then-replay and the
//                 frontier exchange.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/msbfs.h"
#include "apps/registry.h"
#include "common.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "graph/datasets.h"
#include "measure.h"
#include "sim/gpu_device.h"
#include "util/metrics.h"
#include "util/random.h"

namespace sagebench {
namespace {

namespace apps = sage::apps;
namespace core = sage::core;
namespace graph = sage::graph;
namespace sim = sage::sim;
using graph::NodeId;

constexpr uint32_t kPrIterations = 5;
constexpr int kSetupReps = 3;
constexpr uint32_t kShards = 4;

enum class Variant { kSerial, kMultiThread };

/// One single-device engine of a workload.
struct EngineSpec {
  const char* name;
  size_t dataset;
  core::EngineOptions options;
  /// Out-of-core: memory_budget_bytes = this share of the CSR bytes.
  double budget_share = 0.0;

  /// A serial in-core engine: the reference the others' PageRank must match
  /// bit for bit.
  bool SerialInCore() const {
    return options.host_threads == 1 && budget_share == 0.0 &&
           !options.adjacency_on_host;
  }
};

/// `count` runs of `app` per pass on engine (or sharded engine) `target`.
struct Step {
  bool sharded;
  size_t target;
  const char* app;
  int count;
};

struct Plan {
  std::vector<graph::DatasetId> datasets;
  std::vector<EngineSpec> engines;
  std::vector<size_t> shard_datasets;  ///< one K=4 sharded engine each
  std::vector<Step> pass;
  uint32_t host_threads = 1;
};

core::EngineOptions EngineOpts(uint32_t threads) {
  core::EngineOptions o;
  o.host_threads = threads;
  return o;
}

core::EngineOptions StrategyOptions(uint32_t threads,
                                    core::ExpandStrategy strategy) {
  core::EngineOptions o = EngineOpts(threads);
  o.strategy = strategy;
  o.tiled_partitioning = false;
  o.resident_tiles = false;
  return o;
}

// A pass costs about 3 s of wall time on a 4-core x86 box, so the window
// holds several passes and a traversal's median over them shrugs off a slow
// pass. Both lists put their median traversal inside a cluster of
// ljournal-s bfs runs of about equal cost (under several strategies, or in
// and out of core), and their 90th percentile on the second-dearest
// traversal, which costs within about 10% of the dearest; so when two
// traversals trade places from run to run, neither percentile moves far.
Plan MakePlan(Variant variant) {
  Plan plan;
  plan.host_threads = variant == Variant::kMultiThread ? BenchThreads() : 1;
  const uint32_t t = plan.host_threads;
  plan.datasets = {graph::DatasetId::kUk2002s, graph::DatasetId::kLjournals,
                   graph::DatasetId::kTwitters};
  plan.engines = {
      {"uk-2002s/sage", 0, EngineOpts(t)},
      {"ljournal-s/sage", 1, EngineOpts(t)},
      {"twitter-s/sage", 2, EngineOpts(t)},
      {"ljournal-s/b40c", 1, StrategyOptions(t, core::ExpandStrategy::kB40c)},
      {"ljournal-s/warp", 1,
       StrategyOptions(t, core::ExpandStrategy::kWarpCentric)},
  };
  plan.pass = {{false, 0, "bfs", 2}, {false, 0, "pagerank", 1},
               {false, 1, "bfs", 3}, {false, 1, "sssp", 1},
               {false, 3, "bfs", 2}, {false, 4, "bfs", 2},
               {false, 2, "bfs", 1}};
  if (variant == Variant::kSerial) {
    // Sampling reorder always runs serially. The out-of-core engines are
    // serial too, which leaves traverse-mt to replay and the shard exchange.
    core::EngineOptions reorder = EngineOpts(1);
    reorder.sampling_reorder = true;
    core::EngineOptions host = EngineOpts(1);
    host.adjacency_on_host = true;
    plan.engines.insert(plan.engines.end(),
                        {{"twitter-s/reorder", 2, reorder},
                         {"ljournal-s/ooc", 1, EngineOpts(1), 0.25},
                         {"twitter-s/ooc", 2, EngineOpts(1), 0.25},
                         {"ljournal-s/host", 1, host}});
    plan.pass.insert(plan.pass.end(), {{false, 5, "bfs", 1},
                                       {false, 6, "bfs", 2},
                                       {false, 6, "pagerank", 1},
                                       {false, 7, "bfs", 1},
                                       {false, 8, "bfs", 2}});
  } else {
    plan.shard_datasets = {1, 2};
    plan.pass.insert(plan.pass.end(), {{true, 0, "bfs", 1},
                                       {true, 0, "msbfs", 1},
                                       {true, 0, "pagerank", 1},
                                       {true, 1, "bfs", 1},
                                       {true, 1, "msbfs", 1}});
  }
  return plan;
}

struct Dataset {
  std::string name;
  graph::Csr csr;
  std::vector<NodeId> pool;
};

struct EngineSlot {
  std::unique_ptr<sim::GpuDevice> device;
  std::unique_ptr<core::Engine> engine;
  /// One program per app, kept for the engine's lifetime (warm rebinds).
  std::map<std::string, std::unique_ptr<core::FilterProgram>> programs;

  core::FilterProgram* Program(const std::string& app) {
    auto& slot = programs[app];
    if (slot == nullptr) slot = std::move(apps::CreateProgram(app)).value();
    return slot.get();
  }
};

/// Everything one setup builds. Datasets never move once built: sharded
/// engines keep references to their CSRs.
struct State {
  std::vector<Dataset> datasets;
  std::vector<EngineSlot> engines;
  std::vector<std::unique_ptr<core::ShardedEngine>> shards;
};

struct Op {
  bool sharded = false;
  size_t target = 0;
  size_t dataset = 0;
  std::string app;
  apps::AppParams params;
  std::string key;
  std::string span;  ///< trace span name
};

struct OpOutcome {
  sage::util::Status status;
  core::RunStats stats;
  core::ShardedRunStats sharded;
  uint64_t digest = 0;
};

OpOutcome Execute(State& state, const Op& op, double* run_wall) {
  OpOutcome out;
  const double t0 = NowS();
  if (op.sharded) {
    auto result = state.shards[op.target]->Run(op.app, op.params);
    *run_wall = NowS() - t0;
    out.status = result.status();
    if (result.ok()) {
      out.sharded = *result;
      out.stats = result->stats;
      out.digest = state.shards[op.target]->OutputDigest();
    }
    return out;
  }
  EngineSlot& slot = state.engines[op.target];
  core::FilterProgram* program = slot.Program(op.app);
  auto result = apps::RunApp(*slot.engine, *program, op.params);
  *run_wall = NowS() - t0;
  out.status = result.status();
  if (result.ok()) {
    out.stats = *result;
    out.digest = apps::OutputDigest(*slot.engine, *program);
  }
  return out;
}

/// Modeled device counters summed over every single-device engine.
struct DeviceCounters {
  double kernels = 0, gpu_seconds = 0, sectors = 0, l2_hits = 0,
         l2_misses = 0, loaded = 0, useful = 0, host_sectors = 0,
         cache_hits = 0, cache_misses = 0, cache_evictions = 0,
         prefill_bytes = 0, link_frames = 0, link_wire = 0, link_payload = 0,
         replay_slices = 0, arena_reused = 0;

  DeviceCounters operator-(const DeviceCounters& b) const {
    DeviceCounters d = *this;
    d.kernels -= b.kernels;
    d.gpu_seconds -= b.gpu_seconds;
    d.sectors -= b.sectors;
    d.l2_hits -= b.l2_hits;
    d.l2_misses -= b.l2_misses;
    d.loaded -= b.loaded;
    d.useful -= b.useful;
    d.host_sectors -= b.host_sectors;
    d.cache_hits -= b.cache_hits;
    d.cache_misses -= b.cache_misses;
    d.cache_evictions -= b.cache_evictions;
    d.link_frames -= b.link_frames;
    d.link_wire -= b.link_wire;
    d.link_payload -= b.link_payload;
    d.replay_slices -= b.replay_slices;
    d.arena_reused -= b.arena_reused;
    return d;  // prefill_bytes stays a total: pre-fill happens at Create
  }
};

DeviceCounters ReadCounters(const State& state) {
  DeviceCounters c;
  for (const EngineSlot& slot : state.engines) {
    const sim::GpuDevice& d = *slot.device;
    c.kernels += static_cast<double>(d.totals().kernels);
    c.gpu_seconds += d.totals().seconds;
    const sim::MemStats& mem = d.mem().device_stats();
    c.sectors += static_cast<double>(mem.sectors);
    c.l2_hits += static_cast<double>(mem.l2_hits);
    c.l2_misses += static_cast<double>(mem.l2_misses);
    c.loaded += static_cast<double>(mem.loaded_bytes);
    c.useful += static_cast<double>(mem.useful_bytes);
    c.host_sectors += static_cast<double>(d.mem().host_stats().sectors);
    const auto& cache = d.tile_cache().stats();
    c.cache_hits += static_cast<double>(cache.hits);
    c.cache_misses += static_cast<double>(cache.misses);
    c.cache_evictions += static_cast<double>(cache.evictions);
    c.prefill_bytes += static_cast<double>(cache.prefill_bytes);
    const auto& link = d.host_link().stats();
    c.link_frames += static_cast<double>(link.frames);
    c.link_wire += static_cast<double>(link.wire_bytes);
    c.link_payload += static_cast<double>(link.payload_bytes);
    const sage::util::MetricsSnapshot snap = slot.engine->metrics().Snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name == "util.arena.bytes_reused") {
        c.arena_reused += static_cast<double>(value);
      }
    }
    for (const auto& h : snap.histograms) {
      if (h.name == "sim.replay.slice_us") {
        c.replay_slices += static_cast<double>(h.count);
      }
    }
  }
  return c;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Timings of one setup repetition.
struct SetupTimes {
  double total = 0, generate = 0, create = 0, shard_create = 0;
};

/// Builds the workload's datasets and engines and runs one cold bfs per
/// engine: the time a user waits for a first answer.
std::unique_ptr<State> Setup(const Plan& plan, bool smoke,
                             std::vector<std::vector<NodeId>>* pools,
                             SetupTimes* times, Tracer* tracer) {
  Scope setup_span(tracer, "setup", "bench");
  auto state = std::make_unique<State>();
  double t0 = NowS();
  for (graph::DatasetId id : plan.datasets) {
    Scope s(tracer, "graph.MakeDataset", "graph");
    state->datasets.push_back(
        {graph::DatasetName(id),
         graph::MakeDataset(id, smoke ? graph::DatasetScale::kTiny
                                      : graph::DatasetScale::kBench),
         {}});
  }
  times->generate = NowS() - t0;
  if (pools->empty()) {
    // Input preparation for the benchmark, not set-up of the system.
    for (const Dataset& d : state->datasets) pools->push_back(ReachPool(d.csr));
  }
  for (size_t d = 0; d < state->datasets.size(); ++d) {
    state->datasets[d].pool = (*pools)[d];
  }

  double t1 = NowS();
  for (const EngineSpec& spec : plan.engines) {
    Scope s(tracer, "core.Engine::Create", "core");
    EngineSlot slot;
    slot.device = std::make_unique<sim::GpuDevice>(BenchSpec());
    core::EngineOptions options = spec.options;
    const graph::Csr& csr = state->datasets[spec.dataset].csr;
    if (spec.budget_share > 0) {
      options.memory_budget_bytes = static_cast<uint64_t>(
          spec.budget_share * static_cast<double>(csr.MemoryBytes()));
    }
    slot.engine =
        std::move(core::Engine::Create(slot.device.get(), csr, options))
            .value();
    state->engines.push_back(std::move(slot));
  }
  times->create = NowS() - t1;
  double t2 = NowS();
  for (size_t d : plan.shard_datasets) {
    Scope s(tracer, "shard.ShardedEngine::Create", "shard");
    core::ShardOptions options;
    options.num_shards = kShards;
    options.host_threads = plan.host_threads;
    options.spec = BenchSpec();
    state->shards.push_back(
        std::move(core::ShardedEngine::Create(state->datasets[d].csr, options))
            .value());
  }
  times->shard_create = NowS() - t2;

  for (size_t e = 0; e < state->engines.size(); ++e) {
    Op op;
    op.target = e;
    op.app = "bfs";
    op.params.sources = {state->datasets[plan.engines[e].dataset].pool.at(0)};
    Scope s(tracer, "core.RunApp:cold", "core");
    double wall = 0;
    Execute(*state, op, &wall);
  }
  for (size_t s = 0; s < state->shards.size(); ++s) {
    Op op;
    op.sharded = true;
    op.target = s;
    op.app = "bfs";
    op.params.sources = {state->datasets[plan.shard_datasets[s]].pool.at(0)};
    Scope span(tracer, "shard.Run:cold", "shard");
    double wall = 0;
    Execute(*state, op, &wall);
  }
  times->total = times->generate + (NowS() - t1);
  return state;
}

/// The pass: every step expanded into ops with seed-drawn sources. The i-th
/// bfs of any engine on a dataset uses the same source, so different
/// configurations of one dataset are checked against each other.
std::vector<Op> MakePass(const Plan& plan, const State& state, uint64_t seed) {
  sage::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  struct Draws {
    std::vector<NodeId> bfs, msbfs;
  };
  std::vector<Draws> draws(state.datasets.size());
  for (size_t d = 0; d < state.datasets.size(); ++d) {
    const std::vector<NodeId>& pool = state.datasets[d].pool;
    auto draw = [&] { return pool[rng.UniformU32(pool.size())]; };
    for (int i = 0; i < 5; ++i) draws[d].bfs.push_back(draw());
    for (uint32_t i = 0; i < apps::MultiSourceBfsProgram::kMaxSources; ++i) {
      draws[d].msbfs.push_back(draw());
    }
  }
  std::vector<Op> ops;
  for (const Step& step : plan.pass) {
    const size_t d = step.sharded ? plan.shard_datasets[step.target]
                                  : plan.engines[step.target].dataset;
    for (int i = 0; i < step.count; ++i) {
      Op op;
      op.sharded = step.sharded;
      op.target = step.target;
      op.dataset = d;
      op.app = step.app;
      if (op.app == "bfs") op.params.sources = {draws[d].bfs.at(i)};
      // SSSP always starts at the pool's first node: its work differs by up
      // to 45% between pool nodes, which alone would spread modeled_gteps
      // by 3-6% across seeds.
      if (op.app == "sssp") {
        op.params.sources = {state.datasets[d].pool.front()};
      }
      if (op.app == "msbfs") op.params.sources = draws[d].msbfs;
      op.params.iterations = kPrIterations;
      // Sharded pagerank folds contributions in its own canonical order, so
      // its digest is compared only with other sharded runs.
      const std::string graph_key =
          state.datasets[d].name +
          (step.sharded && op.app == "pagerank" ? "@sharded" : "");
      op.key = OpKey(graph_key, op.app, op.params);
      op.span = step.sharded ? "shard.Run:" + state.datasets[d].name + "/" +
                                   step.app
                             : "core.RunApp:" +
                                   std::string(plan.engines[step.target].name) +
                                   "/" + step.app;
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

/// Digest of the first run of each key; every later run must match it.
class DigestBook {
 public:
  std::string Check(const std::string& key, uint64_t digest) {
    auto [it, inserted] = digests_.emplace(key, digest);
    if (inserted || it->second == digest) return "";
    return "output digest of " + key + " changed between runs";
  }

 private:
  std::map<std::string, uint64_t> digests_;
};

/// Runs every op once, checks each against the oracles, and records its
/// digest. Also yields the modeled numbers, which depend only on the seed.
struct VerifyPass {
  core::RunStats single;  ///< single-device ops
  double modeled_seconds = 0;
  double edges = 0;
  double shard_comm = 0, shard_payload = 0, shard_dense = 0, shard_cut = 0;
  double verify_s = 0;
  DeviceCounters counters;
};

VerifyPass RunVerifyPass(State& state, const std::vector<Op>& ops,
                         const Plan& plan, DigestBook* book, Report* report) {
  VerifyPass v;
  const DeviceCounters before = ReadCounters(state);
  std::map<size_t, bool> cut_seen;
  std::map<std::string, bool> checked;
  for (const Op& op : ops) {
    double wall = 0;
    OpOutcome out = Execute(state, op, &wall);
    if (!out.status.ok()) {
      report->Fail(op.key + ": " + out.status.ToString());
      continue;
    }
    v.modeled_seconds += out.stats.seconds;
    v.edges += static_cast<double>(out.stats.edges_traversed);
    if (op.sharded) {
      v.shard_comm += out.sharded.comm_seconds;
      v.shard_payload += static_cast<double>(out.sharded.frontier_payload_bytes);
      v.shard_dense += static_cast<double>(out.sharded.frontier_dense_bytes);
      if (!cut_seen[op.target]) {
        cut_seen[op.target] = true;
        v.shard_cut += static_cast<double>(out.sharded.edge_cut);
      }
    } else {
      v.single.Accumulate(out.stats);
    }
    const double t0 = NowS();
    const std::string mismatch = book->Check(op.key, out.digest);
    if (!mismatch.empty()) report->Fail(mismatch);
    if (!checked[op.key + (op.sharded ? "#sharded" : "")]) {
      checked[op.key + (op.sharded ? "#sharded" : "")] = true;
      const graph::Csr& csr = state.datasets[op.dataset].csr;
      const Outputs outputs =
          op.sharded ? OutputsOf(*state.shards[op.target], op.app)
                     : OutputsOf(*state.engines[op.target].Program(op.app));
      const std::string wrong =
          CheckAgainstOracle(csr, op.app, op.params, outputs);
      if (!wrong.empty()) report->Fail(op.key + ": " + wrong);
      // PageRank is checked against its oracle only within a tolerance, so
      // a multi-threaded or out-of-core run is also compared bit for bit
      // with a serial in-core twin.
      if (!op.sharded && op.app == "pagerank" &&
          !plan.engines[op.target].SerialInCore()) {
        sim::GpuDevice device(BenchSpec());
        auto twin = std::move(core::Engine::Create(&device, csr, EngineOpts(1)))
                        .value();
        auto program = std::move(apps::CreateProgram("pagerank")).value();
        auto run = apps::RunApp(*twin, *program, op.params);
        if (!run.ok() || apps::OutputDigest(*twin, *program) != out.digest) {
          report->Fail(op.key + ": digest differs from the serial in-core run");
        }
      }
    }
    v.verify_s += NowS() - t0;
  }
  v.counters = ReadCounters(state) - before;
  return v;
}

struct Window {
  std::vector<std::vector<double>> op_wall;  ///< [op][pass], seconds
  std::vector<double> op_edges;              ///< [op]
  int passes = 0;
  double wall = 0;
  uint64_t ops = 0, failed = 0;
  DeviceCounters counters;
  int64_t root = -1;
};

/// Runs whole passes until the next one would overrun `seconds` (at least
/// one pass).
Window RunWindow(State& state, const std::vector<Op>& ops, double seconds,
                 Tracer* tracer, DigestBook* book, Report* report) {
  Window w;
  w.op_wall.resize(ops.size());
  w.op_edges.resize(ops.size());
  const DeviceCounters before = ReadCounters(state);
  Scope root(tracer, "window", "bench");
  w.root = root.id();
  const double start = NowS();
  double last_pass = 0;
  while (w.passes == 0 || NowS() - start + last_pass <= seconds) {
    Scope pass_span(tracer, "pass", "bench");
    const double pass_start = NowS();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      double wall = 0;
      OpOutcome out;
      {
        Scope s(tracer, op.span, op.sharded ? "shard" : "core");
        out = Execute(state, op, &wall);
      }
      ++w.ops;
      if (!out.status.ok()) {
        ++w.failed;
        report->Fail(op.key + ": " + out.status.ToString());
        continue;
      }
      {
        Scope s(tracer, "bench.digest_check", "bench");
        const std::string mismatch = book->Check(op.key, out.digest);
        if (!mismatch.empty()) report->Fail(mismatch);
      }
      w.op_wall[i].push_back(wall);
      w.op_edges[i] = static_cast<double>(out.stats.edges_traversed);
    }
    ++w.passes;
    last_pass = NowS() - pass_start;
  }
  w.wall = NowS() - start;
  w.counters = ReadCounters(state) - before;
  return w;
}

/// A window reduced to one latency per op: its median over the passes, so
/// a noise spike in one pass moves neither a percentile nor a rate. The
/// percentiles are over the pass's ops, each op counted once.
struct Summary {
  double meps = 0;
  Samples latency_ms;
  Samples core_ms;  ///< single-device ops only
  double core_wall = 0, core_edges = 0;
};

Summary Summarize(const Window& w, const std::vector<Op>& ops) {
  Summary s;
  double wall = 0, edges = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (w.op_wall[i].empty()) continue;
    const double op_wall = Median(w.op_wall[i]);
    wall += op_wall;
    edges += w.op_edges[i];
    s.latency_ms.Add(op_wall * 1e3);
    if (!ops[i].sharded) {
      s.core_ms.Add(op_wall * 1e3);
      s.core_wall += op_wall;
      s.core_edges += w.op_edges[i];
    }
  }
  s.meps = Ratio(edges, wall) / 1e6;
  return s;
}

Report RunTraverseVariant(const Options& options, Variant variant) {
  Report report;
  const Plan plan = MakePlan(variant);
  Tracer tracer(options.trace);

  std::vector<std::vector<NodeId>> pools;
  std::vector<SetupTimes> reps(kSetupReps);
  std::unique_ptr<State> state;
  for (int r = 0; r < kSetupReps; ++r) {
    state.reset();  // one copy alive at a time keeps peak RSS meaningful
    state = Setup(plan, options.smoke, &pools, &reps[r], &tracer);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return Median(v);
  };

  const std::vector<Op> ops = MakePass(plan, *state, options.seed);
  DigestBook book;
  const VerifyPass verify =
      RunVerifyPass(*state, ops, plan, &book, &report);

  // End-to-end numbers come from an untraced window; the traced run splits
  // its time between an untraced and a traced half to measure the overhead.
  tracer.set_enabled(false);
  const double plain_seconds = options.trace ? options.seconds / 2
                                             : options.seconds;
  const Window plain =
      RunWindow(*state, ops, plain_seconds, &tracer, &book, &report);
  const double rss = PeakRssMiB();
  const Summary plain_sum = Summarize(plain, ops);
  report.attempted = plain.ops;
  report.failed = plain.failed;

  report.E2e("setup_s", median_of(&SetupTimes::total),
             std::to_string(kSetupReps) + " setups, median");
  const std::string passes = std::to_string(plain.passes) + " passes";
  report.E2e("sim_meps", plain_sum.meps, passes + ", per-op medians");
  report.E2e("modeled_gteps", Ratio(verify.edges, verify.modeled_seconds) / 1e9,
             "verification pass");
  report.E2e("throughput", Ratio(static_cast<double>(plain.ops), plain.wall));
  const std::string ops_note =
      std::to_string(plain_sum.latency_ms.count()) + " ops x " + passes;
  report.E2e("latency_p50_ms", plain_sum.latency_ms.Percentile(50), ops_note);
  report.E2e("latency_p90_ms", plain_sum.latency_ms.Percentile(90), ops_note);
  report.E2e("peak_rss_mb", rss);

  report.facts.push_back({"host_threads", std::to_string(plan.host_threads)});
  report.facts.push_back({"ops_per_pass", std::to_string(ops.size())});
  uint32_t reorder_rounds = 0;
  for (const EngineSlot& slot : state->engines) {
    reorder_rounds += slot.engine->reorder_rounds();
  }
  report.facts.push_back({"reorder_rounds", std::to_string(reorder_rounds)});
  std::string pools_fact;
  for (const Dataset& d : state->datasets) {
    pools_fact += d.name + ":" + std::to_string(d.pool.size()) + " ";
  }
  report.facts.push_back({"source_pools", pools_fact});

  if (!options.trace) return report;

  tracer.set_enabled(true);
  const Window traced =
      RunWindow(*state, ops, options.seconds / 2, &tracer, &book, &report);
  const Summary traced_sum = Summarize(traced, ops);
  const VerifyPass& v = verify;
  const double setup = median_of(&SetupTimes::total);
  report.Layer("graph.generate_s", median_of(&SetupTimes::generate));
  report.Layer("core.create_ms", median_of(&SetupTimes::create) /
                                     static_cast<double>(plan.engines.size()) *
                                     1e3);
  report.Layer("core.run_ms.p50", traced_sum.core_ms.Percentile(50));
  report.Layer("core.run_ms.p90", traced_sum.core_ms.Percentile(90));
  report.Layer("core.host_ns_per_edge",
               Ratio(traced_sum.core_wall, traced_sum.core_edges) * 1e9);
  report.Layer("core.edges_traversed",
               static_cast<double>(v.single.edges_traversed));
  report.Layer("core.iterations", v.single.iterations);
  report.Layer("core.frontier_nodes",
               static_cast<double>(v.single.frontier_nodes));
  report.Layer("core.tp_overhead_frac",
               Ratio(v.single.tp_overhead_seconds, v.single.seconds));
  report.Layer("reorder.rounds", v.single.reorder_rounds);
  report.Layer("reorder.modeled_frac",
               Ratio(v.single.reorder_seconds, v.single.seconds));
  const DeviceCounters& c = v.counters;
  report.Layer("sim.gpu_seconds", v.modeled_seconds);
  report.Layer("sim.modeled_ms_per_op",
               v.modeled_seconds / static_cast<double>(ops.size()) * 1e3);
  report.Layer("sim.kernels", c.kernels);
  report.Layer("sim.l2_hit_rate", Ratio(c.l2_hits, c.l2_hits + c.l2_misses));
  report.Layer("sim.amplification", Ratio(c.loaded, c.useful));
  report.Layer("sim.device_sectors", c.sectors);
  report.Layer("sim.replay_slices", traced.counters.replay_slices);
  report.Layer("sim.arena_bytes_reused", traced.counters.arena_reused);
  report.Layer("sim.cache.hit_rate",
               Ratio(c.cache_hits, c.cache_hits + c.cache_misses));
  report.Layer("sim.cache.evictions", c.cache_evictions);
  report.Layer("sim.cache.prefill_bytes", c.prefill_bytes);
  report.Layer("sim.link.wire_bytes", c.link_wire);
  report.Layer("sim.link.frames", c.link_frames);
  report.Layer("sim.link.payload_ratio", Ratio(c.link_payload, c.link_wire));
  report.Layer("sim.host_sectors", c.host_sectors);
  if (!state->shards.empty()) {
    report.Layer("shard.create_frac",
                 Ratio(median_of(&SetupTimes::shard_create), setup));
    const double shard_seconds = v.modeled_seconds - v.single.seconds;
    report.Layer("shard.comm_frac", Ratio(v.shard_comm, shard_seconds));
    report.Layer("shard.delta_over_dense",
                 Ratio(v.shard_payload, v.shard_dense));
    double imbalance = 0;
    for (const auto& shard : state->shards) {
      for (const auto& [name, value] : shard->metrics().Snapshot().gauges) {
        if (name == "shard.imbalance") imbalance = std::max(imbalance, value);
      }
    }
    report.Layer("shard.imbalance", imbalance);
    report.Layer("shard.edge_cut", v.shard_cut);
  }
  report.SelfFractions(tracer, {traced.root});
  report.Layer("trace_overhead", Ratio(plain_sum.meps, traced_sum.meps) - 1);
  report.Layer("verify_s", v.verify_s);
  WriteTraceFiles(options, tracer,
                  {{"timed window (traced half)", {traced.root}},
                   {"setups", tracer.Roots("setup")}});
  return report;
}

}  // namespace

Report RunTraverse(const Options& options) {
  return RunTraverseVariant(options, Variant::kSerial);
}
Report RunTraverseMt(const Options& options) {
  return RunTraverseVariant(options, Variant::kMultiThread);
}

}  // namespace sagebench
