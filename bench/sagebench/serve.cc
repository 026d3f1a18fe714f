// The serve workloads: a closed loop of requests into serve::QueryService,
// timed from the generator thread (submit -> observed response).
//
//   serve-bfs    single-source BFS on two rmat graphs with 64 requests
//                outstanding: coalescing into MS-BFS dominates.
//   serve-mixed  five apps on four graphs with 8 outstanding, QoS classes and
//                tenants, two graphs out of core, and graphs registered under
//                a memory budget mid-run: engine acquire/rebuild after pool
//                evictions and out-of-core paging inside serve.
//
// Both are closed loops because open-loop latency does not repeat on this
// service: one slow dispatch makes the next batch bigger and slower (see
// README.md).
#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "common.h"
#include "core/engine.h"
#include "graph/coo.h"
#include "graph/generators.h"
#include "measure.h"
#include "serve/graph_registry.h"
#include "serve/service.h"
#include "sim/gpu_device.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sagebench {
namespace {

namespace apps = sage::apps;
namespace core = sage::core;
namespace graph = sage::graph;
namespace serve = sage::serve;
namespace sim = sage::sim;
using graph::NodeId;

// Serve set-up takes a fraction of a second, so it repeats more often than
// the traverse set-up to give a steady median.
constexpr int kSetupReps = 15;
constexpr size_t kPoolSize = 256;

struct GraphDef {
  std::string name;
  graph::Csr csr;
  std::vector<NodeId> pool;
};

graph::Csr Symmetrized(const graph::Csr& csr) {
  graph::Coo coo = csr.ToCoo();
  graph::Symmetrize(coo);
  graph::RemoveSelfLoops(coo);
  graph::SortCoo(coo);
  graph::DedupSortedCoo(coo);
  return graph::Csr::FromCoo(coo);
}

/// A registry and the service on top of it. The service is declared last,
/// so it shuts down (joining its workers and detaching from the registry)
/// before the registry goes away.
struct Stack {
  serve::GraphRegistry registry;
  std::unique_ptr<serve::QueryService> service;
};

/// The workload's shape: graphs, service options, and the request mix.
struct Shape {
  bool mixed = false;
  size_t outstanding = 64;
  std::vector<GraphDef> graphs;
  /// Registered one by one during the timed window (serve-mixed).
  std::vector<GraphDef> loads;
  serve::ServeOptions options;
  uint64_t registry_budget = 0;
};

Shape MakeShape(bool mixed, bool smoke) {
  Shape shape;
  shape.mixed = mixed;
  const uint32_t down = smoke ? 3 : 0;  // smoke graphs are 8x smaller
  auto rmat = [&](uint32_t scale, uint64_t seed) {
    return graph::GenerateRmat(scale - down, (12ull << scale) >> down, 0.57,
                               0.19, 0.19, seed);
  };
  shape.graphs.push_back({"rmat13", rmat(13, 42), {}});
  shape.graphs.push_back({"rmat14", rmat(14, 43), {}});
  shape.options.device_spec = BenchSpec();
  if (!mixed) return shape;

  shape.outstanding = 8;
  shape.graphs.push_back(
      {"web", graph::GenerateWebCopy(16384 >> down, 16, 0.75, 44), {}});
  shape.graphs.push_back(
      {"community",
       Symmetrized(graph::GenerateCommunity(4096 >> down, 32, 256 >> down,
                                            0.8, 45)),
       {}});
  shape.loads.push_back({"load-a", rmat(13, 46), {}});
  shape.loads.push_back({"load-b", rmat(13, 47), {}});
  // Push the two largest graphs out of core: the engine budget sits between
  // the second- and third-largest CSR.
  std::vector<uint64_t> bytes;
  uint64_t total = 0;
  for (const GraphDef& g : shape.graphs) {
    bytes.push_back(g.csr.MemoryBytes());
    total += g.csr.MemoryBytes();
  }
  std::sort(bytes.rbegin(), bytes.rend());
  shape.options.engine_options.memory_budget_bytes = (bytes[1] + bytes[2]) / 2;
  // Room for every CSR and two warm engines per graph, plus half a load:
  // each mid-run load has to evict cold warm engines to fit.
  shape.registry_budget = 3 * total + shape.loads[0].csr.MemoryBytes() / 2;
  return shape;
}

/// Seeded request stream. The mix is stratified: every block of 20 requests
/// holds exactly the mix's shares in a seeded order, and each app cycles
/// through its graphs and parameters, so a seed changes sources and order
/// but not how much work a window holds.
///   serve-bfs    single-source BFS, alternating between the two graphs.
///   serve-mixed  bfs 40%, sssp 20%, pagerank 15% (5 or 10 iterations),
///                msbfs 15% (8 sources), kcore 10% (k = 2, 4 or 8, on the
///                symmetrized graph); interactive/batch/best-effort at
///                50/30/20 across three tenants.
class RequestStream {
 public:
  RequestStream(const Shape& shape, uint64_t seed)
      : shape_(shape), rng_(seed * 0x9e3779b97f4a7c15ull + 7) {}

  serve::Request Next() {
    serve::Request r;
    r.id = ++next_id_;
    if (!shape_.mixed) {
      const GraphDef& g = shape_.graphs[Turn("bfs") % shape_.graphs.size()];
      r.graph = g.name;
      r.app = "bfs";
      r.params.sources = {Source(g)};
      return r;
    }
    if (block_.empty()) Refill();
    r.app = block_.back().first;
    r.priority = block_.back().second;
    block_.pop_back();
    r.tenant = "tenant" + std::to_string(r.id % 3);
    const uint64_t turn = Turn(r.app);
    if (r.app == "kcore") {
      r.graph = "community";
      r.params.k = 2u << (turn % 3);
      return r;
    }
    const GraphDef& g = shape_.graphs[turn % shape_.graphs.size()];
    r.graph = g.name;
    if (r.app == "pagerank") {
      r.params.iterations = (turn / shape_.graphs.size()) % 2 == 0 ? 5 : 10;
    } else {
      const int sources = r.app == "msbfs" ? 8 : 1;
      for (int i = 0; i < sources; ++i) r.params.sources.push_back(Source(g));
    }
    return r;
  }

 private:
  void Refill() {
    const std::pair<const char*, int> apps[] = {
        {"bfs", 8}, {"sssp", 4}, {"pagerank", 3}, {"msbfs", 3}, {"kcore", 2}};
    const serve::Priority classes[] = {
        serve::Priority::kInteractive, serve::Priority::kInteractive,
        serve::Priority::kInteractive, serve::Priority::kInteractive,
        serve::Priority::kInteractive, serve::Priority::kBatch,
        serve::Priority::kBatch,       serve::Priority::kBatch,
        serve::Priority::kBestEffort,  serve::Priority::kBestEffort};
    std::vector<const char*> names;
    for (const auto& [name, n] : apps) names.insert(names.end(), n, name);
    std::vector<serve::Priority> prios(classes, classes + 10);
    prios.insert(prios.end(), classes, classes + 10);
    rng_.Shuffle(names);
    rng_.Shuffle(prios);
    for (size_t i = 0; i < names.size(); ++i) {
      block_.emplace_back(names[i], prios[i]);
    }
  }
  /// How many requests of `app` came before this one.
  uint64_t Turn(const std::string& app) { return turns_[app]++; }
  NodeId Source(const GraphDef& g) {
    return g.pool[rng_.UniformU32(static_cast<uint32_t>(g.pool.size()))];
  }

  const Shape& shape_;
  sage::util::Rng rng_;
  uint64_t next_id_ = 0;
  std::map<std::string, uint64_t> turns_;
  std::vector<std::pair<const char*, serve::Priority>> block_;
};

/// Every distinct request seen, with the digest its responses carried.
class DigestLog {
 public:
  void Record(const serve::Request& r, uint64_t digest, Report* report) {
    const std::string key = OpKey(r.graph, r.app, r.params);
    auto [it, inserted] = entries_.emplace(key, Entry{r, digest});
    if (!inserted && it->second.digest != digest) {
      report->Fail(key + ": two responses carried different digests");
    }
  }

  /// Checks each distinct request against a solo Engine::Create + RunApp
  /// run (digest) and the oracles, spread over the bench's threads. Returns
  /// the Engine::Create times of the solo runs, in milliseconds.
  Samples Verify(const std::map<std::string, const graph::Csr*>& graphs,
                 Report* report) const {
    std::vector<const Entry*> entries;
    for (const auto& [key, entry] : entries_) entries.push_back(&entry);
    std::vector<std::string> errors(entries.size());
    std::vector<double> create_ms(entries.size());
    sage::util::ThreadPool pool(BenchThreads() - 1);
    pool.ParallelFor(entries.size(), [&](uint32_t, size_t i) {
      const serve::Request& r = entries[i]->request;
      const graph::Csr& csr = *graphs.at(r.graph);
      sim::GpuDevice device(BenchSpec());
      core::EngineOptions options;
      options.host_threads = 1;
      const double t0 = NowS();
      auto engine = std::move(core::Engine::Create(&device, csr, options))
                        .value();
      create_ms[i] = (NowS() - t0) * 1e3;
      auto program = std::move(apps::CreateProgram(r.app)).value();
      auto run = apps::RunApp(*engine, *program, r.params);
      const std::string key = OpKey(r.graph, r.app, r.params);
      if (!run.ok()) {
        errors[i] = key + ": solo run failed: " + run.status().ToString();
      } else if (apps::OutputDigest(*engine, *program) != entries[i]->digest) {
        errors[i] = key + ": served digest differs from a solo run";
      } else {
        const std::string wrong =
            CheckAgainstOracle(csr, r.app, r.params, OutputsOf(*program));
        if (!wrong.empty()) errors[i] = key + ": " + wrong;
      }
    });
    for (const std::string& e : errors) {
      if (!e.empty()) report->Fail(e);
    }
    Samples creates;
    for (double ms : create_ms) creates.Add(ms);
    return creates;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    serve::Request request;
    uint64_t digest = 0;
  };
  std::map<std::string, Entry> entries_;
};

/// What one closed-loop window observed (responses that arrived before its
/// deadline; later ones are drained and verified but not counted).
struct Window {
  Samples latency_ms, run_ms;
  uint64_t ok = 0, failed = 0, coalesced = 0;
  /// Sums over counted responses. A coalesced dispatch reports its stats to
  /// every member, so per-request shares divide by the batch size.
  double submit_s = 0, queue_ms = 0, coalesce_ms = 0, batch_sum = 0,
         edges = 0, modeled = 0, tp_seconds = 0, iterations = 0,
         frontier = 0, run_s = 0;
  /// Wall seconds of the graph loads registered during the window.
  double add_s = 0;
  double seconds = 0;
  int64_t root = -1;
  std::string first_error;

  void Failed(const sage::util::Status& status) {
    ++failed;
    if (first_error.empty()) first_error = status.ToString();
  }
};

Window ClosedLoop(serve::QueryService& service, RequestStream& stream,
                  size_t outstanding, double seconds, Tracer* tracer,
                  DigestLog* log, Report* report) {
  struct Slot {
    bool busy = false;
    serve::Request request;
    std::future<serve::Response> future;
    double submitted = 0;
  };
  std::vector<Slot> slots(outstanding);
  Window w;
  Scope root(tracer, "window", "bench");
  w.root = root.id();
  const double start = NowS();
  const double deadline = start + seconds;
  bool open = true;
  for (;;) {
    open = open && NowS() < deadline;
    bool busy = false;
    bool progressed = false;
    for (size_t k = 0; k < slots.size(); ++k) {
      Slot& slot = slots[k];
      if (!slot.busy && open) {
        slot.request = stream.Next();
        const double t0 = NowS();
        auto submitted = [&] {
          Scope s(tracer, "serve.QueryService::Submit", "serve");
          return service.Submit(slot.request);
        }();
        w.submit_s += NowS() - t0;
        if (!submitted.ok()) {
          w.Failed(submitted.status());
          continue;
        }
        slot.future = std::move(*submitted);
        slot.submitted = t0;
        slot.busy = true;
      }
      if (!slot.busy) continue;
      if (slot.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        busy = true;
        continue;
      }
      serve::Response response = slot.future.get();
      const double done = NowS();
      slot.busy = false;
      progressed = true;
      const bool counted = done <= deadline;
      if (!response.status.ok()) {
        if (counted) w.Failed(response.status);
        continue;
      }
      log->Record(slot.request, response.output_digest, report);
      if (!counted) continue;
      const serve::RequestTiming& t = response.timing;
      const double bs = std::max<uint32_t>(response.batch_size, 1);
      ++w.ok;
      const core::RunStats& st = response.stats;
      w.latency_ms.Add((done - slot.submitted) * 1e3);
      w.run_ms.Add(t.run_ms);
      w.queue_ms += t.queue_wait_ms;
      w.coalesce_ms += t.coalesce_ms;
      w.run_s += t.run_ms / 1e3 / bs;
      w.batch_sum += bs;
      if (response.batch_size > 1) ++w.coalesced;
      w.edges += static_cast<double>(st.edges_traversed) / bs;
      w.modeled += st.seconds / bs;
      w.tp_seconds += st.tp_overhead_seconds / bs;
      w.iterations += st.iterations / bs;
      w.frontier += static_cast<double>(st.frontier_nodes) / bs;
      const int64_t span =
          tracer->Add("serve.request", "serve", slot.submitted, done, -1,
                      static_cast<uint32_t>(100 + k), slot.request.id);
      double cursor = slot.submitted;
      for (const auto& [name, ms] :
           {std::pair<const char*, double>{"serve.queue", t.queue_wait_ms},
            {"serve.coalesce", t.coalesce_ms},
            {"serve.run", t.run_ms}}) {
        const double end = std::min(done, cursor + ms / 1e3);
        tracer->Add(name, "serve", cursor, end, span,
                    static_cast<uint32_t>(100 + k), slot.request.id);
        cursor = end;
      }
    }
    if (!open && !busy) break;
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  w.seconds = seconds;
  return w;
}

struct SetupTimes {
  double total = 0, generate = 0;
};

std::unique_ptr<Stack> Setup(Shape* shape, bool mixed, bool smoke,
                             SetupTimes* times, Tracer* tracer) {
  Scope setup_span(tracer, "setup", "bench");
  const double t0 = NowS();
  {
    Scope s(tracer, "graph.Generate", "graph");
    const bool first = shape->graphs.empty();
    std::vector<std::vector<NodeId>> pools;
    for (const GraphDef& g : shape->graphs) pools.push_back(g.pool);
    *shape = MakeShape(mixed, smoke);
    if (!first) {
      for (size_t i = 0; i < pools.size(); ++i) shape->graphs[i].pool = pools[i];
    }
  }
  times->generate = NowS() - t0;
  if (shape->graphs[0].pool.empty()) {
    // Input preparation for the benchmark, not set-up of the system.
    for (GraphDef& g : shape->graphs) g.pool = DegreePool(g.csr, kPoolSize, 8);
  }
  const double t1 = NowS();
  auto stack = std::make_unique<Stack>();
  stack->registry.set_memory_budget_bytes(shape->registry_budget);
  for (const GraphDef& g : shape->graphs) {
    graph::Csr copy = g.csr;
    Scope s(tracer, "serve.GraphRegistry::Add", "serve");
    const sage::util::Status added = stack->registry.Add(g.name, std::move(copy));
    SAGE_CHECK(added.ok()) << added.ToString();
  }
  stack->service =
      std::make_unique<serve::QueryService>(&stack->registry, shape->options);
  if (shape->mixed) stack->registry.set_evictor(stack->service.get());
  // Time to first answer: one BFS per graph builds its first warm engine.
  std::vector<std::future<serve::Response>> first;
  for (const GraphDef& g : shape->graphs) {
    serve::Request r;
    r.graph = g.name;
    r.app = "bfs";
    r.params.sources = {g.pool.at(0)};
    first.push_back(std::move(stack->service->Submit(r)).value());
  }
  for (auto& f : first) SAGE_CHECK(f.get().status.ok());
  times->total = times->generate + (NowS() - t1);
  return stack;
}

uint64_t CounterOf(const sage::util::MetricsSnapshot& snap,
                   const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(prefix, 0) == 0) sum += value;
  }
  return sum;
}

Report RunServe(const Options& options, bool mixed) {
  Report report;
  Tracer tracer(options.trace);
  Shape shape;
  std::vector<SetupTimes> reps(kSetupReps);
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetupReps; ++r) {
    stack.reset();
    stack = Setup(&shape, mixed, options.smoke, &reps[r], &tracer);
  }
  std::vector<double> setup_totals, generate;
  for (const SetupTimes& t : reps) {
    setup_totals.push_back(t.total);
    generate.push_back(t.generate);
  }

  RequestStream stream(shape, options.seed);
  DigestLog log;
  tracer.set_enabled(false);
  ClosedLoop(*stack->service, stream, shape.outstanding,
             options.smoke ? 0.5 : 2.0, &tracer, &log, &report);

  // Mid-run loads (serve-mixed) run on their own thread, evenly spaced
  // through the window, so graph loads and evictions overlap queries.
  auto window = [&](double seconds) {
    std::vector<double> add_s(shape.loads.size());
    std::thread loader;
    std::vector<sage::util::Status> load_status(shape.loads.size());
    if (mixed) {
      const double start = NowS();
      loader = std::thread([&, start, seconds] {
        for (size_t i = 0; i < shape.loads.size(); ++i) {
          const double at = start + seconds * static_cast<double>(i + 1) /
                                        static_cast<double>(shape.loads.size() + 1);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::max(0.0, at - NowS())));
          graph::Csr copy = shape.loads[i].csr;
          const std::string name =
              shape.loads[i].name + "." + std::to_string(NowS());
          Scope s(&tracer, "serve.GraphRegistry::Add", "serve", 1);
          const double a = NowS();
          load_status[i] = stack->registry.Add(name, std::move(copy));
          add_s[i] = NowS() - a;
        }
      });
    }
    Window w = ClosedLoop(*stack->service, stream, shape.outstanding, seconds,
                          &tracer, &log, &report);
    if (loader.joinable()) loader.join();
    for (size_t i = 0; i < load_status.size(); ++i) {
      w.add_s += add_s[i];
      if (!load_status[i].ok()) w.Failed(load_status[i]);
    }
    if (!w.first_error.empty()) report.facts.push_back({"error", w.first_error});
    return w;
  };

  const Window plain =
      window(options.trace ? options.seconds / 2 : options.seconds);
  const double rss = PeakRssMiB();
  report.attempted = plain.ok + plain.failed + shape.loads.size();
  report.failed = plain.failed;
  report.E2e("setup_s", Median(setup_totals),
             std::to_string(kSetupReps) + " setups, median");
  report.E2e("sim_meps", plain.edges / plain.seconds / 1e6);
  report.E2e("modeled_gteps",
             plain.modeled > 0 ? plain.edges / plain.modeled / 1e9 : 0.0);
  report.E2e("throughput", static_cast<double>(plain.ok) / plain.seconds);
  report.E2e("latency_p50_ms", plain.latency_ms.Percentile(50),
             "n=" + std::to_string(plain.latency_ms.count()) + ", " +
                 std::to_string(plain.latency_ms.Beyond(50)) + " beyond");
  report.E2e("latency_p90_ms", plain.latency_ms.Percentile(90),
             "n=" + std::to_string(plain.latency_ms.count()) + ", " +
                 std::to_string(plain.latency_ms.Beyond(90)) + " beyond");
  report.E2e("peak_rss_mb", rss);

  report.facts.push_back(
      {"workers", std::to_string(shape.options.worker_threads)});
  report.facts.push_back({"outstanding", std::to_string(shape.outstanding)});

  Window traced;
  if (options.trace) {
    tracer.set_enabled(true);
    traced = window(options.seconds / 2);
  }

  // Drain is done; check every distinct request against a solo run.
  const double v0 = NowS();
  std::map<std::string, const graph::Csr*> graphs;
  for (const GraphDef& g : shape.graphs) graphs[g.name] = &g.csr;
  const Samples creates = log.Verify(graphs, &report);
  const double verify_s = NowS() - v0;
  report.facts.push_back({"distinct_requests", std::to_string(log.size())});
  if (!options.trace) return report;

  const sage::util::MetricsSnapshot snap = stack->service->metrics().Snapshot();
  const double tn = static_cast<double>(std::max<uint64_t>(traced.ok, 1));
  const double latency_ms = traced.latency_ms.Sum();
  report.Layer("graph.generate_s", Median(generate));
  report.Layer("core.create_ms", creates.Percentile(50),
               "solo verification engines");
  report.Layer("core.run_ms.p50", traced.run_ms.Percentile(50));
  report.Layer("core.run_ms.p90", traced.run_ms.Percentile(90));
  report.Layer("core.host_ns_per_edge", traced.run_s / traced.edges * 1e9);
  report.Layer("core.edges_traversed", traced.edges);
  report.Layer("core.iterations", traced.iterations);
  report.Layer("core.frontier_nodes", traced.frontier);
  report.Layer("core.tp_overhead_frac", traced.tp_seconds / traced.modeled);
  report.Layer("sim.gpu_seconds", traced.modeled);
  report.Layer("sim.modeled_ms_per_op", traced.modeled / tn * 1e3);
  report.Layer("serve.submit_frac", traced.submit_s / traced.seconds);
  report.Layer("serve.queue_frac", traced.queue_ms / latency_ms);
  report.Layer("serve.coalesce_frac", traced.coalesce_ms / latency_ms);
  report.Layer("serve.run_frac", traced.run_ms.Sum() / latency_ms);
  report.Layer("serve.batch_size_mean", traced.batch_sum / tn);
  report.Layer("serve.coalesced_frac",
               static_cast<double>(traced.coalesced) / tn);
  report.Layer("serve.engines_created",
               static_cast<double>(CounterOf(snap, "serve.engines_created")));
  report.Layer("serve.pool_evictions",
               static_cast<double>(CounterOf(snap, "serve.cache.evictions")));
  report.Layer("serve.registry_add_frac", traced.add_s / traced.seconds);
  report.Layer("serve.shed", static_cast<double>(CounterOf(snap, "serve.shed.")));
  report.Layer("serve.rejected",
               static_cast<double>(CounterOf(snap, "serve.rejected") +
                                   CounterOf(snap, "serve.quota_rejections")));
  report.Layer("serve.retries",
               static_cast<double>(CounterOf(snap, "serve.retries")));
  report.SelfFractions(tracer, {traced.root});
  report.Layer("trace_overhead",
               plain.ok > 0 && traced.ok > 0
                   ? (static_cast<double>(plain.ok) / plain.seconds) /
                             (static_cast<double>(traced.ok) / traced.seconds) -
                         1
                   : 0.0);
  report.Layer("verify_s", verify_s);
  WriteTraceFiles(options, tracer,
                  {{"generator thread, timed window (traced half)",
                    {traced.root}},
                   {"requests (submit -> observed response)",
                    tracer.Roots("serve.request")},
                   {"mid-run graph loads",
                    tracer.Roots("serve.GraphRegistry::Add")},
                   {"setups", tracer.Roots("setup")}});
  return report;
}

}  // namespace

Report RunServeBfs(const Options& options) { return RunServe(options, false); }
Report RunServeMixed(const Options& options) { return RunServe(options, true); }

}  // namespace sagebench
