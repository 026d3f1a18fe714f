// Helpers the SageBench workloads share: the simulated device, source pools,
// the correctness oracle, and the workload entry points.
#ifndef SAGEBENCH_COMMON_H_
#define SAGEBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/filter.h"
#include "core/sharded_engine.h"
#include "graph/csr.h"
#include "measure.h"
#include "sim/device_spec.h"

namespace sagebench {

/// The simulated GPU every workload runs on: the default 72-SM device with
/// a 64 KiB L2, so the bench-scale graphs keep the paper's
/// graph-much-larger-than-cache regime.
sage::sim::DeviceSpec BenchSpec();

/// Host threads the multi-threaded workloads use: min(4, hardware threads).
uint32_t BenchThreads();

/// `count` nodes of out-degree >= `min_degree`, drawn with a fixed seed so
/// the pool depends on the graph only (repeats allowed on small graphs).
std::vector<sage::graph::NodeId> DegreePool(const sage::graph::Csr& csr,
                                            size_t count, uint32_t min_degree);

/// Sources whose BFS reaches at least 90% as many nodes as the best of 64
/// fixed degree >= 8 candidates, at the most common BFS depth among those.
/// Sources drawn from it give traversals of about equal size and iteration
/// count, so a seed changes which nodes are sources, not how much work a
/// run does.
std::vector<sage::graph::NodeId> ReachPool(const sage::graph::Csr& csr);

/// Read access to one run's per-node answers, whichever engine produced
/// them. Only the member matching the app is set.
struct Outputs {
  std::function<uint32_t(sage::graph::NodeId)> bfs_distance;
  std::function<uint64_t(sage::graph::NodeId)> sssp_distance;
  std::function<double(sage::graph::NodeId)> rank;
  std::function<bool(uint32_t, sage::graph::NodeId)> msbfs_reached;
};

/// Outputs of a registry program after apps::RunApp (dispatches on name()).
Outputs OutputsOf(const sage::core::FilterProgram& program);
/// Outputs of a sharded engine's last run of `app`.
Outputs OutputsOf(const sage::core::ShardedEngine& engine,
                  const std::string& app);

/// Checks a run against the apps/reference.h oracles: bfs, sssp and msbfs
/// reachability exactly, pagerank within 1e-9 per node. Apps without an
/// oracle (kcore) pass. Returns "" on success, else the first mismatch.
std::string CheckAgainstOracle(const sage::graph::Csr& csr,
                               const std::string& app,
                               const sage::apps::AppParams& params,
                               const Outputs& outputs);

/// Stable text key of one (graph, app, params) operation: operations with
/// equal keys must produce equal output digests.
std::string OpKey(const std::string& graph, const std::string& app,
                  const sage::apps::AppParams& params);

/// Workload entry points (traverse.cc, serve.cc).
Report RunTraverse(const Options& options);
Report RunTraverseMt(const Options& options);
Report RunServeBfs(const Options& options);
Report RunServeMixed(const Options& options);

}  // namespace sagebench

#endif  // SAGEBENCH_COMMON_H_
