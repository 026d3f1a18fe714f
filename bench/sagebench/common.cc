#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "apps/bfs.h"
#include "apps/msbfs.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sagebench {

namespace apps = sage::apps;
namespace graph = sage::graph;
using graph::NodeId;

sage::sim::DeviceSpec BenchSpec() {
  sage::sim::DeviceSpec spec;
  spec.l2_bytes = 64 << 10;
  return spec;
}

uint32_t BenchThreads() {
  return std::min<uint32_t>(4, sage::util::ThreadPool::HardwareThreads());
}

std::vector<NodeId> DegreePool(const graph::Csr& csr, size_t count,
                               uint32_t min_degree) {
  sage::util::Rng rng(0x5a6e5a6eull);
  std::vector<NodeId> pool;
  for (uint64_t tries = 0; pool.size() < count && tries < 1'000'000; ++tries) {
    const NodeId v = rng.UniformU32(csr.num_nodes());
    if (csr.OutDegree(v) >= min_degree) pool.push_back(v);
  }
  return pool;
}

std::vector<NodeId> ReachPool(const graph::Csr& csr) {
  const std::vector<NodeId> candidates = DegreePool(csr, 64, 8);
  std::vector<uint64_t> reach(candidates.size());
  std::vector<uint32_t> depth(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (uint32_t d : apps::BfsReference(csr, candidates[i])) {
      if (d == apps::BfsProgram::kUnreached) continue;
      ++reach[i];
      depth[i] = std::max(depth[i], d);
    }
  }
  const uint64_t best = reach.empty() ? 0 : *std::max_element(reach.begin(),
                                                              reach.end());
  auto wide = [&](size_t i) {
    return static_cast<double>(reach[i]) >= 0.9 * static_cast<double>(best);
  };
  // Among the wide candidates, keep the most common BFS depth: equal depth
  // means an equal number of iterations, each of which costs a launch.
  std::map<uint32_t, size_t> depths;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (wide(i)) ++depths[depth[i]];
  }
  uint32_t common = 0;
  size_t count = 0;
  for (const auto& [d, n] : depths) {
    if (n > count) common = d, count = n;
  }
  std::vector<NodeId> pool;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (wide(i) && depth[i] == common) pool.push_back(candidates[i]);
  }
  return pool;
}

Outputs OutputsOf(const sage::core::FilterProgram& program) {
  Outputs out;
  const char* name = program.name();
  if (std::strcmp(name, "bfs") == 0) {
    const auto* p = static_cast<const apps::BfsProgram*>(&program);
    out.bfs_distance = [p](NodeId v) { return p->DistanceOf(v); };
  } else if (std::strcmp(name, "sssp") == 0) {
    const auto* p = static_cast<const apps::SsspProgram*>(&program);
    out.sssp_distance = [p](NodeId v) { return p->DistanceOf(v); };
  } else if (std::strcmp(name, "pagerank") == 0) {
    const auto* p = static_cast<const apps::PageRankProgram*>(&program);
    out.rank = [p](NodeId v) { return p->RankOf(v); };
  } else if (std::strcmp(name, "multi-source-bfs") == 0) {
    const auto* p = static_cast<const apps::MultiSourceBfsProgram*>(&program);
    out.msbfs_reached = [p](uint32_t i, NodeId v) { return p->Reached(i, v); };
  }
  return out;
}

Outputs OutputsOf(const sage::core::ShardedEngine& engine,
                  const std::string& app) {
  Outputs out;
  const auto* e = &engine;
  if (app == "bfs") {
    out.bfs_distance = [e](NodeId v) { return e->DistanceOf(v); };
  } else if (app == "pagerank") {
    out.rank = [e](NodeId v) { return e->RankOf(v); };
  } else if (app == "msbfs") {
    out.msbfs_reached = [e](uint32_t i, NodeId v) { return e->Reached(i, v); };
  }
  return out;
}

namespace {

std::string Mismatch(const std::string& app, NodeId v, const std::string& got,
                     const std::string& want) {
  return app + ": node " + std::to_string(v) + " is " + got +
         ", the reference says " + want;
}

}  // namespace

std::string CheckAgainstOracle(const graph::Csr& csr, const std::string& app,
                               const apps::AppParams& params,
                               const Outputs& outputs) {
  const NodeId n = csr.num_nodes();
  if (app == "bfs") {
    const std::vector<uint32_t> want =
        apps::BfsReference(csr, params.sources.at(0));
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t got = outputs.bfs_distance(v);
      if (got != want[v]) {
        return Mismatch(app, v, std::to_string(got), std::to_string(want[v]));
      }
    }
  } else if (app == "sssp") {
    const std::vector<uint64_t> want =
        apps::SsspReference(csr, params.sources.at(0));
    for (NodeId v = 0; v < n; ++v) {
      const uint64_t got = outputs.sssp_distance(v);
      if (got != want[v]) {
        return Mismatch(app, v, std::to_string(got), std::to_string(want[v]));
      }
    }
  } else if (app == "pagerank") {
    const std::vector<double> want =
        apps::PageRankReference(csr, params.iterations);
    for (NodeId v = 0; v < n; ++v) {
      const double got = outputs.rank(v);
      if (!(std::fabs(got - want[v]) <= 1e-9)) {
        return Mismatch(app, v, std::to_string(got), std::to_string(want[v]));
      }
    }
  } else if (app == "msbfs") {
    for (uint32_t i = 0; i < params.sources.size(); ++i) {
      const std::vector<uint32_t> want =
          apps::BfsReference(csr, params.sources[i]);
      for (NodeId v = 0; v < n; ++v) {
        const bool reached = want[v] != apps::BfsProgram::kUnreached;
        if (outputs.msbfs_reached(i, v) != reached) {
          return Mismatch(app + " instance " + std::to_string(i), v,
                          reached ? "unreached" : "reached",
                          reached ? "reached" : "unreached");
        }
      }
    }
  }
  return "";
}

std::string OpKey(const std::string& graph_name, const std::string& app,
                  const apps::AppParams& params) {
  std::string key = graph_name + "/" + app;
  if (app == "pagerank") {
    key += "/it" + std::to_string(params.iterations);
  } else if (app == "kcore") {
    key += "/k" + std::to_string(params.k);
  } else {
    for (NodeId s : params.sources) key += "/" + std::to_string(s);
  }
  return key;
}

}  // namespace sagebench
