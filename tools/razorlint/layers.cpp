// The src/ layer DAG (docs/architecture.md "Layer map"), as data.
//
// razorlint enforces these edges on every quoted #include in src/: a layer
// may include itself and the layers listed here, nothing else. The table is
// the single source of truth — docs/architecture.md describes it, the
// layer-dag rule enforces it, and layer_dag_cycle() proves it stays a DAG
// (tests/lint_test.cpp runs that proof).
#include "razorlint.hpp"

#include <functional>
#include <map>

namespace razorlint {

const std::vector<std::pair<std::string, std::vector<std::string>>>& layer_dag() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>> kDag = {
      // multi-bus shared-supply systems — composes the drivers' machinery
      {"sys", {"bus", "core", "drift", "dvs", "tech", "trace", "util"}},
      // campaign service (queue/cache/scheduler) — sits above the drivers
      {"svc", {"core", "bus", "cpu", "dvs", "gatesim", "interconnect", "lut",
               "razor", "spice", "tech", "trace", "util"}},
      // experiment drivers — may see the whole library
      {"core", {"bus", "cpu", "drift", "dvs", "gatesim", "interconnect", "lut",
                "razor", "spice", "tech", "trace", "util"}},
      // control loop — engine and below, plus the trace types it consumes
      {"dvs", {"bus", "interconnect", "lut", "razor", "tech", "trace", "util"}},
      // cycle engine
      {"bus", {"interconnect", "lut", "razor", "tech", "trace", "util"}},
      // receivers
      {"razor", {"lut", "tech", "util"}},
      // characterization
      {"lut", {"interconnect", "spice", "tech", "util"}},
      // gate-level reference sim (standalone circuits-adjacent layer)
      {"gatesim", {"tech", "util"}},
      // lifetime drift schedules (pure corner math, no engine dependency)
      {"drift", {"tech", "util"}},
      // circuits
      {"interconnect", {"spice", "tech", "util"}},
      {"spice", {"tech", "util"}},
      {"tech", {"util"}},
      // workloads
      {"cpu", {"trace", "util"}},
      {"trace", {"util"}},
      // support — the floor: may never include upward
      {"util", {}},
  };
  return kDag;
}

std::string layer_dag_cycle() {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [layer, deps] : layer_dag()) adj[layer] = deps;

  // Iterative DFS with colors; returns the first cycle found (deterministic:
  // layers and edge lists are iterated in table order).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::string cycle;
  std::function<bool(const std::string&, std::vector<std::string>&)> visit =
      [&](const std::string& node, std::vector<std::string>& path) -> bool {
    color[node] = 1;
    path.push_back(node);
    for (const std::string& next : adj[node]) {
      if (!adj.count(next)) continue;  // edges to unknown layers are rule errors
      if (color[next] == 1) {
        cycle = next;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          cycle += " <- " + *it;
          if (*it == next) break;
        }
        return true;
      }
      if (color[next] == 0 && visit(next, path)) return true;
    }
    path.pop_back();
    color[node] = 2;
    return false;
  };
  for (const auto& [layer, deps] : layer_dag()) {
    (void)deps;
    std::vector<std::string> path;
    if (color[layer] == 0 && visit(layer, path)) return cycle;
  }
  return "";
}

}  // namespace razorlint
