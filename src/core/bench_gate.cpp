#include "core/bench_gate.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace razorbus::core {

namespace {

// The throughput metrics (unit "1/s") of one result line, name -> value.
// std::map keeps the comparison output in a stable order.
std::map<std::string, double> throughput_metrics(const Json& line,
                                                 const std::string& what) {
  const auto reject = [&what](const std::string& why) {
    return std::invalid_argument(what +
                                 " is not a passing benchmark result line: " + why);
  };
  if (!line.is_object()) throw reject("not a JSON object");
  const Json* correct = line.find("correct");
  if (correct == nullptr || !correct->is_bool() || !correct->as_bool())
    throw reject("\"correct\" is not true");
  const Json* metrics = line.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) throw reject("no \"metrics\" object");

  std::map<std::string, double> out;
  for (const auto& [name, metric] : metrics->members()) {
    const Json* value = metric.find("value");
    const Json* unit = metric.find("unit");
    if (value == nullptr || !value->is_number() || unit == nullptr || !unit->is_string())
      throw reject("metric \"" + name +
                   "\" is not {\"value\": number, \"unit\": string}");
    if (unit->as_string() == "1/s") out[name] = value->as_double();
  }
  return out;
}

}  // namespace

BenchGateResult compare_bench_history(const std::vector<Json>& history,
                                      const Json& current, double threshold) {
  // Per-metric value series across the window; a metric missing from some
  // entries (workload added mid-window) is judged on the entries it has.
  std::map<std::string, std::vector<double>> series;
  for (std::size_t i = 0; i < history.size(); ++i)
    for (const auto& [name, value] :
         throughput_metrics(history[i], "history entry " + std::to_string(i)))
      series[name].push_back(value);
  const std::map<std::string, double> cur_metrics =
      throughput_metrics(current, "the current line");

  BenchGateResult result;
  for (auto& [name, values] : series) {
    const auto cur = cur_metrics.find(name);
    if (cur == cur_metrics.end()) {
      result.missing.push_back(name);
      continue;
    }
    std::sort(values.begin(), values.end());
    BenchGateFinding finding;
    finding.name = name;
    finding.baseline = values[(values.size() - 1) / 2];  // lower median
    finding.current = cur->second;
    finding.ratio = finding.baseline > 0.0 ? finding.current / finding.baseline : 1.0;
    finding.regression = finding.baseline > 0.0 &&
                         finding.current < finding.baseline * (1.0 - threshold);
    result.compared.push_back(std::move(finding));
  }
  for (const auto& [name, value] : cur_metrics) {
    (void)value;
    if (series.find(name) == series.end()) result.added.push_back(name);
  }
  return result;
}

}  // namespace razorbus::core
