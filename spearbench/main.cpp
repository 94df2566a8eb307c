// spearbench: runs one named workload for a given number of seconds and
// prints, as the last line of stdout, one JSON object with the operations
// attempted and failed, whether every output passed the benchmark's own
// checker, and the metrics (end-to-end, or per-layer with --trace 1).
//
//   spearbench --workload offline_serial --seed 3 --seconds 20 --trace 0
//
// Run it from the root of a checkout: it reads bench_policy.txt there.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "nn/serialize.h"
#include "traced.h"

namespace spearbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double windowed_rate(const std::vector<double>& done_s, std::size_t window) {
  std::vector<double> rates;
  for (std::size_t end = window; end <= done_s.size(); end += window) {
    const double from = end == window ? 0.0 : done_s[end - window - 1];
    rates.push_back(static_cast<double>(window) / (done_s[end - 1] - from));
  }
  return median(rates);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

ResourceVector bench_capacity() { return ResourceVector{1.0, 1.0}; }

std::shared_ptr<const spear::Policy> load_bench_policy() {
  const std::size_t resource_dims = 2;
  spear::Featurizer featurizer;
  spear::Mlp net = spear::load_mlp("bench_policy.txt");
  if (net.input_dim() != featurizer.input_dim(resource_dims) ||
      net.output_dim() != featurizer.num_actions()) {
    throw std::runtime_error("bench_policy.txt has the wrong shape");
  }
  return std::make_shared<const spear::Policy>(featurizer, std::move(net),
                                               resource_dims);
}

namespace {

RunOptions parse_args(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") throw std::invalid_argument("--trace");
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || !have_workload || !(options.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: spearbench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1]");
  }
  return options;
}

void print_result(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace spearbench

int main(int argc, char** argv) {
  using namespace spearbench;
  try {
    const RunOptions options = parse_args(argc, argv);
    RunResult result;
    if (options.workload == "offline_serial") {
      result = run_offline(options, /*leaf=*/false);
    } else if (options.workload == "offline_leaf") {
      result = run_offline(options, /*leaf=*/true);
    } else if (options.workload == "serviced") {
      result = run_serviced(options);
    } else if (options.workload == "online_replay") {
      result = run_online_replay(options);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    if (const auto why = checker_self_test(load_bench_policy())) {
      result.fail("checker self-test: " + *why);
    }
    if (!result.correct) {
      std::fprintf(stderr, "spearbench: check failed: %s\n",
                   result.why.c_str());
    }
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spearbench: %s\n", e.what());
    return 1;
  }
}
