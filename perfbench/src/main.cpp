// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//   perfbench --self-test
//
// One single-threaded process drives the libraries through their public
// functions only; see README.md beside this file for the workloads and the
// metric -> layer -> workload map.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones.  The exit code is
// 0 only when every correctness check passed.
#include <charconv>
#include <cmath>
#include <iostream>
#include <string_view>

#include "bench.hpp"
#include "core/args.hpp"
#include "core/error.hpp"

namespace {

using perfbench::Metrics;
using perfbench::Options;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},          {"peak_rss_mb", "MB"},
    {"estimate_p50_us", "us"}, {"estimate_p99_us", "us"}, {"event_p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"exp.cells", "count"},
    {"exp.cell_p50_s", "s"},
    {"exp.cell_max_s", "s"},
    {"sim.self_s", "s"},
    {"sched.select_starts.calls", "count"},
    {"sched.select_starts.self_s", "s"},
    {"sched.select_starts.p99_us", "us"},
    {"predict.estimate.calls", "count"},
    {"predict.estimate.self_s", "s"},
    {"predict.estimate.p50_ns", "ns"},
    {"predict.estimate.p99_ns", "ns"},
    {"predict.job_completed.calls", "count"},
    {"predict.job_completed.self_s", "s"},
    {"waitpred.on_submit.calls", "count"},
    {"waitpred.on_submit.self_s", "s"},
    {"waitpred.on_submit.p99_us", "us"},
    {"service.request.SUBMIT.count", "count"},
    {"service.request.SUBMIT.p50_us", "us"},
    {"service.request.SUBMIT.p999_us", "us"},
    {"service.request.START.count", "count"},
    {"service.request.START.p50_us", "us"},
    {"service.request.START.p999_us", "us"},
    {"service.request.FINISH.count", "count"},
    {"service.request.FINISH.p50_us", "us"},
    {"service.request.FINISH.p999_us", "us"},
    {"service.request.ESTIMATE.count", "count"},
    {"service.request.ESTIMATE.p50_us", "us"},
    {"service.request.ESTIMATE.p999_us", "us"},
    {"service.request.INTERVAL.count", "count"},
    {"service.request.INTERVAL.p50_us", "us"},
    {"service.request.INTERVAL.p999_us", "us"},
    {"service.protocol.parse_ns", "ns"},
    {"service.session.cache_hits", "count"},
    {"service.session.cache_misses", "count"},
    {"sched.shadow.rebuilds", "count"},
    {"sched.shadow.repairs", "count"},
    {"sched.shadow.bookings", "count"},
    {"sched.shadow.reused", "count"},
    {"sched.shadow.easy_replays", "count"},
    {"service.journal.records", "count"},
    {"service.journal.bytes", "B"},
    {"service.journal.bytes_per_event", "B"},
    {"service.journal.snapshots", "count"},
    {"service.journal.syncs", "count"},
    {"service.journal.snapshot_line_p50_us", "us"},
    {"service.journal.snapshot_line_max_us", "us"},
    {"service.journal.snapshot_share", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.span_ns", "ns"},
    {"trace.span_inside_ns", "ns"},
};

const std::string_view kWorkloads[] = {"tables-stf", "tables-maxrt", "service-poll",
                                       "service-journal"};

Outcome run(const Options& options) {
  if (options.workload == "tables-stf") return perfbench::run_tables(options, true);
  if (options.workload == "tables-maxrt") return perfbench::run_tables(options, false);
  if (options.workload == "service-poll") return perfbench::run_service(options, false);
  if (options.workload == "service-journal") return perfbench::run_service(options, true);
  throw rtp::Error("unknown workload '" + options.workload +
                   "' (tables-stf|tables-maxrt|service-poll|service-journal)");
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

template <std::size_t N>
std::string metrics_json(const MetricSpec (&specs)[N], const Metrics& metrics,
                         bool missing_is_zero, Outcome& out) {
  std::string json = "{";
  for (const MetricSpec& spec : specs) {
    const auto it = metrics.find(spec.name);
    double value = 0.0;
    if (it != metrics.end()) {
      value = it->second;
    } else if (!missing_is_zero) {
      out.fail(std::string("metric ") + spec.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      out.fail(std::string("metric ") + spec.name + " is not finite");
      value = 0.0;
    }
    if (json.size() > 1) json += ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  return json + "}";
}

int self_test() {
  // Two traced runs of every workload on the same small input must repeat
  // every operation count exactly and pass every correctness check.
  bool ok = true;
  for (std::string_view name : kWorkloads) {
    Options options;
    options.workload = std::string(name);
    options.seed = 7;
    options.seconds = 0.0;  // one round of each kind
    options.trace = true;
    options.scale = 0.03;
    const Outcome a = run(options);
    const Outcome b = run(options);
    const bool same = a.op_counts == b.op_counts && !a.op_counts.empty();
    std::cout << "self-test " << name << ": " << a.op_counts.size() << " op counts "
              << (same ? "repeat" : "DIFFER") << ", checks "
              << (a.correct && b.correct ? "pass" : "FAIL") << "\n";
    for (const auto& [key, value] : a.op_counts) std::cout << "  " << key << " " << value << "\n";
    for (const std::string& f : a.failures) std::cout << "  failure: " << f << "\n";
    ok = ok && same && a.correct && b.correct;
  }
  std::cout << (ok ? "self-test ok" : "self-test FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    rtp::ArgParser args(argc, argv);
    args.add_option("workload", "tables-stf|tables-maxrt|service-poll|service-journal", "");
    args.add_option("seed", "input seed", "1");
    args.add_option("seconds", "measured seconds per run", "10");
    args.add_option("trace", "0 = end-to-end metrics, 1 = per-layer metrics", "0");
    args.add_option("spans", "traced runs write their spans here", "");
    args.add_flag("self-test", "check op-count determinism on a small input");
    if (!args.parse()) return 0;
    if (args.flag("self-test")) return self_test();
    options.workload = args.str("workload");
    const long long seed = args.integer("seed");
    RTP_CHECK(seed >= 0, "--seed must be >= 0");
    options.seed = static_cast<std::uint64_t>(seed);
    options.seconds = args.real("seconds");
    RTP_CHECK(options.seconds > 0.0 && options.seconds <= 600.0,
              "--seconds must be in (0, 600]");
    const std::string trace = args.str("trace");
    RTP_CHECK(trace == "0" || trace == "1", "--trace must be 0 or 1");
    options.trace = trace == "1";
    options.spans_path = args.str("spans");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  Outcome out;
  try {
    out = run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  const std::string metrics = options.trace
                                  ? metrics_json(kPerLayer, out.metrics, true, out)
                                  : metrics_json(kEndToEnd, out.metrics, false, out);
  for (const auto& [name, value] : out.metrics)
    std::cerr << "perfbench: " << name << " = " << number(value) << "\n";
  for (const std::string& f : out.failures) std::cerr << "perfbench: FAILED " << f << "\n";
  const double error_rate = out.attempted > 0 ? static_cast<double>(out.failed) /
                                                    static_cast<double>(out.attempted)
                                              : 0.0;
  std::cout << "perfbench workload=" << options.workload << " seed=" << options.seed
            << " trace=" << (options.trace ? 1 : 0) << " attempted=" << out.attempted
            << " failed=" << out.failed << " error_rate=" << number(error_rate)
            << " correct=" << (out.correct ? "true" : "false") << "\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return out.correct ? 0 : 1;
}
