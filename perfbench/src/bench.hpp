// Shared pieces of the benchmark driver: options, the metric registry and
// the per-workload entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string spans_path;
  /// Reduced trace scale; below 1 only for the self-test.
  double scale = 1.0;
};

/// Metric values by name, in the units the registry in main.cpp declares.
using Metrics = std::map<std::string, double>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< cells or requests in the timed rounds
  std::uint64_t failed = 0;     ///< failed cells or ERR responses
  Metrics metrics;
  /// Deterministic per-round operation counts (must repeat for a seed).
  std::map<std::string, std::uint64_t> op_counts;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
  }
};

Outcome run_tables(const Options& options, bool stf);
Outcome run_service(const Options& options, bool journal);

// --- helpers shared by the workloads --------------------------------------

/// The paper's four sites (ANL, CTC, SDSC95, SDSC96) at `scale`: each
/// site's calibrated trace (the generator's canned seed), with every submit
/// time moved by a uniform offset of up to ten minutes either way, drawn
/// from `seed`.  Every schedule, prediction and stream then depends on the
/// seed while each site keeps its calibrated load shape (README.md).
std::vector<rtp::Workload> site_traces(double scale, std::uint64_t seed);

double median(std::vector<double> values);

struct SetupTime {
  double normalized_s = 0.0;  ///< median, normalized (SpeedProbe)
  double raw_s = 0.0;         ///< median, raw
};

/// Runs `setup` `repeats` times; the last run's products are what the
/// workload keeps.
SetupTime timed_setup(int repeats, const std::function<void()>& setup);

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// Seconds one fixed burst of reference work takes right now (best of
/// three).  The work is the benchmark's own (sorting and hashing a fixed
/// array), so no change to the libraries can move it; only the speed the
/// machine gives this process does.
double reference_burst();

/// Machine-speed normalization.  The CPU speed a process gets on a shared
/// host swings by 30-50% within a minute (README.md), so every end-to-end
/// timing is reported in normalized seconds: raw seconds times
/// kReferenceSeconds over the reference burst time measured just before
/// and just after the timed unit of work.  Bursts run outside timed spans.
class SpeedProbe {
 public:
  static constexpr double kReferenceSeconds = 1e-3;

  SpeedProbe();  ///< burst before the first unit
  /// Ends a unit: returns its normalization factor.  The closing burst is
  /// also the opening burst of the next unit.
  double next();

 private:
  double before_;
};


}  // namespace perfbench
