#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "trace.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

std::vector<rtp::Workload> site_traces(double scale, std::uint64_t seed) {
  constexpr double kJitterSeconds = 600.0;
  std::vector<rtp::Workload> sites;
  rtp::Rng rng(seed);
  for (const rtp::SyntheticConfig& config :
       {rtp::anl_config(scale), rtp::ctc_config(scale), rtp::sdsc95_config(scale),
        rtp::sdsc96_config(scale)}) {
    const rtp::Workload canned = rtp::generate_synthetic(config);
    std::vector<rtp::Job> jobs = canned.jobs();
    for (rtp::Job& job : jobs) {
      // Whole seconds, as in SWF traces: the text protocol prints times with
      // six fractional digits, so only such times replay bit for bit.
      const double jitter = rng.uniform(-kJitterSeconds, kJitterSeconds);
      job.submit = std::max(0.0, std::round(job.submit + jitter));
      job.runtime = std::round(job.runtime);
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const rtp::Job& a, const rtp::Job& b) { return a.submit < b.submit; });
    rtp::Workload w(canned.name(), canned.machine_nodes(), canned.fields());
    for (rtp::Job& job : jobs) w.add_job(std::move(job));
    w.finalize();
    w.validate();
    sites.push_back(std::move(w));
  }
  return sites;
}

double median(std::vector<double> values) {
  RTP_CHECK(!values.empty(), "median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SetupTime timed_setup(int repeats, const std::function<void()>& setup) {
  std::vector<double> normalized;
  std::vector<double> raw;
  SpeedProbe speed;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    raw.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    normalized.push_back(raw.back() * speed.next());
  }
  return {median(normalized), median(raw)};
}

SpeedProbe::SpeedProbe() : before_(reference_burst()) {}

double SpeedProbe::next() {
  const double after = reference_burst();
  const double factor = kReferenceSeconds / (0.5 * (before_ + after));
  before_ = after;
  return factor;
}

double reference_burst() {
  static std::vector<std::uint64_t> input = [] {
    std::vector<std::uint64_t> v(1 << 13);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t& e : v) e = x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return v;
  }();
  double best = 0.0;
  std::uint64_t sink = 0;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::int64_t t0 = now_ns();
    std::vector<std::uint64_t> work = input;
    std::sort(work.begin(), work.end());
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::size_t i = 0; i < work.size(); i += 4) map[work[i] >> 20] += i;
    for (const std::uint64_t e : input) sink += map.count(e >> 20);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    if (repeat == 0 || seconds < best) best = seconds;
  }
  RTP_CHECK(sink > 0, "reference burst lost its work");
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  RTP_CHECK(getrusage(RUSAGE_SELF, &usage) == 0, "getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
