// Batch workloads: paper table cells, run serially.
//
//   tables-stf    Table 6 cells (STF wait prediction) on an ANL-style and
//                 an SDSC-style site.  Category scans inside the predictor
//                 dominate; the forward simulation is a small share.
//   tables-maxrt  Tables 4, 5, 10 and 11 (actual and maximum run times;
//                 wait prediction and scheduling), every site and policy.
//                 The predictors are trivial, so the scheduling passes and
//                 the shadow forward simulations dominate.
//
// A cell is re-implemented from public pieces so each layer can be wrapped
// in a decorator: the predictor under test, the live scheduler's estimator
// and policy, the WaitTimeObserver and simulate() itself.  The result must
// equal wait_prediction_cell / scheduling_cell bit for bit.
#include <algorithm>
#include <array>
#include <optional>

#include "bench.hpp"
#include "core/time.hpp"
#include "exp/experiments.hpp"
#include "predict/recording.hpp"
#include "predict/simple.hpp"
#include "predict/stf.hpp"
#include "sched/policy.hpp"
#include "trace.hpp"
#include "waitpred/waitpred.hpp"

namespace perfbench {
namespace {

using rtp::PolicyKind;
using rtp::PredictorKind;

struct CellSpec {
  std::size_t site = 0;  ///< index into the generated workloads
  PolicyKind policy = PolicyKind::Fcfs;
  PredictorKind predictor = PredictorKind::MaxRuntime;
  bool wait = true;  ///< wait-prediction cell (Tables 4-9) or scheduling cell
};

/// A table row's numeric fields: WaitPredRow (error, percent, mean wait) or
/// SchedPerfRow (utilization, mean wait, run-time error, percent).
using Row = std::array<double, 4>;

std::string label(const std::vector<rtp::Workload>& sites, const CellSpec& c) {
  return sites[c.site].name() + "/" + rtp::to_string(c.policy) + "/" +
         rtp::to_string(c.predictor) + (c.wait ? "/wait" : "/sched");
}

std::unique_ptr<rtp::RuntimeEstimator> make_estimator(const rtp::Workload& w,
                                                      const CellSpec& c) {
  if (c.predictor == PredictorKind::Stf) {
    // As the experiment harness builds it: default templates, memoized keys.
    rtp::StfOptions options;
    options.memoize_keys = true;
    return std::make_unique<rtp::StfPredictor>(rtp::resolve_stf_templates(w, c.policy, {}),
                                               options);
  }
  return rtp::make_runtime_estimator(c.predictor, w);
}

/// One cell.  The live policy and the observer are always wrapped: they
/// give the end-to-end event latencies (appended to `event_ns`) and the
/// estimate latencies (on_submit spans).  `traced` wraps the cell,
/// simulate() and both estimators as well.
Row run_cell(const rtp::Workload& w, const CellSpec& c, Tracer& tracer, bool traced,
             std::vector<double>& event_ns) {
  Tracer* const full = traced ? &tracer : nullptr;
  const Span cell(full, Layer::Cell);
  const std::unique_ptr<rtp::RuntimeEstimator> estimator = make_estimator(w, c);
  const std::unique_ptr<rtp::SchedulerPolicy> policy = rtp::make_policy(c.policy);
  const TracedPolicy live_policy(*policy, tracer, &event_ns);
  std::optional<TracedEstimator> traced_estimator;
  rtp::RuntimeEstimator* predictor = estimator.get();
  if (traced) predictor = &traced_estimator.emplace(*estimator, tracer);

  if (c.wait) {
    // run_wait_prediction's setup: the live scheduler on maximum run times,
    // the predictor under test only in the shadow simulation.
    rtp::MaxRuntimePredictor live(w);
    std::optional<TracedEstimator> traced_live;
    rtp::RuntimeEstimator* live_estimator = &live;
    if (traced) live_estimator = &traced_live.emplace(live, tracer);
    rtp::WaitTimeObserver observer(*policy, *predictor);
    TracedObserver timed_observer(observer, tracer);
    {
      const Span sim(full, Layer::Sim);
      rtp::simulate(w, live_policy, *live_estimator, &timed_observer);
    }
    const double error = rtp::to_minutes(observer.error_stats().mean());
    const double wait = rtp::to_minutes(observer.wait_stats().mean());
    return {error, wait > 0.0 ? 100.0 * error / wait : 0.0, wait, 0.0};
  }
  rtp::RecordingEstimator recording(*predictor);
  std::optional<rtp::SimResult> sim;
  {
    const Span span(full, Layer::Sim);
    sim = rtp::simulate(w, live_policy, recording);
  }
  return {100.0 * sim->utilization, rtp::to_minutes(sim->mean_wait),
          rtp::to_minutes(recording.error_stats().mean()),
          recording.error_percent_of_mean_runtime()};
}

Row reference_cell(const rtp::Workload& w, const CellSpec& c) {
  if (c.wait) {
    const rtp::WaitPredRow r = rtp::wait_prediction_cell(w, c.policy, c.predictor);
    return {r.mean_error_minutes, r.percent_of_mean_wait, r.mean_wait_minutes, 0.0};
  }
  const rtp::SchedPerfRow r = rtp::scheduling_cell(w, c.policy, c.predictor);
  return {r.utilization_percent, r.mean_wait_minutes, r.runtime_error_minutes,
          r.runtime_error_percent};
}

std::vector<CellSpec> cell_list(bool stf, std::size_t sites) {
  std::vector<CellSpec> cells;
  if (stf) {
    // Two site styles: ANL (executable and argument fields, user maxima)
    // under every policy, and CTC (class, script and adaptor fields) under
    // its cheapest policy.  All twelve Table 6 cells take ~53 s serially;
    // this subset takes ~6 s, so a run holds more than one round.
    for (PolicyKind p : rtp::wait_prediction_policies(true))
      cells.push_back({0, p, PredictorKind::Stf, true});
    cells.push_back({1, PolicyKind::Lwf, PredictorKind::Stf, true});
    return cells;
  }
  for (std::size_t site = 0; site < sites; ++site) {
    for (PolicyKind p : rtp::wait_prediction_policies(false))  // Table 4
      cells.push_back({site, p, PredictorKind::Actual, true});
    for (PolicyKind p : rtp::wait_prediction_policies(true))  // Table 5
      cells.push_back({site, p, PredictorKind::MaxRuntime, true});
    for (PredictorKind k : {PredictorKind::Actual, PredictorKind::MaxRuntime})  // 10, 11
      for (PolicyKind p : rtp::scheduling_policies()) cells.push_back({site, p, k, false});
  }
  return cells;
}

struct Rounds {
  std::vector<double> wall_s;  ///< normalized seconds per round
  std::vector<double> raw_s;   ///< raw seconds per round
  std::vector<double> cell_s;  ///< raw seconds per cell
  std::vector<Row> rows;       ///< first round's rows
  rtp::LatencyHistogram estimate_ns = fine_histogram();  ///< normalized
  rtp::LatencyHistogram event_ns = fine_histogram();     ///< normalized
};

}  // namespace

Outcome run_tables(const Options& options, bool stf) {
  Outcome out;
  std::vector<rtp::Workload> sites;
  const SetupTime setup =
      timed_setup(5, [&] { sites = site_traces(options.scale, options.seed); });
  const std::vector<CellSpec> cells = cell_list(stf, sites.size());

  // Rounds until `budget` seconds have passed; every round must reproduce
  // the first round's rows and operation counts exactly.
  auto measure = [&](Tracer& tracer, bool traced, double budget) {
    Rounds r;
    tracer.sample(Layer::OnSubmit);
    std::optional<std::array<std::uint64_t, kLayers>> first_calls;
    const std::int64_t begin = now_ns();
    do {
      const auto before = tracer.calls();
      std::vector<Row> rows;
      double raw = 0.0;
      double normalized = 0.0;
      SpeedProbe speed;
      std::vector<double> event_ns;
      for (const CellSpec& c : cells) {
        const std::int64_t t0 = now_ns();
        rows.push_back(run_cell(sites[c.site], c, tracer, traced, event_ns));
        const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
        const double factor = speed.next();
        r.cell_s.push_back(seconds);
        raw += seconds;
        normalized += seconds * factor;
        tracer.drain_samples(Layer::OnSubmit, factor, r.estimate_ns);
        for (const double ns : event_ns) r.event_ns.add(ns * factor);
        event_ns.clear();
      }
      r.raw_s.push_back(raw);
      r.wall_s.push_back(normalized);
      auto calls = tracer.calls();
      for (std::size_t i = 0; i < kLayers; ++i) calls[i] -= before[i];
      if (!first_calls) {
        first_calls = calls;
        r.rows = rows;
      } else {
        if (calls != *first_calls) out.fail("operation counts differ between rounds");
        if (rows != r.rows) out.fail("cell results differ between rounds");
      }
      out.attempted += cells.size();
    } while (static_cast<double>(now_ns() - begin) * 1e-9 < budget);
    return r;
  };

  Tracer plain(false);
  const Rounds untraced =
      measure(plain, false, options.trace ? options.seconds / 2 : options.seconds);
  for (std::size_t i = 0; i < cells.size(); ++i)
    out.metrics["cell." + label(sites, cells[i]) + ".raw_s"] = untraced.cell_s[i];

  // The library's own cell functions must agree bit for bit.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& c = cells[i];
    if (reference_cell(sites[c.site], c) != untraced.rows[i]) {
      ++out.failed;
      out.fail("cell " + label(sites, c) + " differs from the library's cell function");
    }
  }

  Metrics& m = out.metrics;
  m["setup_s"] = setup.normalized_s;
  m["workload.generate_s"] = setup.raw_s;
  m["wall_s"] = median(untraced.wall_s);
  m["wall_raw_s"] = median(untraced.raw_s);
  m["rounds"] = static_cast<double>(untraced.wall_s.size());
  m["peak_rss_mb"] = peak_rss_mb();
  m["estimate_p50_us"] = untraced.estimate_ns.quantile(0.5) * 1e-3;
  m["estimate_p99_us"] = untraced.estimate_ns.quantile(0.99) * 1e-3;
  m["estimate_p999_us"] = untraced.estimate_ns.quantile(0.999) * 1e-3;
  m["estimate_samples"] = static_cast<double>(untraced.estimate_ns.count());
  m["event_p50_us"] = untraced.event_ns.quantile(0.5) * 1e-3;
  m["event_p99_us"] = untraced.event_ns.quantile(0.99) * 1e-3;
  m["event_p999_us"] = untraced.event_ns.quantile(0.999) * 1e-3;
  m["event_samples"] = static_cast<double>(untraced.event_ns.count());

  if (options.trace) {
    Tracer tracer(true);
    const Rounds traced = measure(tracer, true, options.seconds / 2);
    if (traced.rows != untraced.rows) {
      ++out.failed;
      out.fail("traced cell results differ from untraced ones");
    }
    const double rounds = static_cast<double>(traced.wall_s.size());
    auto per_round = [&](Layer l) { return static_cast<double>(tracer.layer(l).calls) / rounds; };
    auto self_s = [&](Layer l) {
      return static_cast<double>(tracer.layer(l).self_ns) * 1e-9 / rounds;
    };
    auto q = [&](Layer l, double p) { return tracer.layer(l).duration_ns.quantile(p); };
    m["exp.cells"] = static_cast<double>(cells.size());
    m["exp.cell_p50_s"] = median(traced.cell_s);
    m["exp.cell_max_s"] = *std::max_element(traced.cell_s.begin(), traced.cell_s.end());
    m["exp.cell.self_s"] = self_s(Layer::Cell);
    m["sim.self_s"] = self_s(Layer::Sim);
    m["sched.select_starts.calls"] = per_round(Layer::SelectStarts);
    m["sched.select_starts.self_s"] = self_s(Layer::SelectStarts);
    m["sched.select_starts.p99_us"] = q(Layer::SelectStarts, 0.99) * 1e-3;
    m["predict.estimate.calls"] = per_round(Layer::Estimate);
    m["predict.estimate.self_s"] = self_s(Layer::Estimate);
    m["predict.estimate.p50_ns"] = q(Layer::Estimate, 0.5);
    m["predict.estimate.p99_ns"] = q(Layer::Estimate, 0.99);
    m["predict.job_completed.calls"] = per_round(Layer::JobCompleted);
    m["predict.job_completed.self_s"] = self_s(Layer::JobCompleted);
    m["waitpred.on_submit.calls"] = per_round(Layer::OnSubmit);
    m["waitpred.on_submit.self_s"] = self_s(Layer::OnSubmit);
    m["waitpred.on_submit.p99_us"] = q(Layer::OnSubmit, 0.99) * 1e-3;
    const Tracer::SpanCost span_cost = Tracer::calibrate();
    m["trace.span_ns"] = span_cost.total_ns;
    m["trace.span_inside_ns"] = span_cost.inside_ns;
    m["trace.overhead_frac"] = median(traced.wall_s) / median(untraced.wall_s) - 1.0;
    for (std::size_t i = 0; i < kLayers; ++i)
      out.op_counts[kLayerNames[i]] = tracer.layer(static_cast<Layer>(i)).calls /
                                      static_cast<std::uint64_t>(traced.wall_s.size());
    if (!options.spans_path.empty()) tracer.write_spans(options.spans_path);
  }
  return out;
}

}  // namespace perfbench
