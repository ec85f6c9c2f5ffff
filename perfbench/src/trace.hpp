// Span tracing from outside the libraries.
//
// Every layer is observed through a forwarding decorator of the public
// interface the libraries already call through (RuntimeEstimator,
// SchedulerPolicy, SimObserver) or around a public entry point (a table
// cell, simulate(), ServiceServer::handle_line).  A decorator opens a span
// before forwarding and closes it after; the Tracer keeps the stack of
// open spans, so each closed span knows its parent and how much of its
// interval its children covered.  Self time is duration minus that.
//
// A span costs two clock reads plus bookkeeping.  Tracer::calibrate()
// times empty spans: the part of that cost inside a span's own measured
// interval, and the whole cost as its parent sees it.  Self times are
// reported as measured, so a layer of ~10 ns calls carries the inside cost
// in its own self time and the rest in its parent's; the two calibrated
// costs are reported beside them.
//
// Spans are kept in memory (up to kKeptSpans; every span, kept or not,
// feeds the per-layer aggregates) and written out by write_spans() when
// the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/estimator.hpp"
#include "sched/policy.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  Cell,          ///< one table cell, estimator construction included
  Sim,           ///< simulate()
  SelectStarts,  ///< SchedulerPolicy::select_starts (live scheduling pass)
  Estimate,      ///< RuntimeEstimator::estimate / try_estimate
  JobCompleted,  ///< RuntimeEstimator::job_completed
  OnSubmit,      ///< SimObserver::on_submit (wait prediction at submission)
  OnStart,
  OnFinish,
  Request,       ///< ServiceServer::handle_line
  kCount,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "exp.cell",         "sim",                "sched.select_starts",
    "predict.estimate", "predict.job_completed", "waitpred.on_submit",
    "waitpred.on_start", "waitpred.on_finish", "service.request"};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Histogram fine enough (0.2% buckets) that a quantile moves only when
/// the timings do; values in nanoseconds.
rtp::LatencyHistogram fine_histogram();

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  Layer layer = Layer::Cell;
};

/// Per-layer totals over every closed span.
struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  rtp::LatencyHistogram duration_ns = fine_histogram();
};

class Tracer {
 public:
  static constexpr std::size_t kKeptSpans = std::size_t{1} << 16;

  /// `keep_spans` off: aggregates only, no span records (untraced runs,
  /// whose peak RSS is an end-to-end metric).
  explicit Tracer(bool keep_spans) : keep_spans_(keep_spans) {}

  /// Cost of one empty span: inside its own measured interval, and in
  /// total as its parent sees it (best of several trials).
  struct SpanCost {
    double inside_ns = 0.0;
    double total_ns = 0.0;
  };
  static SpanCost calibrate();

  /// Opens a span and returns its id (ids start at 1).
  std::uint32_t open(Layer layer);
  /// Closes the innermost open span, which must be `id`.
  void close(std::uint32_t id);

  const LayerStats& layer(Layer l) const { return stats_[static_cast<std::size_t>(l)]; }
  /// Call counts per layer, in Layer order: the deterministic op counts.
  std::array<std::uint64_t, kLayers> calls() const;
  std::uint64_t spans() const { return next_id_ - 1; }

  /// Keep each raw duration of `layer` until drain_samples (the untraced
  /// run's end-to-end latency samples).
  void sample(Layer layer) { sampled_[static_cast<std::size_t>(layer)] = true; }
  /// Add the durations of `layer` kept since the last drain, times
  /// `factor`, to `out`.
  void drain_samples(Layer layer, double factor, rtp::LatencyHistogram& out);

  /// Write tab-separated "id parent layer start_ns end_ns" lines, one per
  /// kept span, after a header giving how many spans there were in all.
  /// Throws rtp::Error when `path` cannot be written.
  void write_spans(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::uint32_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::vector<Open> stack_;
  std::vector<SpanRecord> kept_;
  std::array<LayerStats, kLayers> stats_{};
  std::array<bool, kLayers> sampled_{};
  std::array<std::vector<double>, kLayers> samples_;
  bool keep_spans_;
  std::uint32_t next_id_ = 1;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, Layer layer)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(layer) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

class TracedEstimator final : public rtp::RuntimeEstimator {
 public:
  TracedEstimator(rtp::RuntimeEstimator& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  rtp::Seconds estimate(const rtp::Job& job, rtp::Seconds age) override {
    const Span span(&tracer_, Layer::Estimate);
    return inner_.estimate(job, age);
  }
  std::optional<rtp::Seconds> try_estimate(const rtp::Job& job, rtp::Seconds age) override {
    const Span span(&tracer_, Layer::Estimate);
    return inner_.try_estimate(job, age);
  }
  void job_completed(const rtp::Job& job, rtp::Seconds completion_time) override {
    const Span span(&tracer_, Layer::JobCompleted);
    inner_.job_completed(job, completion_time);
  }
  std::string name() const override { return inner_.name(); }

 private:
  rtp::RuntimeEstimator& inner_;
  Tracer& tracer_;
};

class TracedPolicy final : public rtp::SchedulerPolicy {
 public:
  /// With `event_ns` set, the time from the end of one scheduling pass to
  /// the end of the next is appended to it: everything the simulator does
  /// for one event instant (estimate refreshes, observer hooks, the pass).
  TracedPolicy(const rtp::SchedulerPolicy& inner, Tracer& tracer,
               std::vector<double>* event_ns = nullptr)
      : inner_(inner), tracer_(tracer), event_ns_(event_ns) {}

  std::vector<rtp::JobId> select_starts(rtp::Seconds now,
                                        const rtp::SystemState& state) const override {
    std::vector<rtp::JobId> starts;
    {
      const Span span(&tracer_, Layer::SelectStarts);
      starts = inner_.select_starts(now, state);
    }
    if (event_ns_ != nullptr) {
      const std::int64_t end = now_ns();
      if (last_end_ns_ != 0) event_ns_->push_back(static_cast<double>(end - last_end_ns_));
      last_end_ns_ = end;
    }
    return starts;
  }
  bool uses_running_estimates() const override { return inner_.uses_running_estimates(); }
  bool uses_queue_estimates() const override { return inner_.uses_queue_estimates(); }
  std::string name() const override { return inner_.name(); }
  rtp::PolicyKind kind() const override { return inner_.kind(); }

 private:
  const rtp::SchedulerPolicy& inner_;
  Tracer& tracer_;
  std::vector<double>* event_ns_;
  mutable std::int64_t last_end_ns_ = 0;
};

class TracedObserver final : public rtp::SimObserver {
 public:
  TracedObserver(rtp::SimObserver& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void on_submit(rtp::Seconds now, const rtp::SystemState& state,
                 const rtp::Job& job) override {
    const Span span(&tracer_, Layer::OnSubmit);
    inner_.on_submit(now, state, job);
  }
  void on_start(const rtp::Job& job, rtp::Seconds start) override {
    const Span span(&tracer_, Layer::OnStart);
    inner_.on_start(job, start);
  }
  void on_finish(const rtp::Job& job, rtp::Seconds end) override {
    const Span span(&tracer_, Layer::OnFinish);
    inner_.on_finish(job, end);
  }
  void on_fail(const rtp::Job& job, rtp::Seconds when, int attempt) override {
    inner_.on_fail(job, when, attempt);
  }
  void on_node_down(rtp::Seconds when, int down_nodes) override {
    inner_.on_node_down(when, down_nodes);
  }
  void on_node_up(rtp::Seconds when, int down_nodes) override {
    inner_.on_node_up(when, down_nodes);
  }

 private:
  rtp::SimObserver& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
