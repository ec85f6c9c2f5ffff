#include "trace.hpp"

#include <fstream>

#include "core/error.hpp"

namespace perfbench {

rtp::LatencyHistogram fine_histogram() {
  rtp::LatencyHistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 1e13;
  options.growth = 1.002;
  return rtp::LatencyHistogram(options);
}

Tracer::SpanCost Tracer::calibrate() {
  constexpr int kTrials = 5;
  constexpr int kChildren = 4000;
  SpanCost best;
  for (int trial = 0; trial < kTrials; ++trial) {
    Tracer probe(false);
    const std::uint32_t parent = probe.open(Layer::Cell);
    for (int i = 0; i < kChildren; ++i) probe.close(probe.open(Layer::Estimate));
    probe.close(parent);
    const double inside =
        static_cast<double>(probe.layer(Layer::Estimate).total_ns) / kChildren;
    const double total = static_cast<double>(probe.layer(Layer::Cell).total_ns) / kChildren;
    if (trial == 0 || total < best.total_ns) best = {inside, total};
  }
  return best;
}

std::uint32_t Tracer::open(Layer layer) {
  const std::uint32_t id = next_id_++;
  stack_.push_back({layer, id, now_ns(), 0});
  return id;
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  RTP_CHECK(!stack_.empty() && stack_.back().id == id, "span closed out of order");
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - span.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;

  LayerStats& s = stats_[static_cast<std::size_t>(span.layer)];
  ++s.calls;
  s.self_ns += duration - span.child_ns;
  s.total_ns += duration;
  s.duration_ns.add(static_cast<double>(duration));
  if (sampled_[static_cast<std::size_t>(span.layer)])
    samples_[static_cast<std::size_t>(span.layer)].push_back(static_cast<double>(duration));
  if (keep_spans_ && kept_.size() < kKeptSpans)
    kept_.push_back({span.start_ns, end, span.id, stack_.empty() ? 0 : stack_.back().id,
                     span.layer});
}

std::array<std::uint64_t, kLayers> Tracer::calls() const {
  std::array<std::uint64_t, kLayers> out{};
  for (std::size_t i = 0; i < kLayers; ++i) out[i] = stats_[i].calls;
  return out;
}

void Tracer::drain_samples(Layer layer, double factor, rtp::LatencyHistogram& out) {
  std::vector<double>& samples = samples_[static_cast<std::size_t>(layer)];
  for (const double ns : samples) out.add(ns * factor);
  samples.clear();
}

void Tracer::write_spans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  RTP_CHECK(out.good(), "cannot write spans to " + path);
  out << "# spans=" << spans() << " kept=" << kept_.size() << "\n"
      << "id\tparent\tlayer\tstart_ns\tend_ns\n";
  for (const SpanRecord& r : kept_)
    out << r.id << '\t' << r.parent << '\t' << kLayerNames[static_cast<std::size_t>(r.layer)]
        << '\t' << r.start_ns << '\t' << r.end_ns << '\n';
  RTP_CHECK(out.good(), "error writing spans to " + path);
}

}  // namespace perfbench
