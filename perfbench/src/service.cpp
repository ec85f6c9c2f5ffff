// Service workloads: recorded full-scale backfill streams replayed through
// ServiceServer::handle_line, the entry point rtpd's connection loop calls,
// one closed-loop caller, into fresh sessions each round.
//
//   service-poll     every SUBMIT is followed by ESTIMATE and INTERVAL for
//                    the new job, every FINISH by ESTIMATE for the oldest
//                    (up to 8) queued jobs; no journal.  The read-heavy use:
//                    protocol, session, estimate cache and ShadowSchedule
//                    reuse, repair and rebuild.
//   service-journal  one ESTIMATE per SUBMIT, journaled at rtpd's defaults
//                    (fsync every 64 records, snapshot every 256).  The
//                    write-heavy use: periodic snapshots of the whole
//                    growing session dominate.
//
// Both run rtpd's default mirrored policy (conservative backfill) and
// predictor (maximum run times).  The journal is an anonymous memory file
// (memfd), so it never touches a disk: fsync on it is a no-op and the
// timing carries no device noise.
#include <sys/mman.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <deque>
#include <optional>

#include "bench.hpp"
#include "core/error.hpp"
#include "core/time.hpp"
#include "predict/simple.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "trace.hpp"
#include "waitpred/waitpred.hpp"

namespace perfbench {
namespace {

enum class Verb : std::uint8_t { Submit, Start, Finish, Estimate, Interval, Other, kCount };
constexpr std::size_t kVerbs = static_cast<std::size_t>(Verb::kCount);
constexpr std::array<const char*, kVerbs> kVerbNames = {"SUBMIT",   "START",    "FINISH",
                                                        "ESTIMATE", "INTERVAL", "OTHER"};

/// FINISH lines are followed by ESTIMATEs for this many of the oldest
/// queued jobs (service-poll).
constexpr std::size_t kPollDepth = 8;

/// Lines between two SpeedProbe bursts (~0.1 s of service-poll work).
constexpr std::size_t kChunkLines = 32768;

struct Stream {
  const rtp::Workload* workload = nullptr;
  std::vector<std::string> lines;
  std::vector<Verb> verbs;
  std::size_t events = 0;  ///< SUBMIT/START/FINISH (and other event) lines
};

Verb verb_of(rtp::RequestKind kind) {
  switch (kind) {
    case rtp::RequestKind::Submit: return Verb::Submit;
    case rtp::RequestKind::Start: return Verb::Start;
    case rtp::RequestKind::Finish: return Verb::Finish;
    default: return Verb::Other;
  }
}

/// The request lines one caller sends for a recorded run.  The queue is
/// tracked from the stream itself, as a client polling its oldest jobs
/// would.
Stream build_stream(const rtp::Workload& w, const std::vector<rtp::Request>& events,
                    bool poll) {
  Stream s;
  s.workload = &w;
  std::deque<rtp::JobId> queued;
  auto add = [&](std::string line, Verb verb) {
    s.lines.push_back(std::move(line));
    s.verbs.push_back(verb);
  };
  for (const rtp::Request& e : events) {
    add(rtp::format_request(e), verb_of(e.kind));
    ++s.events;
    switch (e.kind) {
      case rtp::RequestKind::Submit:
        queued.push_back(e.id);
        add("ESTIMATE " + std::to_string(e.id), Verb::Estimate);
        if (poll) add("INTERVAL " + std::to_string(e.id), Verb::Interval);
        break;
      case rtp::RequestKind::Fail:
        queued.push_back(e.id);
        break;
      case rtp::RequestKind::Start:
      case rtp::RequestKind::Cancel:
        queued.erase(std::find(queued.begin(), queued.end(), e.id));
        break;
      case rtp::RequestKind::Finish:
        if (poll)
          for (std::size_t i = 0; i < std::min(kPollDepth, queued.size()); ++i)
            add("ESTIMATE " + std::to_string(queued[i]), Verb::Estimate);
        break;
      default:
        break;
    }
  }
  return s;
}

/// Anonymous in-memory file for the journal; closed (and freed) on
/// destruction.
class MemoryFile {
 public:
  MemoryFile() : fd_(::memfd_create("perfbench-journal", MFD_CLOEXEC)) {
    RTP_CHECK(fd_ >= 0, "memfd_create failed");
  }
  ~MemoryFile() { ::close(fd_); }
  MemoryFile(const MemoryFile&) = delete;
  MemoryFile& operator=(const MemoryFile&) = delete;
  std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }

 private:
  int fd_;
};

std::uint64_t available_memory_bytes() {
  struct sysinfo info {};
  RTP_CHECK(::sysinfo(&info) == 0, "sysinfo failed");
  return (static_cast<std::uint64_t>(info.freeram) + info.bufferram) * info.mem_unit;
}

/// What one replay of one stream leaves behind; equal across rounds.
struct SiteResult {
  std::uint64_t digest = 0;  ///< FNV-1a over every response
  std::uint64_t errors = 0;  ///< ERR responses
  rtp::RunningStats error, waits, signed_error;
  rtp::SessionCounters session;
  rtp::ShadowCounters shadow;
  rtp::JournalWriter::Counters journal;
  std::size_t journal_peak_bytes = 0;
};

bool same_stats(const rtp::RunningStats& a, const rtp::RunningStats& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.min() == b.min() &&
         a.max() == b.max();
}

/// Latency samples of the timed rounds, per verb, plus snapshot lines.
struct Timings {
  std::array<rtp::LatencyHistogram, kVerbs> verb_ns{
      fine_histogram(), fine_histogram(), fine_histogram(),
      fine_histogram(), fine_histogram(), fine_histogram()};
  std::vector<double> snapshot_line_ns;
  std::vector<double> wall_s;
};

void fnv(std::uint64_t& h, std::string_view text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  h ^= '\n';
  h *= 0x100000001B3ULL;
}

/// Replay one stream into a fresh session; only the handle_line loop is
/// timed, in normalized seconds (SpeedProbe bursts between chunks of
/// lines).  `tracer` set: the predictor and policy are wrapped and every
/// request is a span.
SiteResult replay(const Stream& s, bool journal, Timings* timings, Tracer* tracer,
                  double* wall_s) {
  const rtp::Workload& w = *s.workload;
  const std::unique_ptr<rtp::SchedulerPolicy> policy =
      rtp::make_policy(rtp::PolicyKind::BackfillConservative);
  rtp::MaxRuntimePredictor predictor(w);
  std::optional<TracedEstimator> traced_predictor;
  std::optional<TracedPolicy> traced_policy;
  rtp::RuntimeEstimator* session_predictor = &predictor;
  const rtp::SchedulerPolicy* session_policy = policy.get();
  if (tracer != nullptr) {
    session_predictor = &traced_predictor.emplace(predictor, *tracer);
    session_policy = &traced_policy.emplace(*policy, *tracer);
  }
  rtp::SessionOptions session_options;
  session_options.name = w.name();
  rtp::OnlineSession session(w.machine_nodes(), *session_policy, *session_predictor,
                             session_options);

  std::optional<MemoryFile> file;
  std::optional<rtp::JournalWriter> writer;
  rtp::ServerOptions server_options;  // rtpd's defaults, but one pool worker
  server_options.threads = 1;         // that never runs: no socket is served
  server_options.greeting = false;
  if (journal) {
    file.emplace();
    writer.emplace(file->path(), rtp::JournalOptions{});
    server_options.journal = &*writer;
  }
  rtp::ServiceServer server(session, server_options);

  SiteResult r;
  r.digest = 0xCBF29CE484222325ULL;
  bool quit = false;
  struct Sample {
    Verb verb;
    bool snapshot;
    double ns;
  };
  std::vector<Sample> chunk;
  chunk.reserve(kChunkLines);
  std::optional<SpeedProbe> speed;
  if (timings != nullptr) speed.emplace();
  *wall_s = 0.0;
  for (std::size_t first = 0; first < s.lines.size(); first += kChunkLines) {
    const std::size_t last = std::min(s.lines.size(), first + kChunkLines);
    const std::int64_t chunk_begin = now_ns();
    for (std::size_t i = first; i < last; ++i) {
      const std::uint64_t snapshots = journal ? writer->counters().snapshots : 0;
      const std::int64_t t0 = now_ns();
      std::string response;
      {
        const Span span(tracer, Layer::Request);
        response = server.handle_line(s.lines[i], i + 1, &quit);
      }
      chunk.push_back({s.verbs[i], journal && writer->counters().snapshots != snapshots,
                       static_cast<double>(now_ns() - t0)});
      if (response.starts_with("ERR")) ++r.errors;
      fnv(r.digest, response);
    }
    const double seconds = static_cast<double>(now_ns() - chunk_begin) * 1e-9;
    const double factor = speed ? speed->next() : 1.0;
    *wall_s += seconds * factor;

    if (timings != nullptr) {
      for (const Sample& sample : chunk) {
        timings->verb_ns[static_cast<std::size_t>(sample.verb)].add(sample.ns * factor);
        if (sample.snapshot) timings->snapshot_line_ns.push_back(sample.ns * factor);
      }
    }
    chunk.clear();
  }

  r.error = session.error_stats();
  r.waits = session.wait_stats();
  r.signed_error = session.signed_error_stats();
  r.session = session.counters();
  if (session.shadow_counters() != nullptr) r.shadow = *session.shadow_counters();
  if (journal) {
    r.journal = writer->counters();
    r.journal_peak_bytes = writer->size();
  }
  return r;
}

}  // namespace

Outcome run_service(const Options& options, bool journal) {
  Outcome out;
  // service-journal replays only the ANL stream: snapshot cost grows with
  // the square of the session size, and one full-scale SDSC95 replay alone
  // writes ~715 MB in 8-9 s (README.md).
  const std::size_t site_count = journal ? 1 : 4;
  if (journal) {
    constexpr std::uint64_t kFloor = std::uint64_t{512} << 20;
    RTP_CHECK(available_memory_bytes() >= kFloor,
              "service-journal needs at least 512 MB of free memory for its in-memory "
              "journal; only " + std::to_string(available_memory_bytes() >> 20) +
                  " MB free");
  }

  std::vector<rtp::Workload> sites;
  std::vector<Stream> streams;
  std::vector<double> generate_s;
  const SetupTime setup = timed_setup(3, [&] {
    streams.clear();
    const std::int64_t t0 = now_ns();
    sites = site_traces(options.scale, options.seed);
    generate_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    sites.resize(site_count);
    const auto policy = rtp::make_policy(rtp::PolicyKind::BackfillConservative);
    for (const rtp::Workload& w : sites) {
      rtp::MaxRuntimePredictor live(w);
      streams.push_back(build_stream(w, rtp::record_session_log(w, *policy, live).events,
                                     !journal));
    }
  });
  std::size_t lines_per_round = 0;
  std::size_t events_per_round = 0;
  for (const Stream& s : streams) {
    lines_per_round += s.lines.size();
    events_per_round += s.events;
  }

  // Round 0 is the warm-up; every round must reproduce its results.
  std::vector<SiteResult> first;
  auto round = [&](Timings* timings, Tracer* tracer) {
    double wall = 0.0;
    std::vector<SiteResult> results;
    for (const Stream& s : streams) {
      double site_wall = 0.0;
      results.push_back(replay(s, journal, timings, tracer, &site_wall));
      wall += site_wall;
    }
    if (timings != nullptr) timings->wall_s.push_back(wall);
    if (first.empty()) {
      first = results;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        const SiteResult& a = first[i];
        const SiteResult& b = results[i];
        if (a.digest != b.digest) out.fail(sites[i].name() + ": responses differ between rounds");
        if (!same_stats(a.error, b.error) || a.session.cache_hits != b.session.cache_hits ||
            a.shadow.rebuilds != b.shadow.rebuilds || a.shadow.repairs != b.shadow.repairs ||
            a.shadow.bookings != b.shadow.bookings || a.shadow.reused != b.shadow.reused ||
            a.journal.records != b.journal.records || a.journal.bytes != b.journal.bytes ||
            a.journal.snapshots != b.journal.snapshots)
          out.fail(sites[i].name() + ": session or journal counters differ between rounds");
      }
    }
    for (const SiteResult& r : results) out.failed += r.errors;
    out.attempted += lines_per_round;
  };
  auto measure = [&](Timings& timings, Tracer* tracer, double budget) {
    const std::int64_t begin = now_ns();
    do {
      round(&timings, tracer);
    } while (static_cast<double>(now_ns() - begin) * 1e-9 < budget);
  };

  round(nullptr, nullptr);  // warm-up, untimed
  out.attempted = 0;
  out.failed = 0;
  if (journal) {
    std::size_t peak = 0;
    for (const SiteResult& r : first) peak = std::max(peak, r.journal_peak_bytes);
    RTP_CHECK(available_memory_bytes() >= 2 * static_cast<std::uint64_t>(peak),
              "service-journal: not enough free memory for a " +
                  std::to_string(peak >> 20) + " MB in-memory journal");
  }
  Timings plain;
  measure(plain, nullptr, options.trace ? options.seconds / 2 : options.seconds);
  std::optional<Timings> traced;
  Tracer tracer(true);
  if (options.trace) {
    traced.emplace();
    measure(*traced, &tracer, options.seconds / 2);
  }

  // Replay equivalence, checked after timing: every session's wait-error
  // statistics equal the batch run_wait_prediction result for its site.
  for (std::size_t i = 0; i < sites.size(); ++i) {
    rtp::MaxRuntimePredictor batch_predictor(sites[i]);
    const rtp::WaitPredictionResult batch = rtp::run_wait_prediction(
        sites[i], rtp::PolicyKind::BackfillConservative, batch_predictor);
    const SiteResult& r = first[i];
    if (r.error.count() != batch.jobs ||
        rtp::to_minutes(r.error.mean()) != batch.mean_error_minutes ||
        rtp::to_minutes(r.waits.mean()) != batch.mean_wait_minutes ||
        rtp::to_minutes(r.signed_error.mean()) != batch.mean_signed_error_minutes)
      out.fail(sites[i].name() + ": session error_stats differ from run_wait_prediction");
  }
  if (out.failed > 0) out.fail(std::to_string(out.failed) + " ERR responses");

  Metrics& m = out.metrics;
  m["setup_s"] = setup.normalized_s;
  m["workload.generate_s"] = median(generate_s);
  m["wall_s"] = median(plain.wall_s);
  m["peak_rss_mb"] = peak_rss_mb();
  const rtp::LatencyHistogram& estimates =
      plain.verb_ns[static_cast<std::size_t>(Verb::Estimate)];
  rtp::LatencyHistogram events = fine_histogram();
  for (Verb v : {Verb::Submit, Verb::Start, Verb::Finish})
    events.merge(plain.verb_ns[static_cast<std::size_t>(v)]);
  m["estimate_p50_us"] = estimates.quantile(0.5) * 1e-3;
  m["estimate_p99_us"] = estimates.quantile(0.99) * 1e-3;
  m["estimate_p999_us"] = estimates.quantile(0.999) * 1e-3;
  m["event_p50_us"] = events.quantile(0.5) * 1e-3;
  m["event_p99_us"] = events.quantile(0.99) * 1e-3;
  m["event_p999_us"] = events.quantile(0.999) * 1e-3;
  m["estimate_samples"] = static_cast<double>(estimates.count());
  m["event_samples"] = static_cast<double>(events.count());
  m["lines_per_round"] = static_cast<double>(lines_per_round);
  m["rounds"] = static_cast<double>(plain.wall_s.size());

  if (traced) {
    const Timings& t = *traced;
    const double rounds = static_cast<double>(t.wall_s.size());
    for (std::size_t v = 0; v < static_cast<std::size_t>(Verb::Other); ++v) {
      const std::string prefix = std::string("service.request.") + kVerbNames[v];
      m[prefix + ".count"] = static_cast<double>(t.verb_ns[v].count()) / rounds;
      m[prefix + ".p50_us"] = t.verb_ns[v].quantile(0.5) * 1e-3;
      m[prefix + ".p999_us"] = t.verb_ns[v].quantile(0.999) * 1e-3;
    }
    const LayerStats& est = tracer.layer(Layer::Estimate);
    m["predict.estimate.calls"] = static_cast<double>(est.calls) / rounds;
    m["predict.estimate.self_s"] = static_cast<double>(est.self_ns) * 1e-9 / rounds;
    m["predict.estimate.p50_ns"] = est.duration_ns.quantile(0.5);
    m["predict.estimate.p99_ns"] = est.duration_ns.quantile(0.99);
    const LayerStats& done = tracer.layer(Layer::JobCompleted);
    m["predict.job_completed.calls"] = static_cast<double>(done.calls) / rounds;
    m["predict.job_completed.self_s"] = static_cast<double>(done.self_ns) * 1e-9 / rounds;
    m["sched.select_starts.calls"] =
        static_cast<double>(tracer.layer(Layer::SelectStarts).calls) / rounds;

    // parse_request alone, in a separate pass over the same lines.
    std::int64_t parse_ns = 0;
    std::size_t parsed = 0;
    for (const Stream& s : streams) {
      const std::int64_t t0 = now_ns();
      for (const std::string& line : s.lines) parsed += rtp::parse_request(line).id != 0;
      parse_ns += now_ns() - t0;
    }
    m["service.protocol.parse_ns"] =
        static_cast<double>(parse_ns) / static_cast<double>(lines_per_round);
    if (parsed == 0) out.fail("parse pass parsed nothing");

    SiteResult sum;
    for (const SiteResult& r : first) {
      sum.session.cache_hits += r.session.cache_hits;
      sum.session.cache_misses += r.session.cache_misses;
      sum.shadow.rebuilds += r.shadow.rebuilds;
      sum.shadow.repairs += r.shadow.repairs;
      sum.shadow.bookings += r.shadow.bookings;
      sum.shadow.reused += r.shadow.reused;
      sum.shadow.easy_replays += r.shadow.easy_replays;
      sum.journal.records += r.journal.records;
      sum.journal.bytes += r.journal.bytes;
      sum.journal.snapshots += r.journal.snapshots;
      sum.journal.syncs += r.journal.syncs;
    }
    const std::map<std::string, std::uint64_t> counts = {
        {"service.session.cache_hits", sum.session.cache_hits},
        {"service.session.cache_misses", sum.session.cache_misses},
        {"sched.shadow.rebuilds", sum.shadow.rebuilds},
        {"sched.shadow.repairs", sum.shadow.repairs},
        {"sched.shadow.bookings", sum.shadow.bookings},
        {"sched.shadow.reused", sum.shadow.reused},
        {"sched.shadow.easy_replays", sum.shadow.easy_replays},
        {"service.journal.records", sum.journal.records},
        {"service.journal.bytes", sum.journal.bytes},
        {"service.journal.snapshots", sum.journal.snapshots},
        {"service.journal.syncs", sum.journal.syncs},
    };
    for (const auto& [name, value] : counts) {
      m[name] = static_cast<double>(value);
      out.op_counts[name] = value;
    }
    for (std::size_t v = 0; v < static_cast<std::size_t>(Verb::Other); ++v)
      out.op_counts[std::string("service.request.") + kVerbNames[v]] =
          t.verb_ns[v].count() / t.wall_s.size();
    out.op_counts["predict.estimate"] = est.calls / t.wall_s.size();
    out.op_counts["predict.job_completed"] = done.calls / t.wall_s.size();
    m["service.journal.bytes_per_event"] =
        static_cast<double>(sum.journal.bytes) / static_cast<double>(events_per_round);
    if (!t.snapshot_line_ns.empty()) {
      double snapshot_ns = 0.0;
      for (double ns : t.snapshot_line_ns) snapshot_ns += ns;
      m["service.journal.snapshot_line_p50_us"] = median(t.snapshot_line_ns) * 1e-3;
      m["service.journal.snapshot_line_max_us"] =
          *std::max_element(t.snapshot_line_ns.begin(), t.snapshot_line_ns.end()) * 1e-3;
      double wall = 0.0;
      for (double s : t.wall_s) wall += s;
      m["service.journal.snapshot_share"] = snapshot_ns * 1e-9 / wall;
    }
    const Tracer::SpanCost span_cost = Tracer::calibrate();
    m["trace.span_ns"] = span_cost.total_ns;
    m["trace.span_inside_ns"] = span_cost.inside_ns;
    m["trace.overhead_frac"] = median(t.wall_s) / median(plain.wall_s) - 1.0;
    if (!options.spans_path.empty()) tracer.write_spans(options.spans_path);
  }
  return out;
}

}  // namespace perfbench
