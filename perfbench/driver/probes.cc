#include "driver/probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "check/harness.h"
#include "check/topologies.h"
#include "check/visited_set.h"
#include "core/registry.h"
#include "model/batched_experiment.h"
#include "model/open_loop.h"
#include "obs/async_writer.h"
#include "obs/binary_trace.h"
#include "obs/context.h"
#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "stats/tracker.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using dynvote::Result;
using dynvote::Status;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

void AppendJob(const JobSpec& spec, double seconds,
               const Result<JobOutput>& out, std::string* json, int worker) {
  if (!json->empty() && json->back() != '[') *json += ",";
  *json += "[" + std::to_string(spec.id) + "," + JsonNumber(seconds) + ",";
  if (out.ok()) {
    *json += "\"" + Hex(out->digest) + "\"," + JsonNumber(out->work);
  } else {
    *json += "\"error\",0";
    std::cerr << "job " << spec.id << " failed: " << out.status() << "\n";
  }
  *json += "," + std::to_string(worker) + "]";
}

std::string ProvenanceJson() {
  return std::string("{\"compiler\":\"") + __VERSION__ +
         "\",\"cxx_flags\":\"" + PERFBENCH_CXX_FLAGS +
         "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE + "\"}";
}

namespace {

// Keeps computed values alive so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;
void Keep(std::uint64_t v) { g_sink = g_sink + v; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// What an empty timed region reads: the mean time between two
/// back-to-back steady_clock reads, subtracted from per-call timings so
/// the clock's own cost does not count as layer time.
double TimerOverheadNs() {
  constexpr int kReps = 200000;
  std::chrono::steady_clock::duration total{};
  for (int i = 0; i < kReps; ++i) {
    const auto a = std::chrono::steady_clock::now();
    const auto b = std::chrono::steady_clock::now();
    total += b - a;
  }
  return std::chrono::duration<double, std::nano>(total).count() / kReps;
}

// --------------------------------------------------------------------------
// Counting sink: counts every event by type (quorum split into fresh
// evaluations and cache hits) and records the inputs the layer replays
// need. Forwards everything to an optional inner sink, so a serve job's
// binary trace comes out byte-identical to the untraced job's.

struct Flip {
  int id;
  bool repeater;
  bool up;
};

struct Arrival {
  std::string protocol;
  double t;
  int origin;
  std::uint32_t msgs;
  bool granted;
};

class CountingSink final : public dynvote::TraceSink {
 public:
  CountingSink(dynvote::TraceSink* inner, bool record)
      : inner_(inner), record_(record) {}

  std::uint64_t sim = 0, net = 0, evaluations = 0, cache_hits = 0,
                accesses = 0, avail = 0, serving = 0;
  std::vector<Flip> flips;
  /// Per protocol: the (t, available) transitions.
  std::map<std::string, std::vector<std::pair<double, bool>>> avail_log;
  std::vector<Arrival> arrivals;

  std::uint64_t total() const {
    return sim + net + evaluations + cache_hits + accesses + avail + serving;
  }

  void Write(const dynvote::TraceEvent& e) override {
    switch (e.type) {
      case dynvote::TraceEventType::kNet:
        ++net;
        if (record_) flips.push_back({e.site, e.repeater, e.up});
        break;
      case dynvote::TraceEventType::kServing:
        ++serving;
        if (record_) {
          arrivals.push_back({e.protocol, e.t, e.origin, e.msgs, e.granted});
        }
        break;
      case dynvote::TraceEventType::kSim:
        ++sim;
        break;
      case dynvote::TraceEventType::kQuorum:
        ++(e.reason == dynvote::QuorumReason::kCacheHit ? cache_hits
                                                         : evaluations);
        break;
      case dynvote::TraceEventType::kAccess:
        ++accesses;
        break;
      case dynvote::TraceEventType::kAvail:
        ++avail;
        if (record_) avail_log[e.protocol].push_back({e.t, e.available});
        break;
    }
    if (inner_ != nullptr) inner_->Write(e);
  }
  void WriteSim(double t, std::uint64_t seq, int replication, const char* op,
                std::uint32_t label) override {
    ++sim;
    if (inner_ != nullptr) inner_->WriteSim(t, seq, replication, op, label);
  }
  void WriteQuorum(double t, std::uint64_t seq, int replication,
                   const std::string& protocol, std::uint32_t label,
                   bool write, bool granted, dynvote::QuorumReason reason,
                   const dynvote::QuorumSetMasks& sets) override {
    ++(reason == dynvote::QuorumReason::kCacheHit ? cache_hits : evaluations);
    if (inner_ != nullptr) {
      inner_->WriteQuorum(t, seq, replication, protocol, label, write,
                          granted, reason, sets);
    }
  }
  void WriteAccess(double t, std::uint64_t seq, int replication,
                   const std::string& protocol, std::uint32_t label,
                   bool write, bool granted, dynvote::QuorumReason reason,
                   int origin) override {
    ++accesses;
    if (inner_ != nullptr) {
      inner_->WriteAccess(t, seq, replication, protocol, label, write,
                          granted, reason, origin);
    }
  }
  void WriteAvail(double t, std::uint64_t seq, int replication,
                  const std::string& protocol, std::uint32_t label,
                  bool available) override {
    ++avail;
    if (record_) avail_log[protocol].push_back({t, available});
    if (inner_ != nullptr) {
      inner_->WriteAvail(t, seq, replication, protocol, label, available);
    }
  }
  std::uint32_t RegisterLabel(std::string_view label) override {
    return inner_ != nullptr ? inner_->RegisterLabel(label) : 0;
  }
  void Flush() override {
    if (inner_ != nullptr) inner_->Flush();
  }

 private:
  dynvote::TraceSink* inner_;
  bool record_;
};

// --------------------------------------------------------------------------
// Timing decorator: forwards every virtual function and mirrors the
// message counter. Its state_epoch() is uncacheable, so the simulator's
// CachedWouldGrant falls through to WouldGrant, which forwards to the
// wrapped protocol's own CachedWouldGrant — the wrapped protocol's quorum
// cache sees exactly the calls it sees untraced.

struct CoreTimes {
  double would_grant_ns = 0, on_network_event_ns = 0, user_access_ns = 0;
  std::uint64_t would_grant = 0, on_network_event = 0, user_access = 0;
  std::uint64_t commits = 0;
  /// Simulated instants of the first protocol's availability samples.
  std::vector<double> sample_times;
};

class TimedProtocol final : public dynvote::ConsistencyProtocol {
 public:
  using Clock = std::chrono::steady_clock;

  TimedProtocol(std::unique_ptr<dynvote::ConsistencyProtocol> inner,
                CoreTimes* times, const dynvote::ObsContext* obs,
                bool record_samples)
      : inner_(std::move(inner)),
        times_(times),
        obs_ctx_(obs),
        record_samples_(record_samples) {
    inner_->set_commit_hook(
        [times](const dynvote::CommitInfo&) { ++times->commits; });
  }

  const std::string& name() const override { return inner_->name(); }
  dynvote::SiteSet placement() const override { return inner_->placement(); }
  dynvote::SiteSet data_sites() const override {
    return inner_->data_sites();
  }
  bool partition_safe() const override { return inner_->partition_safe(); }
  bool uses_instantaneous_information() const override {
    return inner_->uses_instantaneous_information();
  }
  bool WouldGrant(const dynvote::NetworkState& net, dynvote::SiteId origin,
                  dynvote::AccessType type) const override {
    const auto t0 = Clock::now();
    const bool granted = inner_->CachedWouldGrant(net, origin, type);
    times_->would_grant_ns += Elapsed(t0);
    ++times_->would_grant;
    return granted;
  }
  bool AppendStateSignature(std::string* out) const override {
    return inner_->AppendStateSignature(out);
  }
  bool IsAvailable(const dynvote::NetworkState& net,
                   dynvote::AccessType type) const override {
    return inner_->IsAvailable(net, type);
  }
  Status Read(const dynvote::NetworkState& net,
              dynvote::SiteId origin) override {
    return Synced(inner_->Read(net, origin));
  }
  Status Write(const dynvote::NetworkState& net,
               dynvote::SiteId origin) override {
    return Synced(inner_->Write(net, origin));
  }
  Status Recover(const dynvote::NetworkState& net,
                 dynvote::SiteId site) override {
    return Synced(inner_->Recover(net, site));
  }
  Status UserAccess(const dynvote::NetworkState& net,
                    dynvote::AccessType type) override {
    RecordSample();
    const auto t0 = Clock::now();
    Status st = inner_->UserAccess(net, type);
    times_->user_access_ns += Elapsed(t0);
    ++times_->user_access;
    return Synced(std::move(st));
  }
  void OnNetworkEvent(const dynvote::NetworkState& net) override {
    RecordSample();
    const auto t0 = Clock::now();
    inner_->OnNetworkEvent(net);
    times_->on_network_event_ns += Elapsed(t0);
    ++times_->on_network_event;
    counter_ = *inner_->counter();
  }
  void Reset() override {
    inner_->Reset();
    counter_ = *inner_->counter();
  }

 private:
  static double Elapsed(Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  }
  Status Synced(Status st) {
    counter_ = *inner_->counter();
    return st;
  }
  void RecordSample() {
    if (record_samples_) times_->sample_times.push_back(obs_ctx_->now);
  }

  std::unique_ptr<dynvote::ConsistencyProtocol> inner_;
  CoreTimes* times_;
  const dynvote::ObsContext* obs_ctx_;
  bool record_samples_;
};

// --------------------------------------------------------------------------
// One simulation job run with the decorated protocols.

enum class Probe {
  /// The traced run proper: decorator plus counting sink.
  kCount,
  /// kCount, also recording the inputs the layer replays need.
  kRecord,
  /// Decorator only, and no observability beyond what the job itself
  /// collects: core call timings without the counting sink's cost.
  kTime,
};

struct TracedSim {
  std::uint64_t digest = 0;
  double object_years = 0;
  CoreTimes core;
  std::unique_ptr<CountingSink> sink;  // null for Probe::kTime
  std::vector<dynvote::PolicyResult> rows;
  std::string trace;  // serve jobs: the binary trace body
  dynvote::MetricsShard metrics;
};

Result<TracedSim> RunTracedSim(const Context& ctx, const JobSpec& spec,
                               std::uint64_t seed, Probe probe) {
  auto placement = Placement(spec);
  if (!placement.ok()) return placement.status();
  const bool serve = spec.workload == kServeTraced;
  TracedSim out;
  dynvote::ExperimentSpec es;
  es.topology = ctx.network.topology;
  es.profiles = ctx.network.profiles;
  es.options = SimOptions(spec);
  es.options.seed = seed;

  std::ostringstream trace_out;
  dynvote::StreamPageSink pages(&trace_out);
  dynvote::BinaryTraceSink binary(&pages);
  dynvote::ObsContext obs;
  obs.replication = 0;  // as the replicated engine tags replication 0
  if (serve) {
    obs.sink = &binary;
    obs.metrics = &out.metrics;
  }
  if (probe != Probe::kTime) {
    out.sink = std::make_unique<CountingSink>(obs.sink, probe == Probe::kRecord);
    obs.sink = out.sink.get();
  }
  dynvote::ObsContext* attached = obs.sink != nullptr ? &obs : nullptr;
  es.obs = attached;

  std::vector<std::unique_ptr<dynvote::ConsistencyProtocol>> protocols;
  for (const std::string& name : dynvote::PaperProtocolNames()) {
    auto inner = dynvote::MakeProtocolByName(name, es.topology, *placement);
    if (!inner.ok()) return inner.status();
    (*inner)->set_obs(attached);
    protocols.push_back(std::make_unique<TimedProtocol>(
        inner.MoveValue(), &out.core, &obs,
        probe == Probe::kRecord && protocols.empty()));
  }
  auto rows = dynvote::RunAvailabilityExperiment(es, std::move(protocols));
  if (!rows.ok()) return rows.status();
  out.rows = rows.MoveValue();
  Digest d;
  if (serve) {
    obs.sink->Flush();
    if (!binary.ok()) return Status::Internal("trace: " + binary.error());
    out.trace = trace_out.str();
    DigestServing(out.rows, out.metrics, out.trace, &d);
  } else {
    DigestRows(out.rows, &d);
  }
  out.digest = d.value();
  out.object_years = ObjectYears(spec);
  return out;
}

/// A job run traced: simulation jobs through RunTracedSim (an object
/// sweep as its replications one after another, since the batched engine
/// takes no observability context); checker jobs have no trace hooks and
/// run plain.
Result<JobOutput> RunTracedJob(const Context& ctx, const JobSpec& spec) {
  if (spec.workload == kCheckClosure) return RunJob(ctx, spec);
  JobOutput out;
  if (spec.workload == kObjectSweep) {
    Digest d;
    const int reps = spec.GetInt("reps");
    for (int r = 0; r < reps; ++r) {
      auto run = RunTracedSim(
          ctx, spec, dynvote::ReplicationSeed(spec.GetU64("seed"), r),
          Probe::kCount);
      if (!run.ok()) return run.status();
      DigestRows(run->rows, &d);
    }
    out.digest = d.value();
    out.work = ObjectYears(spec) * reps;
    return out;
  }
  auto run = RunTracedSim(ctx, spec, spec.GetU64("seed"), Probe::kCount);
  if (!run.ok()) return run.status();
  out.digest = run->digest;
  out.work = run->object_years;
  return out;
}

/// The untraced counterpart RunTracedJob is compared with: the job
/// itself, except that an object sweep runs solo on one thread like its
/// traced replay (its digest is grouping-independent).
Result<JobOutput> RunUntracedJob(const Context& ctx, const JobSpec& spec) {
  if (spec.workload == kObjectSweep) return RunSweep(spec, 1, 1);
  return RunJob(ctx, spec);
}

// --------------------------------------------------------------------------
// Serving state mix: the state a serve job's decisions are made in.

/// Tracks the sites that are down and counts served decisions, the ones
/// made while some copy of the placement was down, and denials.
class MixSink final : public dynvote::TraceSink {
 public:
  explicit MixSink(dynvote::SiteSet copies) : copies_(copies) {}

  std::uint64_t served = 0, degraded = 0, denied = 0;

  void Write(const dynvote::TraceEvent& e) override {
    if (e.type == dynvote::TraceEventType::kNet && !e.repeater) {
      if (e.up) {
        down_.Remove(e.site);
      } else {
        down_.Add(e.site);
      }
    } else if (e.type == dynvote::TraceEventType::kServing) {
      ++served;
      if (down_.Intersects(copies_)) ++degraded;
      if (!e.granted) ++denied;
    }
  }

 private:
  dynvote::SiteSet copies_;
  dynvote::SiteSet down_;
};

// --------------------------------------------------------------------------
// Standalone layer replays. Each returns nanoseconds per operation.

/// EventQueue in the hold model: `depth` pending events; each RunNext
/// schedules its successor, so the depth stays constant.
double QueueNs(int depth, int ops) {
  dynvote::Rng rng(7);
  std::vector<double> delays(4096);
  for (double& d : delays) d = -std::log(rng.NextDoubleOpenLow());
  dynvote::EventQueue queue;
  std::size_t k = 0;
  struct Hold {
    dynvote::EventQueue* q;
    const std::vector<double>* d;
    std::size_t* k;
    void operator()(dynvote::SimTime now) const {
      q->Schedule(now + (*d)[(*k)++ % d->size()], *this);
    }
  };
  Hold hold{&queue, &delays, &k};
  for (int i = 0; i < depth; ++i) queue.Schedule(delays[k++], hold);
  const double t0 = NowSeconds();
  for (int i = 0; i < ops; ++i) queue.RunNext();
  return (NowSeconds() - t0) * 1e9 / ops;
}

/// CalendarQueue in the hold model at `depth` pending events.
double CalendarNs(int depth, int ops) {
  dynvote::Rng rng(11);
  std::vector<double> delays(4096);
  for (double& d : delays) d = -std::log(rng.NextDoubleOpenLow());
  dynvote::CalendarQueue queue;
  std::size_t k = 0;
  for (int i = 0; i < depth; ++i) {
    queue.Schedule(delays[k % delays.size()], k);
    ++k;
  }
  const double t0 = NowSeconds();
  for (int i = 0; i < ops; ++i) {
    const dynvote::CalendarEvent e = queue.PopNext();
    queue.Schedule(e.when + delays[k % delays.size()], e.payload);
    ++k;
  }
  return (NowSeconds() - t0) * 1e9 / ops;
}

void ApplyFlip(const Flip& f, dynvote::NetworkState* net) {
  if (f.repeater) {
    net->SetRepeaterUp(f.id, f.up);
  } else {
    net->SetSiteUp(f.id, f.up);
  }
}

/// SetSiteUp + Components() over the recorded flip sequence.
double RefreshNs(const std::shared_ptr<const dynvote::Topology>& topology,
                 const std::vector<Flip>& flips, int min_ops) {
  if (flips.empty()) return 0.0;
  int ops = 0;
  const double t0 = NowSeconds();
  while (ops < min_ops) {
    dynvote::NetworkState net(topology);
    for (const Flip& f : flips) {
      ApplyFlip(f, &net);
      Keep(net.Components().size());
    }
    ops += static_cast<int>(flips.size());
  }
  return (NowSeconds() - t0) * 1e9 / ops;
}

/// ComponentOf(copy) on each state of the recorded flip sequence, timed
/// in batches per state (the state refresh itself is excluded).
double ComponentOfNs(const std::shared_ptr<const dynvote::Topology>& topology,
                     const std::vector<Flip>& flips, dynvote::SiteSet copies,
                     double timer_ns) {
  if (flips.empty()) return 0.0;
  constexpr int kRepeat = 16;
  dynvote::NetworkState net(topology);
  double total_ns = 0;
  std::uint64_t calls = 0;
  for (const Flip& f : flips) {
    ApplyFlip(f, &net);
    Keep(net.Components().size());
    const double t0 = NowSeconds();
    for (int r = 0; r < kRepeat; ++r) {
      for (dynvote::SiteId s : copies) Keep(net.ComponentOf(s).mask());
    }
    total_ns += (NowSeconds() - t0) * 1e9 - timer_ns;
    calls += static_cast<std::uint64_t>(kRepeat * copies.Size());
  }
  return total_ns / static_cast<double>(calls);
}

/// AvailabilityTracker::Update at the recorded sample instants, with the
/// status taken from the recorded availability transitions.
double TrackerNs(const JobSpec& spec, const std::vector<double>& samples,
                 const std::vector<std::pair<double, bool>>& transitions) {
  if (samples.empty()) return 0.0;
  const dynvote::ExperimentOptions o = SimOptions(spec);
  std::vector<char> status(samples.size());
  std::size_t next = 0;
  bool available = true;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    while (next < transitions.size() && transitions[next].first <= samples[i]) {
      available = transitions[next++].second;
    }
    status[i] = available;
  }
  int ops = 0;
  const double t0 = NowSeconds();
  while (ops < 200000) {
    dynvote::AvailabilityTracker tracker(o.warmup, o.batch_length,
                                         o.num_batches);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      tracker.Update(samples[i], status[i] != 0);
    }
    tracker.Finish(o.warmup + o.batch_length * o.num_batches);
    Keep(static_cast<std::uint64_t>(tracker.NumUnavailablePeriods()));
    ops += static_cast<int>(samples.size());
  }
  return (NowSeconds() - t0) * 1e9 / ops;
}

/// ServingStage::OnArrival over the recorded arrivals of every protocol.
double ServingStageNs(const JobSpec& spec, const std::vector<Arrival>& arrivals,
                      int num_sites) {
  if (arrivals.empty()) return 0.0;
  const dynvote::ServingOptions options = SimOptions(spec).serving;
  std::map<std::string, std::unique_ptr<dynvote::ServingStage>> stages;
  for (const Arrival& a : arrivals) {
    if (stages.count(a.protocol) == 0) {
      stages[a.protocol] = std::make_unique<dynvote::ServingStage>(
          a.protocol, options, num_sites);
    }
  }
  std::vector<dynvote::ServingStage*> stage_of(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    stage_of[i] = stages[arrivals[i].protocol].get();
  }
  const double t0 = NowSeconds();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    Keep(stage_of[i]->OnArrival(a.t, a.origin, a.msgs, a.granted).depth);
  }
  return (NowSeconds() - t0) * 1e9 / static_cast<double>(arrivals.size());
}

/// Discards pages, so encoding is timed without the stream behind it.
class NullPageSink final : public dynvote::TracePageSink {
 public:
  void WritePage(std::string* page) override { page->clear(); }
  void Flush() override {}
  bool ok() const override { return true; }
  std::string error() const override { return ""; }
};

/// Decodes a binary trace body into about `max_events` events spread
/// evenly over it (every k-th event), whose strings outlive the reader.
/// A first pass counts the events, so a long trace is never held decoded
/// in full.
Result<std::vector<dynvote::TraceEvent>> DecodeTrace(
    const std::string& body, std::size_t max_events,
    std::set<std::string>* ops) {
  std::vector<dynvote::TraceEvent> events;
  std::size_t total = 0, stride = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::istringstream in(dynvote::BinaryTraceHeader(0) + body);
    dynvote::BinaryTraceReader reader(&in);
    DYNVOTE_RETURN_NOT_OK(reader.ReadHeader());
    dynvote::TraceEvent event;
    for (std::size_t i = 0;; ++i) {
      auto more = reader.Next(&event);
      if (!more.ok()) return more.status();
      if (!*more) break;
      if (pass == 0) {
        ++total;
      } else if (i % stride == 0) {
        event.op = ops->insert(event.op).first->c_str();
        events.push_back(event);
      }
    }
    stride = std::max<std::size_t>(1, (total + max_events - 1) / max_events);
  }
  return events;
}

/// BinaryTraceSink typed writes (generic Write for net and serving
/// events) replaying decoded events; labels are registered up front, as
/// emission sites cache them.
double EncodeNs(const std::vector<dynvote::TraceEvent>& events) {
  if (events.empty()) return 0.0;
  NullPageSink pages;
  dynvote::BinaryTraceSink sink(&pages);
  std::vector<std::uint32_t> labels(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const dynvote::TraceEvent& e = events[i];
    labels[i] = sink.RegisterLabel(e.type == dynvote::TraceEventType::kSim
                                       ? std::string_view(e.op)
                                       : std::string_view(e.protocol));
  }
  const double t0 = NowSeconds();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const dynvote::TraceEvent& e = events[i];
    switch (e.type) {
      case dynvote::TraceEventType::kSim:
        sink.WriteSim(e.t, e.seq, e.replication, e.op, labels[i]);
        break;
      case dynvote::TraceEventType::kQuorum: {
        dynvote::QuorumSetMasks sets{e.group, e.set_r, e.set_q,
                                     e.set_s, e.set_t, e.set_pm};
        sink.WriteQuorum(e.t, e.seq, e.replication, e.protocol, labels[i],
                         e.write, e.granted, e.reason, sets);
        break;
      }
      case dynvote::TraceEventType::kAccess:
        sink.WriteAccess(e.t, e.seq, e.replication, e.protocol, labels[i],
                         e.write, e.granted, e.reason, e.origin);
        break;
      case dynvote::TraceEventType::kAvail:
        sink.WriteAvail(e.t, e.seq, e.replication, e.protocol, labels[i],
                        e.available);
        break;
      case dynvote::TraceEventType::kNet:
      case dynvote::TraceEventType::kServing:
        sink.Write(e);
        break;
    }
  }
  sink.Flush();
  return (NowSeconds() - t0) * 1e9 / static_cast<double>(events.size());
}

/// Metrics counter updates as emitters make them — each key's cell
/// resolved once, then bumped — replaying the serve job's counters in
/// proportion to their recorded totals, interleaved at random.
double MetricsNs(const dynvote::MetricsShard& recorded) {
  std::vector<std::string> keys;
  std::vector<std::uint64_t> weights;
  std::uint64_t total = 0;
  for (const auto& [key, value] : recorded.counters()) {
    keys.push_back(key);
    weights.push_back(value);
    total += value;
  }
  if (total == 0) return 0.0;
  constexpr std::uint64_t kUpdates = 400000;
  std::vector<std::size_t> stream;
  stream.reserve(kUpdates);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::uint64_t n =
        std::max<std::uint64_t>(1, weights[k] * kUpdates / total);
    stream.insert(stream.end(), n, k);
  }
  dynvote::Rng rng(13);
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
  }
  dynvote::MetricsShard shard;
  std::vector<std::uint64_t*> cells(keys.size(), nullptr);
  const double t0 = NowSeconds();
  for (std::size_t k : stream) {
    if (cells[k] == nullptr) cells[k] = shard.CounterCell(keys[k]);
    ++*cells[k];
  }
  const double elapsed = NowSeconds() - t0;
  Keep(shard.counters().size());
  return elapsed * 1e9 / static_cast<double>(stream.size());
}

/// ThreadPool: empty tasks submitted and drained.
double PoolDispatchNs(int nproc) {
  constexpr int kTasks = 20000;
  dynvote::ThreadPool pool(nproc);
  const double t0 = NowSeconds();
  for (int i = 0; i < kTasks; ++i) pool.Submit([] {});
  pool.Wait();
  return (NowSeconds() - t0) * 1e9 / kTasks;
}

/// ShardedVisitedSet::InsertMin over the recorded signature stream on
/// `threads` threads, each inserting a contiguous slice; wall time per
/// insert.
double VisitedInsertNs(const std::vector<std::string>& signatures,
                       int threads) {
  if (signatures.empty()) return 0.0;
  dynvote::check::ShardedVisitedSet visited;
  const std::size_t n = signatures.size();
  auto insert = [&visited, &signatures](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) visited.InsertMin(signatures[i], i);
  };
  const double t0 = NowSeconds();
  if (threads <= 1) {
    insert(0, n);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(insert, n * t / threads, n * (t + 1) / threads);
    }
    for (std::thread& w : workers) w.join();
  }
  const double elapsed = NowSeconds() - t0;
  Keep(visited.Size());
  return elapsed * 1e9 / static_cast<double>(n);
}

/// The checker's breadth-first search without its thread pool or
/// partial-order reduction, replaying every expansion on a fresh
/// CheckHarness as the checker does: times CheckHarness::Apply and
/// records the canonical-signature stream.
struct CheckRecording {
  double apply_ns = 0;
  double applies_per_expansion = 0;
  std::vector<std::string> signatures;
};

Result<CheckRecording> RecordCheck(const JobSpec& spec,
                                   std::size_t max_expansions) {
  auto options = CheckOptionsOf(spec, 1);
  if (!options.ok()) return options.status();
  auto topology = dynvote::check::MakeCheckTopology(options->topology);
  if (!topology.ok()) return topology.status();
  const dynvote::SiteSet placement = (*topology)->AllSites();
  const std::vector<dynvote::check::CheckAction> alphabet =
      dynvote::check::ActionAlphabet(**topology);

  CheckRecording rec;
  double apply_s = 0;
  std::uint64_t applies = 0, expansions = 0;
  std::unordered_set<std::string> seen;
  std::deque<std::vector<dynvote::check::CheckAction>> frontier = {{}};
  for (int d = 0; d < options->depth && !frontier.empty(); ++d) {
    std::deque<std::vector<dynvote::check::CheckAction>> next;
    for (const auto& prefix : frontier) {
      for (const dynvote::check::CheckAction& action : alphabet) {
        if (expansions >= max_expansions) break;
        auto schedule = prefix;
        schedule.push_back(action);
        auto harness = dynvote::check::CheckHarness::Make(
            *topology, placement, options->protocol, options->policy);
        if (!harness.ok()) return harness.status();
        bool violated = false;
        const double t0 = NowSeconds();
        for (const auto& a : schedule) {
          if ((*harness)->Apply(a).has_value()) {
            violated = true;
            break;
          }
        }
        apply_s += NowSeconds() - t0;
        applies += schedule.size();
        ++expansions;
        if (violated) continue;
        std::string signature;
        if (!(*harness)->AppendSignature(&signature)) continue;
        rec.signatures.push_back(signature);
        if (seen.insert(signature).second) next.push_back(std::move(schedule));
      }
    }
    frontier = std::move(next);
  }
  if (applies == 0) return Status::Internal("check probe applied nothing");
  rec.apply_ns = apply_s * 1e9 / static_cast<double>(applies);
  rec.applies_per_expansion =
      static_cast<double>(applies) / static_cast<double>(expansions);
  return rec;
}

// --------------------------------------------------------------------------

/// Pending events of a solo simulation job: one failure-or-repair event
/// per site and repeater, one maintenance event per site with a
/// maintenance calendar, one per access stream.
int PendingDepth(const Context& ctx, const JobSpec& spec) {
  int depth = ctx.network.topology->num_sites() +
              ctx.network.topology->num_repeaters();
  for (const dynvote::SiteProfile& p : ctx.network.profiles) {
    if (p.maintenance_interval_days > 0) ++depth;
  }
  if (spec.workload == kServeTraced) {
    auto placement = Placement(spec);
    depth += placement.ok() ? placement->Size() : 1;
  } else {
    depth += 1;
  }
  return depth;
}

const JobSpec* FirstJob(const std::vector<JobSpec>& jobs,
                        const std::string& workload) {
  for (const JobSpec& j : jobs) {
    if (j.workload == workload) return &j;
  }
  return nullptr;
}

/// Named per-layer values and their rounds of replay timings.
class Layers {
 public:
  void Set(const std::string& name, double v) { values_[name] = v; }
  void AddSample(const std::string& name, double v) {
    samples_[name].push_back(v);
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    auto s = samples_.find(name);
    return s == samples_.end() ? 0.0 : Median(s->second);
  }
  std::string Json() const {
    std::map<std::string, double> all = values_;
    for (const auto& [name, v] : samples_) all[name] = Median(v);
    std::string out = "{";
    for (const auto& [name, v] : all) {
      if (out.size() > 1) out += ",";
      out += "\"" + name + "\":" + JsonNumber(v);
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
};

double PerYear(std::uint64_t count, double years) {
  return static_cast<double>(count) / years;
}

}  // namespace

int RunServeMix(const std::vector<JobSpec>& jobs, int nproc) {
  auto made = MakeContext(nproc);
  if (!made.ok()) {
    std::cerr << made.status() << "\n";
    return 2;
  }
  const Context& ctx = *made;
  std::string json = "{\"mode\":\"mix\",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& spec = jobs[i];
    auto placement = Placement(spec);
    if (!placement.ok()) {
      std::cerr << placement.status() << "\n";
      return 2;
    }
    dynvote::ExperimentSpec es;
    es.topology = ctx.network.topology;
    es.profiles = ctx.network.profiles;
    es.options = SimOptions(spec);
    MixSink mix(*placement);
    dynvote::MetricsShard metrics;
    dynvote::ObsContext obs;
    obs.sink = &mix;
    obs.metrics = &metrics;
    es.obs = &obs;
    std::vector<std::unique_ptr<dynvote::ConsistencyProtocol>> protocols;
    for (const std::string& name : dynvote::PaperProtocolNames()) {
      auto protocol =
          dynvote::MakeProtocolByName(name, es.topology, *placement);
      if (!protocol.ok()) {
        std::cerr << protocol.status() << "\n";
        return 2;
      }
      protocols.push_back(protocol.MoveValue());
    }
    auto rows = dynvote::RunAvailabilityExperiment(es, std::move(protocols));
    if (!rows.ok()) {
      std::cerr << rows.status() << "\n";
      return 2;
    }
    std::uint64_t arrivals = 0, rejected = 0, control = 0;
    for (const auto& [key, value] : metrics.counters()) {
      if (key.rfind("serving_arrivals", 0) == 0) arrivals += value;
      if (key.rfind("serving_rejected", 0) == 0) rejected += value;
    }
    for (const dynvote::PolicyResult& r : *rows) {
      control += r.messages.ControlTotal();
    }
    if (i > 0) json += ",";
    json += "{\"id\":" + std::to_string(spec.id) +
            ",\"arrivals\":" + std::to_string(arrivals) +
            ",\"rejected\":" + std::to_string(rejected) +
            ",\"served\":" + std::to_string(mix.served) +
            ",\"degraded\":" + std::to_string(mix.degraded) +
            ",\"denied\":" + std::to_string(mix.denied) +
            ",\"control_msgs\":" + std::to_string(control) + "}";
  }
  std::cout << json << "]}" << std::endl;
  return 0;
}

int RunTraced(const std::string& workload, const std::vector<JobSpec>& jobs,
              double seconds, int nproc) {
  const double started = NowSeconds();
  auto made = MakeContext(nproc);
  if (!made.ok()) {
    std::cerr << made.status() << "\n";
    return 2;
  }
  const Context ctx = made.MoveValue();
  const JobSpec* paper = FirstJob(jobs, kPaperTables);
  const JobSpec* sweep = FirstJob(jobs, kObjectSweep);
  const JobSpec* serve = FirstJob(jobs, kServeTraced);
  const JobSpec* check = FirstJob(jobs, kCheckClosure);
  if (paper == nullptr || sweep == nullptr || serve == nullptr ||
      check == nullptr || FirstJob(jobs, workload) == nullptr) {
    std::cerr << "traced mode needs jobs of all four workloads\n";
    return 2;
  }
  auto fail = [](const Status& st) {
    std::cerr << st << "\n";
    return 2;
  };
  const double timer_ns = TimerOverheadNs();
  Layers layers;
  // Every run of a generated job, traced or not, is recorded with its
  // output digest, which run.py checks against the recorded digests.
  std::string records;
  auto record = [&records](const JobSpec& spec, std::uint64_t digest,
                           double work) {
    JobOutput out;
    out.digest = digest;
    out.work = work;
    AppendJob(spec, 0.0, out, &records);
  };

  // Counts and recorded inputs: one traced job per home workload.
  auto paper_run =
      RunTracedSim(ctx, *paper, paper->GetU64("seed"), Probe::kRecord);
  if (!paper_run.ok()) return fail(paper_run.status());
  auto serve_run =
      RunTracedSim(ctx, *serve, serve->GetU64("seed"), Probe::kRecord);
  if (!serve_run.ok()) return fail(serve_run.status());
  record(*paper, paper_run->digest, paper_run->object_years);
  record(*serve, serve_run->digest, serve_run->object_years);
  auto sweep_run =
      RunTracedSim(ctx, *sweep, sweep->GetU64("seed"), Probe::kCount);
  if (!sweep_run.ok()) return fail(sweep_run.status());
  auto check_rec = RecordCheck(*check, 60000);
  if (!check_rec.ok()) return fail(check_rec.status());
  auto check_options = CheckOptionsOf(*check, 1);
  if (!check_options.ok()) return fail(check_options.status());
  const double check_t0 = NowSeconds();
  auto check_solo = dynvote::check::RunCheck(*check_options);
  const double check_solo_s = NowSeconds() - check_t0;
  if (!check_solo.ok()) return fail(check_solo.status());
  {
    Digest d;
    DigestCheck(*check_solo, &d);
    record(*check, d.value(),
           static_cast<double>(check_solo->states_visited));
  }
  std::set<std::string> ops;
  auto decoded = DecodeTrace(serve_run->trace, 200000, &ops);
  if (!decoded.ok()) return fail(decoded.status());

  const TracedSim& p = *paper_run;
  const TracedSim& s = *serve_run;
  const double p_years = p.object_years;
  const double s_years = s.object_years;
  const CountingSink& pc = *p.sink;
  const CountingSink& sc = *s.sink;
  auto mean_ns = [timer_ns](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n) - timer_ns;
  };
  layers.Set("sim.events_per_year", PerYear(pc.sim, p_years));
  layers.Set("net.flips_per_year", PerYear(pc.net, p_years));
  layers.Set("core.grant_checks_per_year",
             PerYear(pc.evaluations + pc.cache_hits, p_years));
  layers.Set("core.cache_hit_ratio",
             static_cast<double>(pc.cache_hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, pc.evaluations + pc.cache_hits)));
  layers.Set("repl.commits_per_year", PerYear(s.core.commits, s_years));
  std::uint64_t control = 0, attempted = 0;
  for (const dynvote::PolicyResult& r : s.rows) {
    control += r.messages.ControlTotal();
    attempted += r.accesses_attempted;
  }
  layers.Set("repl.control_msgs_per_access",
             static_cast<double>(control) /
                 static_cast<double>(std::max<std::uint64_t>(1, attempted)));
  layers.Set("obs.trace_events_per_year", PerYear(sc.total(), s_years));
  layers.Set("obs.trace_bytes_per_event",
             static_cast<double>(s.trace.size()) /
                 static_cast<double>(std::max<std::uint64_t>(1, sc.total())));
  layers.Set("check.transitions_per_state",
             static_cast<double>(check_solo->transitions) /
                 static_cast<double>(check_solo->states_visited));
  double sig_bytes = 0;
  for (const std::string& sig : check_rec->signatures) sig_bytes += sig.size();
  layers.Set("check.signature_bytes",
             sig_bytes / static_cast<double>(std::max<std::size_t>(
                             1, check_rec->signatures.size())));
  layers.Set("check.apply_ns", check_rec->apply_ns);

  // Tracing overhead and identity on the named workload: its first jobs,
  // untraced and traced in alternation.
  std::vector<const JobSpec*> own;
  for (const JobSpec& j : jobs) {
    if (j.workload == workload && own.size() < 4) own.push_back(&j);
  }
  bool identical = true;
  int traced_jobs = 0;
  std::vector<double> overhead;
  const double overhead_deadline = NowSeconds() + 0.4 * seconds;
  do {
    double untraced_s = 0, traced_s = 0;
    for (const JobSpec* j : own) {
      double t0 = NowSeconds();
      auto plain = RunUntracedJob(ctx, *j);
      untraced_s += NowSeconds() - t0;
      t0 = NowSeconds();
      auto traced = RunTracedJob(ctx, *j);
      traced_s += NowSeconds() - t0;
      if (!plain.ok()) return fail(plain.status());
      if (!traced.ok()) return fail(traced.status());
      if (plain->digest != traced->digest) identical = false;
      AppendJob(*j, 0.0, plain, &records);
      AppendJob(*j, 0.0, traced, &records);
      ++traced_jobs;
    }
    overhead.push_back(traced_s / untraced_s);
  } while (NowSeconds() < overhead_deadline);
  layers.Set("trace.overhead_ratio", Median(overhead));

  // End-to-end cost per object-year of each engine, and the standalone
  // layer replays, in rounds until the time is up; medians reported.
  auto placement = Placement(*paper);
  if (!placement.ok()) return fail(placement.status());
  const int depth = PendingDepth(ctx, *paper);
  const int objects = sweep->GetInt("objects");
  const int reps = sweep->GetInt("reps");
  const double sweep_years = ObjectYears(*sweep);
  dynvote::BatchedProtocolSpec batched{dynvote::PaperProtocolNames(),
                                       *Placement(*sweep)};
  dynvote::ExperimentSpec sweep_spec;
  sweep_spec.topology = ctx.network.topology;
  sweep_spec.profiles = ctx.network.profiles;
  sweep_spec.options = SimOptions(*sweep);
  // The decorator records sample instants of the first protocol only.
  const std::vector<std::pair<double, bool>> no_transitions;
  auto logged = p.sink->avail_log.find(dynvote::PaperProtocolNames()[0]);
  const auto& transitions =
      logged == p.sink->avail_log.end() ? no_transitions : logged->second;
  // Core call costs per simulation workload, from decorated runs without
  // the counting sink; their results must match the untraced jobs too.
  auto time_core = [&](const JobSpec& spec, std::uint64_t digest,
                       const std::string& prefix) -> Status {
    auto run = RunTracedSim(ctx, spec, spec.GetU64("seed"), Probe::kTime);
    if (!run.ok()) return run.status();
    if (run->digest != digest) identical = false;
    record(spec, run->digest, run->object_years);
    const CoreTimes& t = run->core;
    layers.AddSample(prefix + "would_grant_ns",
                     mean_ns(t.would_grant_ns, t.would_grant));
    layers.AddSample(prefix + "on_network_event_ns",
                     mean_ns(t.on_network_event_ns, t.on_network_event));
    layers.AddSample(prefix + "user_access_ns",
                     mean_ns(t.user_access_ns, t.user_access));
    return Status::OK();
  };
  const double deadline = started + seconds;
  do {
    Status st = time_core(*paper, p.digest, "paper.core.");
    if (st.ok()) st = time_core(*serve, s.digest, "serve.core.");
    if (!st.ok()) return fail(st);
    double t0 = NowSeconds();
    auto solo = RunJob(ctx, *paper);
    if (!solo.ok()) return fail(solo.status());
    AppendJob(*paper, 0.0, solo, &records);
    layers.AddSample("model.solo_ns_per_object_year",
                     (NowSeconds() - t0) * 1e9 / p_years);
    t0 = NowSeconds();
    auto served = RunJob(ctx, *serve);
    if (!served.ok()) return fail(served.status());
    AppendJob(*serve, 0.0, served, &records);
    layers.AddSample("serve.ns_per_object_year",
                     (NowSeconds() - t0) * 1e9 / s_years);

    // Batched engine: each group alone on this thread, then the whole
    // job fanned out; efficiency is summed group time over threads x wall.
    double groups_s = 0;
    int groups = 0;
    for (int lo = 0; lo < reps; lo += objects) {
      std::vector<std::uint64_t> seeds;
      for (int r = lo; r < std::min(reps, lo + objects); ++r) {
        seeds.push_back(dynvote::ReplicationSeed(sweep->GetU64("seed"), r));
      }
      t0 = NowSeconds();
      auto rows = dynvote::RunBatchedAvailabilityExperiment(sweep_spec,
                                                            batched, seeds);
      groups_s += NowSeconds() - t0;
      if (!rows.ok()) return fail(rows.status());
      ++groups;
    }
    layers.AddSample("model.batched_ns_per_object_year",
                     groups_s * 1e9 / (sweep_years * reps));
    t0 = NowSeconds();
    auto fanned = RunSweep(*sweep, objects, nproc);
    const double wall = NowSeconds() - t0;
    if (!fanned.ok()) return fail(fanned.status());
    AppendJob(*sweep, 0.0, fanned, &records);
    layers.AddSample("model.fanout_efficiency",
                     groups_s / (std::min(nproc, groups) * wall));

    layers.AddSample("sim.queue_ns", QueueNs(depth, 400000));
    layers.AddSample("sim.calendar_ns",
                     CalendarNs(depth * objects, 400000));
    layers.AddSample("net.refresh_ns",
                     RefreshNs(ctx.network.topology, pc.flips, 200000));
    layers.AddSample("net.component_of_ns",
                     ComponentOfNs(ctx.network.topology, pc.flips,
                                   *placement, timer_ns));
    layers.AddSample("stats.tracker_update_ns",
                     TrackerNs(*paper, p.core.sample_times, transitions));
    layers.AddSample("model.serving_stage_ns",
                     ServingStageNs(*serve, sc.arrivals,
                                    ctx.network.topology->num_sites()));
    layers.AddSample("obs.encode_ns_per_event", EncodeNs(*decoded));
    layers.AddSample("obs.metrics_ns_per_update", MetricsNs(s.metrics));
    layers.AddSample("util.pool_dispatch_ns", PoolDispatchNs(nproc));
    layers.AddSample("check.visited_insert_ns",
                     VisitedInsertNs(check_rec->signatures, 1));
    layers.AddSample("check.visited_insert_mt_ns",
                     VisitedInsertNs(check_rec->signatures, nproc));
  } while (NowSeconds() < deadline);

  // Each core call is reported on its home workload.
  layers.Set("core.would_grant_ns", layers.Get("paper.core.would_grant_ns"));
  layers.Set("core.on_network_event_ns",
             layers.Get("paper.core.on_network_event_ns"));
  layers.Set("core.user_access_ns", layers.Get("serve.core.user_access_ns"));

  // Reconciliation: layer counts x layer costs per object-year against
  // the named workload's end-to-end cost per object-year (per transition
  // for the checker, run on one thread); the rest is unattributed.
  auto sim_layers = [&layers](const TracedSim& run, const std::string& core) {
    const CountingSink& c = *run.sink;
    const CoreTimes& t = run.core;
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    return n(c.sim) * layers.Get("sim.queue_ns") +
           n(c.net) * layers.Get("net.refresh_ns") +
           n(t.would_grant) * layers.Get(core + "would_grant_ns") +
           n(t.on_network_event) * layers.Get(core + "on_network_event_ns") +
           n(t.user_access) * layers.Get(core + "user_access_ns") +
           n(t.on_network_event + t.user_access) *
               layers.Get("stats.tracker_update_ns");
  };
  double attributed = 0, total = 0;
  if (workload == kPaperTables) {
    attributed = sim_layers(p, "paper.core.") / p_years;
    total = layers.Get("model.solo_ns_per_object_year");
  } else if (workload == kServeTraced) {
    // Events emitted inside the decorated calls are already in their
    // time; the rest are encoded and counted outside them. Each emission
    // bumps one metrics counter cell.
    const double outside = static_cast<double>(sc.sim + sc.net + sc.avail +
                                               sc.serving);
    attributed = (sim_layers(s, "serve.core.") +
                  static_cast<double>(sc.serving) *
                      layers.Get("model.serving_stage_ns") +
                  outside * (layers.Get("obs.encode_ns_per_event") +
                             layers.Get("obs.metrics_ns_per_update"))) /
                 s_years;
    total = layers.Get("serve.ns_per_object_year");
  } else if (workload == kObjectSweep) {
    // The batched engine's protocol fast path is inline; only its queue
    // and the fan-out are separately callable layers.
    attributed = PerYear(sweep_run->sink->sim, sweep_run->object_years) *
                     layers.Get("sim.calendar_ns") +
                 layers.Get("util.pool_dispatch_ns") * reps / objects /
                     (sweep_years * reps);
    total = layers.Get("model.batched_ns_per_object_year");
  } else {
    attributed = check_rec->applies_per_expansion *
                     layers.Get("check.apply_ns") +
                 layers.Get("check.visited_insert_ns");
    total = check_solo_s * 1e9 /
            static_cast<double>(check_solo->transitions);
  }
  // The signed share goes negative when the replays over-attribute; the
  // residual is its size, so either direction reads as worse.
  layers.Set("recon.unattributed_signed", 1.0 - attributed / total);
  layers.Set("recon.residual_frac", std::fabs(1.0 - attributed / total));

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::cout << "{\"mode\":\"traced\",\"identical\":"
            << (identical ? "true" : "false")
            << ",\"traced_jobs\":" << traced_jobs
            << ",\"jobs\":[" << records << "]"
            << ",\"overhead_rounds\":" << JsonArray(overhead)
            << ",\"layers\":" << layers.Json()
            << ",\"peak_rss_kb\":" << usage.ru_maxrss
            << ",\"provenance\":" << ProvenanceJson() << "}" << std::endl;
  return 0;
}

}  // namespace perfbench
