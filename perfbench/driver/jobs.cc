#include "driver/jobs.h"

#include <cstdio>
#include <sstream>

#include "check/topologies.h"
#include "core/registry.h"

namespace perfbench {

using dynvote::Result;
using dynvote::Status;

void Digest::AddBytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JobSpec::Get(const std::string& name) const {
  auto it = fields.find(name);
  return it == fields.end() ? std::string() : it->second;
}

double JobSpec::GetDouble(const std::string& name) const {
  return std::stod(Get(name));
}

std::uint64_t JobSpec::GetU64(const std::string& name) const {
  return std::stoull(Get(name));
}

int JobSpec::GetInt(const std::string& name) const {
  return std::stoi(Get(name));
}

Result<JobSpec> ParseJobLine(const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  JobSpec spec;
  if (!(in >> tag >> spec.workload >> spec.id) || tag != "job") {
    return Status::InvalidArgument("bad job line: " + line);
  }
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("bad job field '" + token + "'");
    }
    spec.fields[token.substr(0, eq)] = token.substr(eq + 1);
    if (!spec.key.empty()) spec.key += ' ';
    spec.key += token;
  }
  spec.key = spec.workload + ' ' + spec.key;
  return spec;
}

Result<Context> MakeContext(int nproc) {
  auto network = dynvote::MakePaperNetwork();
  if (!network.ok()) return network.status();
  Context ctx;
  ctx.network = network.MoveValue();
  ctx.nproc = nproc;
  return ctx;
}

dynvote::ExperimentOptions SimOptions(const JobSpec& spec) {
  dynvote::ExperimentOptions options;
  options.warmup = dynvote::Days(spec.GetDouble("warmup_days"));
  options.num_batches = spec.GetInt("batches");
  options.batch_length = dynvote::Years(spec.GetDouble("batch_years"));
  options.seed = spec.GetU64("seed");
  if (!spec.Get("rate").empty()) {
    options.serving.enabled = true;
    options.serving.arrival_rate_per_day = spec.GetDouble("rate");
  }
  return options;
}

double ObjectYears(const JobSpec& spec) {
  const dynvote::ExperimentOptions o = SimOptions(spec);
  return dynvote::ToYears(o.warmup + o.batch_length * o.num_batches);
}

Result<dynvote::SiteSet> Placement(const JobSpec& spec) {
  const std::string label = spec.Get("config");
  for (const dynvote::PaperConfiguration& c :
       dynvote::PaperConfigurations()) {
    if (label.size() == 1 && c.label == label[0]) return c.placement;
  }
  return Status::InvalidArgument("unknown configuration '" + label + "'");
}

Result<dynvote::check::CheckOptions> CheckOptionsOf(const JobSpec& spec,
                                                    int jobs) {
  dynvote::check::CheckOptions options;
  options.protocol = spec.Get("protocol");
  options.topology = spec.Get("topology");
  options.depth = spec.GetInt("depth");
  options.jobs = jobs;
  // Strict iff the protocol has no documented partition hazard, as the
  // CLI's --strict=auto decides.
  auto topology = dynvote::check::MakeCheckTopology(options.topology);
  if (!topology.ok()) return topology.status();
  auto probe = dynvote::MakeProtocolByName(options.protocol, *topology,
                                           (*topology)->AllSites());
  if (!probe.ok()) return probe.status();
  options.policy.strict = (*probe)->partition_safe();
  return options;
}

void DigestRows(const std::vector<dynvote::PolicyResult>& rows, Digest* d) {
  for (const dynvote::PolicyResult& r : rows) {
    d->AddString(r.name);
    d->AddDouble(r.unavailability);
    d->AddU64(static_cast<std::uint64_t>(r.stats.num_batches));
    d->AddDouble(r.stats.mean);
    d->AddDouble(r.stats.stddev);
    d->AddDouble(r.stats.ci95_halfwidth);
    d->AddDouble(r.mean_unavailable_duration);
    d->AddU64(static_cast<std::uint64_t>(r.num_unavailable_periods));
    d->AddU64(r.accesses_attempted);
    d->AddU64(r.accesses_granted);
    for (int k = 0; k < dynvote::kNumMessageKinds; ++k) {
      d->AddU64(r.messages.count(static_cast<dynvote::MessageKind>(k)));
    }
    d->AddDouble(r.measured_time);
    d->AddU64(r.dual_majority_instants);
    d->AddDouble(r.time_to_first_outage);
  }
}

void DigestServing(const std::vector<dynvote::PolicyResult>& rows,
                   const dynvote::MetricsShard& metrics,
                   const std::string& trace, Digest* d) {
  DigestRows(rows, d);
  for (const dynvote::PolicyResult& r : rows) {
    auto it = metrics.histograms().find(
        dynvote::MetricKey("serving_latency_ms", "protocol=" + r.name));
    dynvote::HistogramData latency;
    if (it != metrics.histograms().end()) latency = it->second;
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      d->AddDouble(latency.Quantile(q));
    }
  }
  d->AddString(metrics.ToJson());
  d->AddString(trace);
}

void DigestCheck(const dynvote::check::CheckReport& report, Digest* d) {
  d->AddU64(report.states_visited);
  d->AddU64(report.transitions);
  d->AddU64(report.commits);
  d->AddU64(report.reads_checked);
  d->AddU64(report.memoized ? 1 : 0);
  d->AddU64(report.por_active ? 1 : 0);
  d->AddU64(report.visited_digest);
  d->AddString(report.counterexample.has_value()
                   ? report.counterexample->violation.invariant
                   : std::string("no violation"));
}

namespace {

Result<dynvote::ReplicatedResults> RunPaper(
    const JobSpec& spec, const dynvote::ReplicationOptions& replication) {
  const std::string config = spec.Get("config");
  if (config.size() != 1) {
    return Status::InvalidArgument("bad configuration '" + config + "'");
  }
  return dynvote::RunReplicatedPaperExperiment(
      config[0], dynvote::PaperProtocolNames(), SimOptions(spec),
      replication);
}

Result<JobOutput> RunCheckJob(const Context& ctx, const JobSpec& spec) {
  auto options = CheckOptionsOf(spec, ctx.nproc);
  if (!options.ok()) return options.status();
  const double t0 = NowSeconds();
  auto report = dynvote::check::RunCheck(*options);
  const double seconds = NowSeconds() - t0;
  if (!report.ok()) return report.status();
  JobOutput out;
  out.seconds = seconds;
  Digest d;
  DigestCheck(*report, &d);
  out.digest = d.value();
  out.work = static_cast<double>(report->states_visited);
  return out;
}

}  // namespace

Result<JobOutput> RunSweep(const JobSpec& spec, int objects, int jobs) {
  dynvote::ReplicationOptions replication;
  replication.replications = spec.GetInt("reps");
  replication.jobs = jobs;
  replication.objects = objects;
  const double t0 = NowSeconds();
  auto results = RunPaper(spec, replication);
  const double seconds = NowSeconds() - t0;
  if (!results.ok()) return results.status();
  JobOutput out;
  out.seconds = seconds;
  Digest d;
  for (const auto& rows : results->per_replication) DigestRows(rows, &d);
  out.digest = d.value();
  out.work = ObjectYears(spec) * replication.replications;
  return out;
}

Result<JobOutput> RunJob(const Context& ctx, const JobSpec& spec) {
  if (spec.workload == kCheckClosure) return RunCheckJob(ctx, spec);
  if (spec.workload == kObjectSweep) {
    return RunSweep(spec, spec.GetInt("objects"), ctx.nproc);
  }
  dynvote::ReplicationOptions replication;  // one replication, inline
  const bool serve = spec.workload == kServeTraced;
  if (serve) {
    replication.collect_traces = true;
    replication.trace_format = dynvote::TraceFormat::kBinary;
    replication.collect_metrics = true;
  } else if (spec.workload != kPaperTables) {
    return Status::InvalidArgument("unknown workload " + spec.workload);
  }
  const double t0 = NowSeconds();
  auto results = RunPaper(spec, replication);
  const double seconds = NowSeconds() - t0;
  if (!results.ok()) return results.status();
  JobOutput out;
  out.seconds = seconds;
  Digest d;
  if (serve) {
    DigestServing(results->per_replication[0], results->metrics,
                  results->traces[0], &d);
  } else {
    DigestRows(results->per_replication[0], &d);
  }
  out.digest = d.value();
  out.work = ObjectYears(spec);
  return out;
}

}  // namespace perfbench
