// One benchmark job per input line: parsing the generated job lines, the
// untraced call into each workload's public entry point, and the output
// digest every job is checked against.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/checker.h"
#include "model/experiment.h"
#include "model/replicated_experiment.h"
#include "model/site_profile.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace perfbench {

inline constexpr const char kPaperTables[] = "paper_tables";
inline constexpr const char kObjectSweep[] = "object_sweep";
inline constexpr const char kServeTraced[] = "serve_traced";
inline constexpr const char kCheckClosure[] = "check_closure";

/// Seconds on the steady clock since an arbitrary origin.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over the canonical bytes of a job's outputs.
class Digest {
 public:
  void AddBytes(const void* data, std::size_t n);
  void AddU64(std::uint64_t v) { AddBytes(&v, sizeof(v)); }
  void AddDouble(double v) { AddBytes(&v, sizeof(v)); }
  void AddString(const std::string& s) {
    AddU64(s.size());
    AddBytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string Hex(std::uint64_t v);

/// One generated job: `job <workload> <id> key=value ...`. `key` is the
/// text after the id — the input's identity, under which its expected
/// digest is recorded.
struct JobSpec {
  std::string workload;
  int id = 0;
  std::string key;
  std::map<std::string, std::string> fields;

  std::string Get(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  std::uint64_t GetU64(const std::string& name) const;
  int GetInt(const std::string& name) const;
};

dynvote::Result<JobSpec> ParseJobLine(const std::string& line);

/// Immutable state every job of a run shares.
struct Context {
  dynvote::PaperNetwork network;
  int nproc = 1;
};

dynvote::Result<Context> MakeContext(int nproc);

struct JobOutput {
  /// Host time of the entry-point call alone (hashing excluded).
  double seconds = 0.0;
  std::uint64_t digest = 0;
  /// Object-years simulated, or checker states visited.
  double work = 0.0;
};

/// Run-length, workload and seed options of a simulation job.
dynvote::ExperimentOptions SimOptions(const JobSpec& spec);
/// Simulated years of one object of a simulation job (warm-up included).
double ObjectYears(const JobSpec& spec);
dynvote::Result<dynvote::SiteSet> Placement(const JobSpec& spec);
/// The checker job's options on `jobs` threads, strict iff the protocol
/// is partition-safe.
dynvote::Result<dynvote::check::CheckOptions> CheckOptionsOf(
    const JobSpec& spec, int jobs);

/// Runs a job through its workload's public entry point, untraced.
dynvote::Result<JobOutput> RunJob(const Context& ctx, const JobSpec& spec);

/// The object_sweep job with `objects` objects per batched event loop,
/// fanned out over `jobs` threads.
dynvote::Result<JobOutput> RunSweep(const JobSpec& spec, int objects,
                                    int jobs);

// Digest pieces, shared with the traced run so both hash identically.
void DigestRows(const std::vector<dynvote::PolicyResult>& rows, Digest* d);
void DigestServing(const std::vector<dynvote::PolicyResult>& rows,
                   const dynvote::MetricsShard& metrics,
                   const std::string& trace, Digest* d);
void DigestCheck(const dynvote::check::CheckReport& report, Digest* d);

}  // namespace perfbench
