// The traced run: per-layer counts and costs, measured from outside the
// library. A counting TraceSink on ObsContext counts events by type and
// reason, a ConsistencyProtocol decorator times the core calls, and
// standalone replays time each layer's public functions on inputs
// recorded from traced jobs. Every layer is measured on the first job of
// the workload that reaches it; the workload named on the command line
// additionally gets its tracing overhead, a byte-identity check of
// traced against untraced results, and the reconciliation of layer costs
// against its end-to-end cost per object-year.

#pragma once

#include <string>
#include <vector>

#include "driver/jobs.h"

namespace perfbench {

/// Runs the traced mode and prints its JSON line. Returns the exit code.
int RunTraced(const std::string& workload, const std::vector<JobSpec>& jobs,
              double seconds, int nproc);

/// Runs each serve job with metrics and a state-tracking sink and prints
/// its state mix as one JSON line: arrivals, those rejected because their
/// origin was down, served decisions, those made with a copy down, denied
/// ones, and control messages. Returns the exit code.
int RunServeMix(const std::vector<JobSpec>& jobs, int nproc);

/// Compiler, flags and build type of this driver, as a JSON object.
std::string ProvenanceJson();

/// Appends the record [id, seconds, digest, work, worker] of one job run
/// to a JSON list, with a separating comma unless the list is empty;
/// a failed run's digest is "error".
void AppendJob(const JobSpec& spec, double seconds,
               const dynvote::Result<JobOutput>& out, std::string* json,
               int worker = 0);

/// %.17g, the digits a double needs to round-trip.
std::string JsonNumber(double v);
std::string JsonArray(const std::vector<double>& values);

}  // namespace perfbench
