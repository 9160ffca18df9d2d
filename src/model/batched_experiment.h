// The batched multi-object simulation engine: N independent replicated
// files ("objects") run through ONE event loop over a CalendarQueue,
// with replica/protocol state held as struct-of-arrays — per-object
// site up/down bits, 64-bit SiteSet masks, vote counters and operation/
// version scalars in contiguous arrays — instead of N Simulator +
// protocol-object heaps. The paper's one-access-per-day workload is the
// sparse-event regime where per-object fixed costs (event-queue
// comparisons, std::function dispatch, virtual protocol calls) dominate.
// The engine avoids them with plain-data events and integer fast paths;
// grouping objects into one loop saves nothing measurable on top (N=1
// runs an object-year as fast as N=64).
//
// Bit-identity contract (the hard constraint carried from PRs 1-2):
// PolicyResult rows for object k in a batch of N are bit-identical to a
// solo RunAvailabilityExperiment with seed seeds[k] — same tracker
// updates, counters, grant decisions and RNG draw sequence. The engine
// guarantees this by construction:
//   - each object owns private Rng streams split exactly as the solo
//     NetworkProcessModel / AccessProcess split them (Rng master(seed),
//     sites then repeaters via master.Split(); access stream seeded
//     seed ^ 0x5DEECE66D);
//   - the calendar queue pops in (time, schedule-seq) order, so each
//     object's events fire in the same relative order a solo EventQueue
//     would fire them;
//   - protocol decisions use an integer fast path (all-copies-equal
//     "uniform" mode: popcount majority tests over SiteSet masks) that
//     falls back to the real ReplicaStore + EvaluateDynamicQuorum the
//     moment a commit leaves the copies divergent, so every decision
//     equals the solo protocol object's decision.
//
// Known exceptions to the contract (both change recorded benchmark
// digests when fixed, so they are documented rather than fixed here):
//   - maintenance arithmetic: OnMaintenanceEnd schedules the next window
//     at (now + Days(interval)) - Hours(duration), while the solo
//     NetworkProcessModel computes now + (Days(interval) -
//     Hours(duration)). The two roundings can differ in the last bit, so
//     a maintenance start can land one ulp apart and reorder against an
//     event at the same instant;
//   - with the arithmetic aligned, configuration D still diverges for
//     replication seeds 6000018 and 26000078 between objects=64 and
//     objects=1. The cause is not yet identified.
//
// The engine is deliberately observability-free: traced or metered runs
// route through the per-replication instrumented path (see
// model/replicated_experiment.cc), which produces identical statistics.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/experiment.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {

/// Protocol selection for the batched engine: registry names sharing one
/// placement (the paper's experiments always compare protocols over a
/// common placement).
struct BatchedProtocolSpec {
  std::vector<std::string> policies;
  SiteSet placement;
};

/// True iff every named policy has a batched fast-path implementation:
/// the paper set MCV, DV, LDV, ODV, TDV, OTDV (at most 32 policies).
/// Anything else (AC, JM-DV, weighted/witness variants) must run through
/// the per-replication protocol objects.
bool BatchedEngineSupports(const std::vector<std::string>& policies);

/// Runs seeds.size() independent objects through one event loop.
/// Returns one PolicyResult row vector per object, in seed order;
/// results[k][p] is bit-identical to what RunAvailabilityExperiment
/// would report for policy p with spec.options.seed = seeds[k].
/// spec.options.seed itself is ignored; spec.obs must be null.
Result<std::vector<std::vector<PolicyResult>>>
RunBatchedAvailabilityExperiment(const ExperimentSpec& spec,
                                 const BatchedProtocolSpec& protocols,
                                 const std::vector<std::uint64_t>& seeds);

}  // namespace dynvote
