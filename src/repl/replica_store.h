// Holds the state ensembles of all physical copies of one replicated file
// and implements the bulk queries the voting algorithms are written in
// terms of: Q (maximal-operation-number sites), S (maximal-version sites)
// and the COMMIT that installs a new partition set.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repl/replica_state.h"
#include "util/result.h"
#include "util/site_set.h"

namespace dynvote {

/// State ensembles for the copies of one replicated file.
///
/// The store is indexed by global SiteId; only sites in `placement` hold
/// copies. Querying a non-placement site is a programming error (checked).
class ReplicaStore {
 public:
  /// Creates a store for copies at `placement` (must be non-empty) in the
  /// paper's initial state: o = v = 1, partition set = placement.
  static Result<ReplicaStore> Make(SiteSet placement);

  /// Returns every copy to the initial state.
  void Reset();

  SiteSet placement() const { return placement_; }
  int num_copies() const { return placement_.Size(); }

  /// Monotonic counter bumped by every mutation path (Commit, Reset and
  /// each mutable_state handout). Two observations with equal epoch() saw
  /// identical replica state, so derived quorum decisions may be memoized
  /// keyed on it.
  std::uint64_t epoch() const { return epoch_; }

  /// State of the copy at `site`; `site` must be in placement().
  const ReplicaState& state(SiteId site) const;
  ReplicaState* mutable_state(SiteId site);

  /// Restricts `sites` to sites actually holding copies.
  SiteSet CopiesAmong(SiteSet sites) const {
    return sites.Intersect(placement_);
  }

  /// Maximum operation number among copies in `among` (∩ placement).
  /// `among` must contain at least one copy.
  OpNumber MaxOp(SiteSet among) const;

  /// Maximum version among copies in `among` (∩ placement).
  VersionNumber MaxVersion(SiteSet among) const;

  /// Q and S of the paper with the maxima that define them.
  struct MaxSites {
    /// Q: copies whose operation number equals `max_op`.
    SiteSet op_sites;
    /// S: copies whose version equals `max_version`.
    SiteSet version_sites;
    /// o_m and v_m; meaningless when the scanned set holds no copies.
    OpNumber max_op = 0;
    VersionNumber max_version = 0;
  };

  /// Q, S, o_m and v_m over the copies in `among`, in one pass. Both sets
  /// are empty iff `among` holds no copies.
  MaxSites ScanMaxSites(SiteSet among) const;

  /// Q of the paper: copies in `among` whose operation number equals the
  /// maximum over `among`. Empty iff `among` holds no copies.
  SiteSet MaxOpSites(SiteSet among) const {
    return ScanMaxSites(among).op_sites;
  }

  /// S of the paper: copies in `among` whose version equals the maximum
  /// over `among`. Empty iff `among` holds no copies.
  SiteSet MaxVersionSites(SiteSet among) const {
    return ScanMaxSites(among).version_sites;
  }

  /// The reintegration sweep of Figures 3 and 7: calls `recover(s)` for
  /// every copy s in `among`, in increasing id order, whose operation
  /// number is below the maximum over `among`. Only a recover commit can
  /// raise that maximum, so it is re-read after each call and never
  /// between. `recover` returns false to end the sweep.
  template <typename Recover>
  void ForEachStaleCopy(SiteSet among, Recover&& recover) const {
    const SiteSet copies = CopiesAmong(among);
    if (copies.Empty()) return;
    OpNumber max_op = MaxOp(copies);
    for (SiteId s : copies) {
      if (states_[s].op_number < max_op) {
        if (!recover(s)) return;
        max_op = MaxOp(copies);
      }
    }
  }

  /// COMMIT of the paper: installs `op`/`version`/`new_partition_set` at
  /// every copy in `participants` (∩ placement).
  void Commit(SiteSet participants, OpNumber op, VersionNumber version,
              SiteSet new_partition_set);

  /// Appends a canonical fingerprint of every copy's ensemble to `out`.
  /// Operation and version numbers are replaced by their rank among the
  /// distinct values present, so two stores whose copies agree on the
  /// *relative* order of operation numbers and versions (the only thing
  /// the quorum test consumes) produce identical fingerprints even when
  /// the absolute counters differ. Used by the model checker to merge
  /// equivalent states (src/check/).
  void AppendCanonicalSignature(std::string* out) const;

 private:
  explicit ReplicaStore(SiteSet placement);

  SiteSet placement_;
  std::vector<ReplicaState> states_;  // indexed by SiteId, dense to max id
  std::uint64_t epoch_ = 0;
};

}  // namespace dynvote
