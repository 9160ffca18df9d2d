#include "repl/replica_store.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace dynvote {

Result<ReplicaStore> ReplicaStore::Make(SiteSet placement) {
  if (placement.Empty()) {
    return Status::InvalidArgument("placement must contain at least one site");
  }
  return ReplicaStore(placement);
}

ReplicaStore::ReplicaStore(SiteSet placement) : placement_(placement) {
  states_.resize(placement.RankMin() + 1);
  Reset();
}

void ReplicaStore::Reset() {
  for (SiteId s : placement_) {
    states_[s] = ReplicaState{1, 1, placement_};
  }
  ++epoch_;
}

const ReplicaState& ReplicaStore::state(SiteId site) const {
  DYNVOTE_CHECK_MSG(placement_.Contains(site),
                    "queried a site that holds no copy");
  return states_[site];
}

ReplicaState* ReplicaStore::mutable_state(SiteId site) {
  DYNVOTE_CHECK_MSG(placement_.Contains(site),
                    "mutated a site that holds no copy");
  // Conservative: the caller may write through the pointer, so every
  // handout invalidates memoized decisions.
  ++epoch_;
  return &states_[site];
}

OpNumber ReplicaStore::MaxOp(SiteSet among) const {
  SiteSet copies = CopiesAmong(among);
  DYNVOTE_CHECK_MSG(!copies.Empty(), "MaxOp over a set with no copies");
  OpNumber best = 0;
  for (SiteId s : copies) best = std::max(best, states_[s].op_number);
  return best;
}

VersionNumber ReplicaStore::MaxVersion(SiteSet among) const {
  SiteSet copies = CopiesAmong(among);
  DYNVOTE_CHECK_MSG(!copies.Empty(), "MaxVersion over a set with no copies");
  VersionNumber best = 0;
  for (SiteId s : copies) best = std::max(best, states_[s].version);
  return best;
}

ReplicaStore::MaxSites ReplicaStore::ScanMaxSites(SiteSet among) const {
  MaxSites out;
  out.max_op = std::numeric_limits<OpNumber>::min();
  out.max_version = std::numeric_limits<VersionNumber>::min();
  for (SiteId s : CopiesAmong(among)) {
    const ReplicaState& st = states_[s];
    if (st.op_number > out.max_op) {
      out.max_op = st.op_number;
      out.op_sites = SiteSet();
    }
    if (st.op_number == out.max_op) out.op_sites.Add(s);
    if (st.version > out.max_version) {
      out.max_version = st.version;
      out.version_sites = SiteSet();
    }
    if (st.version == out.max_version) out.version_sites.Add(s);
  }
  return out;
}

namespace {
/// Rank of `value` among the sorted distinct values in `sorted` (which
/// must contain it).
int RankOf(const std::vector<std::int64_t>& sorted, std::int64_t value) {
  return static_cast<int>(
      std::lower_bound(sorted.begin(), sorted.end(), value) -
      sorted.begin());
}
}  // namespace

void ReplicaStore::AppendCanonicalSignature(std::string* out) const {
  std::vector<std::int64_t> ops, versions;
  for (SiteId s : placement_) {
    ops.push_back(states_[s].op_number);
    versions.push_back(states_[s].version);
  }
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  std::sort(versions.begin(), versions.end());
  versions.erase(std::unique(versions.begin(), versions.end()),
                 versions.end());
  for (SiteId s : placement_) {
    const ReplicaState& st = states_[s];
    out->push_back('o');
    *out += std::to_string(RankOf(ops, st.op_number));
    out->push_back('v');
    *out += std::to_string(RankOf(versions, st.version));
    out->push_back('p');
    *out += std::to_string(st.partition_set.mask());
    out->push_back(';');
  }
}

void ReplicaStore::Commit(SiteSet participants, OpNumber op,
                          VersionNumber version, SiteSet new_partition_set) {
  for (SiteId s : CopiesAmong(participants)) {
    states_[s] = ReplicaState{op, version, new_partition_set};
  }
  ++epoch_;
}

}  // namespace dynvote
