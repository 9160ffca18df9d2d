// Property tests of the shared quorum primitives against their original,
// multi-scan definitions:
//
//   * ReplicaStore::ScanMaxSites computes Q, S, o_m and v_m in one pass;
//     the original code took MaxOp, then scanned again for Q, and
//     likewise for S.
//   * EvaluateDynamicQuorum carries o_m and v_m in the decision; the
//     original protocol code re-scanned the store with MaxOp(R) and
//     MaxVersion(R) at every commit.
//   * ReplicaStore::ForEachStaleCopy re-reads the group maximum only
//     after a recover; the original ReintegrateGroup re-scanned it for
//     every copy.
//
// The last two are checked end to end: a reference dynamic-voting
// protocol written with the original definitions runs next to
// DynamicVoting over random histories, and every copy's state and every
// message count must agree after every step.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_voting.h"
#include "core/quorum.h"
#include "net/network_state.h"
#include "net/topology.h"
#include "repl/message_bus.h"
#include "repl/replica_store.h"
#include "util/rng.h"

namespace dynvote {
namespace {

/// The original definitions: one scan for each maximum, one more for
/// each set.
struct NaiveMax {
  SiteSet q, s;
  OpNumber o = std::numeric_limits<OpNumber>::min();
  VersionNumber v = std::numeric_limits<VersionNumber>::min();
};

NaiveMax Naive(const ReplicaStore& store, SiteSet among) {
  NaiveMax out;
  const SiteSet copies = among.Intersect(store.placement());
  for (SiteId s : copies) out.o = std::max(out.o, store.state(s).op_number);
  for (SiteId s : copies) out.v = std::max(out.v, store.state(s).version);
  for (SiteId s : copies) {
    if (store.state(s).op_number == out.o) out.q.Add(s);
    if (store.state(s).version == out.v) out.s.Add(s);
  }
  return out;
}

/// Three segments of three sites (site ids 0-2, 3-5, 6-8), joined in a
/// chain by two repeaters.
std::shared_ptr<const Topology> ThreeSegments() {
  auto builder = Topology::Builder();
  SegmentId seg[3];
  for (int g = 0; g < 3; ++g) {
    seg[g] = builder.AddSegment("seg" + std::to_string(g));
    for (int i = 0; i < 3; ++i) {
      builder.AddSite("s" + std::to_string(3 * g + i), seg[g]);
    }
  }
  builder.AddRepeater("r01", seg[0], seg[1]);
  builder.AddRepeater("r12", seg[1], seg[2]);
  auto topo = builder.Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  return topo.MoveValue();
}

SiteSet RandomSubset(Rng& rng, SiteSet of) {
  SiteSet out;
  for (SiteId s : of) {
    if (rng.NextBernoulli(0.5)) out.Add(s);
  }
  return out;
}

/// A store over a random placement with random, often-tied ensembles.
ReplicaStore RandomStore(Rng& rng, SiteSet universe) {
  SiteSet placement = RandomSubset(rng, universe);
  if (placement.Empty()) {
    placement.Add(static_cast<SiteId>(rng.NextBounded(9)));
  }
  ReplicaStore store = ReplicaStore::Make(placement).MoveValue();
  for (SiteId s : placement) {
    ReplicaState* st = store.mutable_state(s);
    st->op_number = 1 + static_cast<OpNumber>(rng.NextBounded(4));
    st->version = 1 + static_cast<VersionNumber>(rng.NextBounded(3));
    st->partition_set = RandomSubset(rng, placement);
    if (st->partition_set.Empty()) st->partition_set = placement;
  }
  return store;
}

TEST(QuorumPrimitivesPropertyTest, OnePassScanEqualsSeparateScans) {
  Rng rng(0x5CA9);
  const SiteSet universe = SiteSet::FirstN(9);
  for (int trial = 0; trial < 2000; ++trial) {
    ReplicaStore store = RandomStore(rng, universe);
    for (int g = 0; g < 8; ++g) {
      const SiteSet among = RandomSubset(rng, universe);
      const NaiveMax want = Naive(store, among);
      const ReplicaStore::MaxSites got = store.ScanMaxSites(among);
      ASSERT_EQ(got.op_sites, want.q) << "trial " << trial;
      ASSERT_EQ(got.version_sites, want.s) << "trial " << trial;
      ASSERT_EQ(store.MaxOpSites(among), want.q);
      ASSERT_EQ(store.MaxVersionSites(among), want.s);
      if (want.q.Empty()) continue;
      ASSERT_EQ(got.max_op, want.o);
      ASSERT_EQ(got.max_version, want.v);
      ASSERT_EQ(got.max_op, store.MaxOp(among));
      ASSERT_EQ(got.max_version, store.MaxVersion(among));
    }
  }
}

TEST(QuorumPrimitivesPropertyTest, DecisionCarriesTheGroupMaxima) {
  Rng rng(0xDEC1);
  auto topology = ThreeSegments();
  const SiteSet universe = topology->AllSites();
  for (int trial = 0; trial < 2000; ++trial) {
    ReplicaStore store = RandomStore(rng, universe);
    for (int g = 0; g < 8; ++g) {
      const SiteSet group = RandomSubset(rng, universe);
      const TieBreak tie = rng.NextBernoulli(0.5) ? TieBreak::kLexicographic
                                                  : TieBreak::kNone;
      const Topology* topo = rng.NextBernoulli(0.5) ? topology.get() : nullptr;
      const QuorumDecision d = EvaluateDynamicQuorum(store, group, tie, topo);
      const NaiveMax want = Naive(store, group);
      ASSERT_EQ(d.quorum_set, want.q);
      ASSERT_EQ(d.current_set, want.s);
      if (d.reachable_copies.Empty()) continue;
      ASSERT_EQ(d.max_op, store.MaxOp(d.reachable_copies))
          << "trial " << trial;
      ASSERT_EQ(d.max_version, store.MaxVersion(d.reachable_copies));
      // The carried values are the representative's and S's own.
      ASSERT_EQ(d.max_op, store.state(d.representative).op_number);
      ASSERT_EQ(d.max_version, store.state(d.current_set.RankMax()).version);
    }
  }
}

/// One RECOVER of Figure 3 on a bare store: LDV evaluation, then
/// COMMIT(S ∪ {site}, o_m + 1, v_m). Returns the commit's participants
/// (empty when the group is denied and nothing is committed).
SiteSet RecoverInto(ReplicaStore& store, SiteSet group, SiteId site) {
  const QuorumDecision d =
      EvaluateDynamicQuorum(store, group, TieBreak::kLexicographic);
  if (!d.granted) return SiteSet();
  const SiteSet participants = d.current_set.Union(SiteSet{site});
  store.Commit(participants, d.max_op + 1, d.max_version, participants);
  return participants;
}

TEST(QuorumPrimitivesPropertyTest, StaleSweepMatchesPerCopyRescan) {
  // Arbitrary stores, unlike protocol histories, often hold a copy with
  // the maximal operation number but not the maximal version (Q ⊄ S).
  // A recover then raises the maximum past that copy, which the sweep
  // must notice when it reaches it; the sweeps below recover two or more
  // copies in most trials.
  Rng rng(0x57A1E);
  const SiteSet universe = SiteSet::FirstN(9);
  int raised_mid_sweep = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    ReplicaStore swept = RandomStore(rng, universe);
    ReplicaStore rescanned = swept;
    const SiteSet group = RandomSubset(rng, universe);

    std::vector<SiteSet> want;
    const SiteSet copies = rescanned.CopiesAmong(group);
    for (SiteId s : copies) {
      if (rescanned.state(s).op_number < rescanned.MaxOp(copies)) {
        want.push_back(RecoverInto(rescanned, group, s));
      }
    }
    std::vector<SiteSet> got;
    swept.ForEachStaleCopy(group, [&](SiteId s) {
      got.push_back(RecoverInto(swept, group, s));
      return true;
    });

    ASSERT_EQ(got, want) << "trial " << trial;
    for (SiteId s : swept.placement()) {
      ASSERT_EQ(swept.state(s), rescanned.state(s)) << "trial " << trial;
    }
    if (want.size() > 1) ++raised_mid_sweep;
  }
  EXPECT_GT(raised_mid_sweep, 100);
}

/// Dynamic voting exactly as first written: every commit re-scans the
/// store for o_m and v_m, and reintegration re-scans the group maximum
/// for every copy. Plain variants only (uniform weights, no witnesses).
class ReferenceDynamicVoting {
 public:
  ReferenceDynamicVoting(std::shared_ptr<const Topology> topology,
                         SiteSet placement, TieBreak tie_break,
                         bool topological, bool optimistic)
      : topology_(std::move(topology)),
        store_(ReplicaStore::Make(placement).MoveValue()),
        tie_break_(tie_break),
        topological_(topological),
        optimistic_(optimistic) {}

  const ReplicaStore& store() const { return store_; }
  const MessageCounter& counter() const { return counter_; }
  /// Most recovers one reintegration sweep performed.
  int max_sweep_recovers() const { return max_sweep_recovers_; }

  void UserAccess(const NetworkState& net, AccessType type) {
    for (const SiteSet& group : net.Components()) {
      SiteSet copies = store_.CopiesAmong(group);
      if (copies.Empty()) continue;
      if (!Evaluate(group).granted) continue;
      if (Access(net, copies.RankMax(), type)) ReintegrateGroup(net, group);
      return;
    }
  }

  void OnNetworkEvent(const NetworkState& net) {
    if (optimistic_) return;
    for (const SiteSet& group : net.Components()) {
      SiteSet copies = store_.CopiesAmong(group);
      if (copies.Empty()) continue;
      counter_.Add(MessageKind::kInstantRefresh, 2 * copies.Size());
      QuorumDecision d = Evaluate(group);
      if (!d.granted) continue;
      if (d.current_set == d.prev_partition && copies == d.current_set) {
        continue;
      }
      store_.Commit(d.current_set, store_.MaxOp(d.reachable_copies) + 1,
                    store_.MaxVersion(d.reachable_copies), d.current_set);
      counter_.Add(MessageKind::kCommit, d.current_set.Size());
      ReintegrateGroup(net, group);
    }
  }

 private:
  QuorumDecision Evaluate(SiteSet group) const {
    return EvaluateDynamicQuorum(store_, group, tie_break_,
                                 topological_ ? topology_.get() : nullptr);
  }

  bool Access(const NetworkState& net, SiteId origin, AccessType type) {
    SiteSet group = net.ComponentOf(origin);
    SiteSet reachable = store_.CopiesAmong(group);
    counter_.Add(MessageKind::kProbe, store_.placement().Size());
    counter_.Add(MessageKind::kProbeReply, reachable.Size());
    counter_.Add(MessageKind::kStateRequest, reachable.Size());
    counter_.Add(MessageKind::kStateReply, reachable.Size());
    QuorumDecision d = Evaluate(group);
    if (!d.granted) {
      counter_.Add(MessageKind::kAbort, reachable.Size());
      return false;
    }
    OpNumber op = store_.MaxOp(d.reachable_copies) + 1;
    VersionNumber version = store_.MaxVersion(d.reachable_copies);
    if (type == AccessType::kWrite) ++version;
    store_.Commit(d.current_set, op, version, d.current_set);
    counter_.Add(MessageKind::kCommit, d.current_set.Size());
    return true;
  }

  bool Recover(const NetworkState& net, SiteId site) {
    QuorumDecision d = Evaluate(net.ComponentOf(site));
    if (!d.granted) {
      counter_.Add(MessageKind::kAbort, d.reachable_copies.Size());
      return false;
    }
    OpNumber op = store_.MaxOp(d.reachable_copies) + 1;
    VersionNumber version = store_.MaxVersion(d.reachable_copies);
    if (store_.state(site).version < version) {
      counter_.Add(MessageKind::kFileCopy, 1);
    }
    SiteSet participants = d.current_set.Union(SiteSet{site});
    store_.Commit(participants, op, version, participants);
    counter_.Add(MessageKind::kCommit, participants.Size());
    return true;
  }

  void ReintegrateGroup(const NetworkState& net, SiteSet group) {
    SiteSet copies = store_.CopiesAmong(group);
    int recovers = 0;
    for (SiteId s : copies) {
      if (store_.state(s).op_number < store_.MaxOp(copies)) {
        EXPECT_TRUE(Recover(net, s));
        ++recovers;
      }
    }
    max_sweep_recovers_ = std::max(max_sweep_recovers_, recovers);
  }

  std::shared_ptr<const Topology> topology_;
  ReplicaStore store_;
  TieBreak tie_break_;
  bool topological_;
  bool optimistic_;
  MessageCounter counter_;
  int max_sweep_recovers_ = 0;
};

struct Variant {
  const char* name;
  TieBreak tie_break;
  bool topological;
  bool optimistic;
};

TEST(QuorumPrimitivesPropertyTest, ProtocolMatchesOriginalDefinitions) {
  const Variant variants[] = {
      {"DV", TieBreak::kNone, false, false},
      {"LDV", TieBreak::kLexicographic, false, false},
      {"ODV", TieBreak::kLexicographic, false, true},
      {"TDV", TieBreak::kLexicographic, true, false},
      {"OTDV", TieBreak::kLexicographic, true, true},
  };
  auto topology = ThreeSegments();
  const SiteSet placements[] = {SiteSet{0, 1, 3, 4, 6},
                                SiteSet{0, 2, 4, 5, 7, 8},
                                SiteSet{1, 3, 6}};
  int multi_stale_sweeps = 0;
  for (const Variant& v : variants) {
    for (SiteSet placement : placements) {
      DynamicVotingOptions options;
      options.tie_break = v.tie_break;
      options.topological = v.topological;
      options.optimistic = v.optimistic;
      auto made = DynamicVoting::Make(topology, placement, options);
      ASSERT_TRUE(made.ok()) << made.status();
      std::unique_ptr<DynamicVoting> protocol = made.MoveValue();
      ReferenceDynamicVoting reference(topology, placement, v.tie_break,
                                       v.topological, v.optimistic);
      NetworkState net(topology);
      Rng rng(placement.mask() * 31 + static_cast<std::uint64_t>(v.name[0]));
      for (int step = 0; step < 3000; ++step) {
        if (rng.NextBernoulli(0.5)) {
          const int n = topology->num_sites() + topology->num_repeaters();
          const int which = static_cast<int>(rng.NextBounded(n));
          const bool up = rng.NextBernoulli(0.6);
          if (which < topology->num_sites()) {
            net.SetSiteUp(which, up);
          } else {
            net.SetRepeaterUp(which - topology->num_sites(), up);
          }
          protocol->OnNetworkEvent(net);
          reference.OnNetworkEvent(net);
        } else {
          const AccessType type = rng.NextBernoulli(0.5) ? AccessType::kWrite
                                                         : AccessType::kRead;
          (void)protocol->UserAccess(net, type);
          reference.UserAccess(net, type);
        }
        for (SiteId s : placement) {
          ASSERT_EQ(protocol->store().state(s), reference.store().state(s))
              << v.name << " " << placement << " site " << s << " step "
              << step;
        }
        for (int k = 0; k < kNumMessageKinds; ++k) {
          const auto kind = static_cast<MessageKind>(k);
          ASSERT_EQ(protocol->counter()->count(kind),
                    reference.counter().count(kind))
              << v.name << " " << placement << " kind " << k << " step "
              << step;
        }
      }
      if (reference.max_sweep_recovers() > 1) ++multi_stale_sweeps;
    }
  }
  // Sweeps that recovered two or more copies, so a recover raised the
  // group maximum before the sweep finished, must have been exercised.
  EXPECT_GT(multi_stale_sweeps, 0);
}

}  // namespace
}  // namespace dynvote
