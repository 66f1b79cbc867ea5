// Karger-Ruhl structural invariants under a join/leave storm.
//
// The write path keeps every member's samples in one flat block and
// locates a leaver's holders through per-member occurrence lists. A
// slip in either — a count past samples_per_scale, a departed id left
// behind, a holding whose occurrence entry was never written or was
// compacted away, a list that outgrew its compaction trigger — leaves
// the overlay answering queries while silently leaking or routing to
// the dead. CheckInvariants states all of these; this test drives a
// seeded storm of 2,000 joins and leaves (with and without probe
// loss) and checks them after Build, every 50 events, and on clones.
//
// Each storm ends on a digest of the whole overlay: every sample list
// in order, every occurrence-list length, and the storm rng's next
// draw. The write path is tuned for memory-level parallelism, but its
// writes and rng draws must stay in one fixed order; a reordered
// replacement draw or a compaction moved to another join changes the
// digest even where every invariant still holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "algos/karger_ruhl.h"
#include "matrix/faulty_space.h"
#include "matrix/generators.h"

namespace np::algos {
namespace {

using core::MatrixSpace;

constexpr NodeId kWorld = 1200;
constexpr NodeId kInitial = 600;  // > 4 x the join budget: Sample rejects
constexpr int kEvents = 2000;
constexpr int kCheckEvery = 50;
constexpr std::size_t kMinMembers = 40;

void ExpectSameSamples(const KargerRuhlNearest& a,
                       const KargerRuhlNearest& b) {
  ASSERT_EQ(a.members(), b.members());
  for (const NodeId member : a.members()) {
    for (int scale = 0; scale < KargerRuhlNearest::kNumScales; ++scale) {
      ASSERT_EQ(a.SamplesOf(member, scale), b.SamplesOf(member, scale))
          << "member " << member << " scale " << scale;
    }
  }
}

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
class Fnv1a {
 public:
  void Fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every member in membership order: its id, then per scale the list
/// length and ids in list order, then its occurrence-list length; last,
/// the next draw of the rng that drove the storm.
std::uint64_t OverlayDigest(const KargerRuhlNearest& algo, util::Rng& rng) {
  Fnv1a digest;
  for (const NodeId member : algo.members()) {
    digest.Fold(static_cast<std::uint64_t>(member));
    for (int scale = 0; scale < KargerRuhlNearest::kNumScales; ++scale) {
      const std::vector<NodeId> samples = algo.SamplesOf(member, scale);
      digest.Fold(samples.size());
      for (const NodeId held : samples) {
        digest.Fold(static_cast<std::uint64_t>(held));
      }
    }
    digest.Fold(algo.OccurrenceEntries(member));
  }
  digest.Fold(rng());
  return digest.value();
}

void RunStorm(double loss_rate, std::uint64_t seed,
              std::uint64_t expected_digest) {
  util::Rng world_rng(seed);
  matrix::EuclideanConfig world_config;
  world_config.dimensions = 3;
  const auto world = matrix::GenerateEuclidean(kWorld, world_config, world_rng);
  const MatrixSpace exact(world.matrix);
  const matrix::FaultySpace space(exact, loss_rate, seed ^ 0x5eed);

  std::vector<NodeId> members;
  std::vector<NodeId> outside;
  for (NodeId node = 0; node < kWorld; ++node) {
    (node < kInitial ? members : outside).push_back(node);
  }
  KargerRuhlNearest algo{KargerRuhlConfig{}};
  util::Rng rng(seed + 1);
  algo.Build(space, members, rng);
  algo.CheckInvariants();

  for (int event = 1; event <= kEvents; ++event) {
    const bool join = !outside.empty() &&
                      (members.size() <= kMinMembers || rng.Bernoulli(0.5));
    std::vector<NodeId>& from = join ? outside : members;
    std::vector<NodeId>& to = join ? members : outside;
    const std::size_t pick = rng.Index(from.size());
    const NodeId node = from[pick];
    from[pick] = from.back();
    from.pop_back();
    to.push_back(node);
    if (join) {
      algo.AddMember(node, rng);
    } else {
      algo.RemoveMember(node);
    }
    if (event % kCheckEvery == 0) {
      ASSERT_NO_THROW(algo.CheckInvariants()) << "after event " << event;
    }
    if (event == kEvents / 2) {
      // A clone carries the same state and keeps it when the original
      // moves on.
      const auto clone = algo.Clone();
      const auto& copy = dynamic_cast<const KargerRuhlNearest&>(*clone);
      copy.CheckInvariants();
      ExpectSameSamples(algo, copy);
      const std::vector<NodeId> before = copy.members();
      for (int i = 0; i < 20; ++i) {
        algo.RemoveMember(members.back());
        outside.push_back(members.back());
        members.pop_back();
      }
      copy.CheckInvariants();
      EXPECT_EQ(copy.members(), before);
    }
  }
  EXPECT_EQ(algo.members().size(), members.size());

  const auto clone = algo.Clone();
  const auto& copy = dynamic_cast<const KargerRuhlNearest&>(*clone);
  copy.CheckInvariants();
  ExpectSameSamples(algo, copy);
  const std::uint64_t digest = OverlayDigest(algo, rng);
  EXPECT_EQ(digest, expected_digest) << std::hex << "digest 0x" << digest;
}

TEST(KargerRuhlInvariants, HoldThroughoutJoinLeaveStorm) {
  RunStorm(/*loss_rate=*/0.0, /*seed=*/71,
           /*expected_digest=*/0xdf10855542e4c056ULL);
}

TEST(KargerRuhlInvariants, HoldThroughoutLossyJoinLeaveStorm) {
  RunStorm(/*loss_rate=*/0.2, /*seed=*/73,
           /*expected_digest=*/0x71d79042e0327a86ULL);
}

}  // namespace
}  // namespace np::algos
