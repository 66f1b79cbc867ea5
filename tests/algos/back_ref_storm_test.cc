// Meridian and Tapestry under a join/leave storm, pinned by a digest.
//
// Both overlays locate a leaver's holders through per-member
// back-reference lists (core::BackRefs) that compact when they double.
// Where and when a compaction runs does not change what a query sees,
// but it does change every later list length, and a compaction that
// judged a live entry stale would leave a holder unpurged. This test
// drives a seeded storm of joins and leaves (with and without probe
// loss) and ends on a digest of the whole overlay: every member's
// rings or routing table in order, every back-reference-list length,
// and the storm rng's next draw. A moved compaction, a reordered purge
// or a changed rng draw changes the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "algos/tapestry.h"
#include "matrix/faulty_space.h"
#include "matrix/generators.h"
#include "meridian/meridian.h"

namespace np::algos {
namespace {

using core::MatrixSpace;

constexpr NodeId kWorld = 500;
constexpr NodeId kInitial = 250;
constexpr int kEvents = 1200;
constexpr std::size_t kMinMembers = 40;

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

/// Every member in membership order: its id, then per ring the ring
/// length and each entry's id and latency bits in ring order, then its
/// occurrence-list length.
void FoldOverlay(const meridian::MeridianOverlay& algo, Fnv1a& digest) {
  for (const NodeId member : algo.members()) {
    digest.Fold(static_cast<std::uint64_t>(member));
    for (const auto& ring : algo.RingsOf(member)) {
      digest.Fold(ring.size());
      for (const meridian::RingEntry& entry : ring) {
        digest.Fold(static_cast<std::uint64_t>(entry.member));
        digest.Fold(std::bit_cast<std::uint64_t>(entry.latency_ms));
      }
    }
    digest.Fold(algo.OccurrenceEntries(member));
  }
}

/// Every member in membership order: its id and identifier, then per
/// level the table's entries, then its back-reference-list length.
void FoldOverlay(const TapestryNearest& algo, Fnv1a& digest) {
  for (const NodeId member : algo.members()) {
    digest.Fold(static_cast<std::uint64_t>(member));
    digest.Fold(algo.IdOf(member));
    for (int level = 0; level < TapestryNearest::kNumDigits; ++level) {
      const std::vector<NodeId> table = algo.TableOf(member, level);
      digest.Fold(table.size());
      for (const NodeId entry : table) {
        digest.Fold(static_cast<std::uint64_t>(entry));
      }
    }
    digest.Fold(algo.RefEntries(member));
  }
}

template <typename Overlay>
std::uint64_t StormDigest(Overlay algo, double loss_rate, std::uint64_t seed) {
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
  util::Rng rng(seed + 1);
  algo.Build(space, members, rng);
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
  }
  EXPECT_EQ(algo.members().size(), members.size());

  Fnv1a digest;
  FoldOverlay(algo, digest);
  digest.Fold(rng());
  return digest.value();
}

TEST(BackRefStorm, MeridianDigestIsPinned) {
  const std::uint64_t digest = StormDigest(
      meridian::MeridianOverlay{meridian::MeridianConfig{}}, 0.0, 81);
  EXPECT_EQ(digest, 0x909404f49d25ad6fULL) << std::hex << "digest 0x" << digest;
}

TEST(BackRefStorm, MeridianLossyDigestIsPinned) {
  const std::uint64_t digest = StormDigest(
      meridian::MeridianOverlay{meridian::MeridianConfig{}}, 0.2, 83);
  EXPECT_EQ(digest, 0xa0a811b3fdc431e4ULL) << std::hex << "digest 0x" << digest;
}

TEST(BackRefStorm, TapestryDigestIsPinned) {
  const std::uint64_t digest =
      StormDigest(TapestryNearest{TapestryConfig{}}, 0.0, 85);
  EXPECT_EQ(digest, 0x2c06756f3f464f0bULL) << std::hex << "digest 0x" << digest;
}

TEST(BackRefStorm, TapestryLossyDigestIsPinned) {
  const std::uint64_t digest =
      StormDigest(TapestryNearest{TapestryConfig{}}, 0.2, 87);
  EXPECT_EQ(digest, 0xf1e9a70c997f7dfbULL) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace np::algos
