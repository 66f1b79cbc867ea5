#include "core/epoch_window.h"

#include <utility>

#include "util/error.h"

namespace np::core {

void ValidatePartitions(const std::vector<FaultConfig::Partition>& partitions,
                        int num_clusters) {
  NP_ENSURE(partitions.empty() || num_clusters > 0,
            "fault.partitions splits clusters and needs a clustered world");
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const FaultConfig::Partition& p = partitions[i];
    NP_ENSURE(p.start_epoch >= 0 && p.end_epoch > p.start_epoch,
              "partition window needs 0 <= start_epoch < end_epoch");
    NP_ENSURE(p.groups.size() >= 2,
              "a partition needs at least two groups to split anything");
    std::vector<bool> seen(static_cast<std::size_t>(num_clusters), false);
    for (const std::vector<int>& group : p.groups) {
      for (const int cluster : group) {
        NP_ENSURE(cluster >= 0 && cluster < num_clusters,
                  "partition group names a cluster outside the world");
        NP_ENSURE(!seen[static_cast<std::size_t>(cluster)],
                  "partition groups must be disjoint");
        seen[static_cast<std::size_t>(cluster)] = true;
      }
    }
    for (std::size_t j = 0; j < i; ++j) {
      NP_ENSURE(p.end_epoch <= partitions[j].start_epoch ||
                    partitions[j].end_epoch <= p.start_epoch,
                "partition windows must not overlap");
    }
  }
}

matrix::PartitionSchedule BuildPartitionSchedule(
    const FaultConfig& fault, const matrix::ClusterLayout* layout,
    NodeId space_size, std::uint64_t fault_root) {
  matrix::PartitionSchedule sched;
  sched.grey_node_frac = fault.grey_node_frac;
  sched.grey_loss_rate = fault.grey_loss_rate;
  sched.grey_seed = util::Mix64(fault_root ^ 0x4);
  sched.asymmetric_frac = fault.asymmetric_loss;
  sched.asym_seed = util::Mix64(fault_root ^ 0x5);
  ValidatePartitions(fault.partitions,
                     layout == nullptr ? 0 : layout->cluster_count());
  for (const FaultConfig::Partition& p : fault.partitions) {
    // Cluster -> component map; unlisted clusters sit in component 0.
    std::vector<int> cluster_component(
        static_cast<std::size_t>(layout->cluster_count()), 0);
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      for (const int cluster : p.groups[g]) {
        cluster_component[static_cast<std::size_t>(cluster)] =
            static_cast<int>(g);
      }
    }
    matrix::PartitionWindow w;
    w.start_epoch = p.start_epoch;
    w.end_epoch = p.end_epoch;
    w.component.resize(static_cast<std::size_t>(space_size), 0);
    for (NodeId n = 0; n < space_size; ++n) {
      w.component[static_cast<std::size_t>(n)] =
          cluster_component[static_cast<std::size_t>(layout->ClusterOf(n))];
    }
    sched.windows.push_back(std::move(w));
  }
  return sched;
}

}  // namespace np::core
