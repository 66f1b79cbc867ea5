#include "core/member_index.h"

#include <utility>

#include "util/error.h"

namespace np::core {

void MemberIndex::Reset(std::vector<NodeId> members) {
  // Element-wise Add keeps members_ and slot_of_ consistent at every
  // step, so a duplicate or negative id throws out of a state that is
  // still safe to Clear()/Reset() (never a member vector whose ids
  // were not admitted into the slot table).
  Clear();
  members_.reserve(members.size());
  for (const NodeId node : members) {
    Add(node);
  }
}

void MemberIndex::Clear() {
  for (const NodeId node : members_) {
    slot_of_[static_cast<std::size_t>(node)] = -1;
  }
  members_.clear();
}

std::size_t MemberIndex::Add(NodeId node) {
  NP_ENSURE(node >= 0, "member ids must be non-negative");
  const auto id = static_cast<std::size_t>(node);
  if (id >= slot_of_.size()) {
    slot_of_.resize(id + 1, -1);
  }
  NP_ENSURE(slot_of_[id] < 0, "node is already a member");
  const std::size_t position = members_.size();
  members_.push_back(node);
  slot_of_[id] = static_cast<std::int32_t>(position);
  return position;
}

MemberIndex::RemoveResult MemberIndex::Remove(NodeId node) {
  const std::size_t position = PositionOf(node);
  NP_ENSURE(position != kNoPosition, "not a member");
  RemoveResult result;
  result.position = position;
  const std::size_t last = members_.size() - 1;
  if (position != last) {
    members_[position] = members_[last];
    slot_of_[static_cast<std::size_t>(members_[position])] =
        static_cast<std::int32_t>(position);
    result.swapped = true;
  }
  members_.pop_back();
  slot_of_[static_cast<std::size_t>(node)] = -1;
  return result;
}

}  // namespace np::core
