// Flat open-addressing table from 64-bit keys to 64-bit counts.
//
// The probe path's per-pair and per-id bookkeeping: util::PairStream's
// per-pair probe counts and the per-query "probed" sets of the routing
// algorithms. One array of {key, count} slots, a power of two long,
// linear probing from a Fibonacci hash of the key; the all-ones word
// marks an empty slot, so it is the one key the table cannot hold (no
// PairKey of two NodeIds and no single NodeId equals it). The array is
// allocated on the first insert and doubles whenever an insert would
// take the load past 3/4, so past its first array a table of N keys
// holds between 4N/3 and 8N/3 slots of 16 bytes (2^20 keys: 2^21
// slots, 32 MB).
//
// There is no erase and no iteration: lookups and counts never depend
// on slot order, and Clear() empties every slot while keeping the
// array, so a table reused across queries allocates only while it
// grows past the largest query it has served. Clearing an empty table
// costs nothing. Not thread-safe; owners keep one table per instance.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace np::util {

class FlatCountTable {
 public:
  /// The key that marks an empty slot; inserting it is a bug.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  /// Slots of the first array.
  static constexpr std::size_t kMinSlots = 16;

  /// Post-increments the count of `key`: returns the count before this
  /// call (0 for a key not yet in the table) and stores it plus one.
  std::uint64_t Increment(std::uint64_t key) {
    NP_DCHECK(key != kEmptyKey, "FlatCountTable cannot hold the empty key");
    if (slots_.empty()) {
      Grow();
    }
    std::size_t i = Find(key);
    if (slots_[i].key == key) {
      return slots_[i].count++;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
      i = Find(key);
    }
    slots_[i] = {key, 1};
    ++size_;
    return 0;
  }

  /// Set use: adds `key`; true on its first sighting.
  bool Insert(std::uint64_t key) { return Increment(key) == 0; }

  bool Contains(std::uint64_t key) const {
    return !slots_.empty() && slots_[Find(key)].key == key;
  }

  /// Distinct keys held.
  std::size_t size() const { return size_; }
  /// Slots of the current array (0 before the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// Empties every slot; the array and its capacity stay. Returns at
  /// once when the table holds no key.
  void Clear() {
    if (size_ == 0) {
      return;
    }
    std::fill(slots_.begin(), slots_.end(), Slot{kEmptyKey, 0});
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t count;
  };

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t Find(std::uint64_t key) const {
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }

  /// Doubles the array (or allocates the first one) and re-inserts
  /// every held key with its count.
  void Grow() {
    std::vector<Slot> old(std::max(kMinSlots, 2 * slots_.size()),
                          Slot{kEmptyKey, 0});
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) {
        slots_[Find(slot.key)] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  /// 64 - log2(slots_.size()): Find() starts at the hash's top bits.
  int shift_ = 64;
};

}  // namespace np::util
