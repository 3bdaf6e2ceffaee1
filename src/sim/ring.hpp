// Ring topologies over a set of device indices (paper §4.1).
//
// The server orders devices by the metric M_i = t_i + D_{i,i+1}; with the
// paper's simplification of equal inter-device delay this reduces to M_i =
// t_i.  Small-to-large is FedHiSyn's choice; Random and LargeToSmall exist
// for the Fig. 3 comparison.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fedhisyn::sim {

enum class RingOrder { kRandom, kSmallToLarge, kLargeToSmall };

const char* ring_order_name(RingOrder order);
/// Inverse of ring_order_name; check-fails on any other name.
RingOrder ring_order_from_name(const std::string& name);

/// A directed ring: successor(i) is the device that receives models from i.
class RingTopology {
 public:
  RingTopology() = default;

  /// Build a ring over `members` (device ids), ordered by `times[id]` with
  /// the given policy.  `times` is indexed by device id (fleet-wide).
  static RingTopology build(const std::vector<std::size_t>& members,
                            const std::vector<double>& times, RingOrder order, Rng& rng);

  std::size_t size() const { return ordered_.size(); }
  bool contains(std::size_t device) const;
  /// Next device in the ring after `device` (the one it sends to).
  std::size_t successor(std::size_t device) const;
  /// Members in ring order (position 0 = smallest metric for kSmallToLarge).
  const std::vector<std::size_t>& ordered_members() const { return ordered_; }

 private:
  std::vector<std::size_t> ordered_;
  // successor_of_[id] = next id; kInvalid for non-members.
  std::vector<std::size_t> successor_of_;
  static constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);
};

}  // namespace fedhisyn::sim
