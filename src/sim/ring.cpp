#include "sim/ring.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fedhisyn::sim {

const char* ring_order_name(RingOrder order) {
  switch (order) {
    case RingOrder::kRandom: return "random";
    case RingOrder::kSmallToLarge: return "small-to-large";
    case RingOrder::kLargeToSmall: return "large-to-small";
  }
  return "?";
}

RingOrder ring_order_from_name(const std::string& name) {
  if (name == "random") return RingOrder::kRandom;
  if (name == "small-to-large") return RingOrder::kSmallToLarge;
  if (name == "large-to-small") return RingOrder::kLargeToSmall;
  FEDHISYN_CHECK_MSG(false, "unknown ring order '"
                                << name << "' (small-to-large|large-to-small|random)");
}

RingTopology RingTopology::build(const std::vector<std::size_t>& members,
                                 const std::vector<double>& times, RingOrder order,
                                 Rng& rng) {
  FEDHISYN_CHECK(!members.empty());
  RingTopology ring;
  ring.ordered_ = members;
  switch (order) {
    case RingOrder::kRandom:
      rng.shuffle(ring.ordered_);
      break;
    case RingOrder::kSmallToLarge:
      std::stable_sort(ring.ordered_.begin(), ring.ordered_.end(),
                       [&](std::size_t a, std::size_t b) {
                         FEDHISYN_CHECK(a < times.size() && b < times.size());
                         return times[a] < times[b];
                       });
      break;
    case RingOrder::kLargeToSmall:
      std::stable_sort(ring.ordered_.begin(), ring.ordered_.end(),
                       [&](std::size_t a, std::size_t b) {
                         FEDHISYN_CHECK(a < times.size() && b < times.size());
                         return times[a] > times[b];
                       });
      break;
  }
  const std::size_t max_id = *std::max_element(ring.ordered_.begin(), ring.ordered_.end());
  ring.successor_of_.assign(max_id + 1, kInvalid);
  for (std::size_t pos = 0; pos < ring.ordered_.size(); ++pos) {
    const std::size_t next_pos = (pos + 1) % ring.ordered_.size();
    ring.successor_of_[ring.ordered_[pos]] = ring.ordered_[next_pos];
  }
  return ring;
}

bool RingTopology::contains(std::size_t device) const {
  return device < successor_of_.size() && successor_of_[device] != kInvalid;
}

std::size_t RingTopology::successor(std::size_t device) const {
  FEDHISYN_CHECK_MSG(contains(device), "device " << device << " is not in this ring");
  return successor_of_[device];
}

}  // namespace fedhisyn::sim
