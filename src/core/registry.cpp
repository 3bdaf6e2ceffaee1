#include "core/registry.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "core/fedat.hpp"
#include "core/fedasync.hpp"
#include "core/fedavg_family.hpp"
#include "core/fedhisyn_algo.hpp"
#include "core/scaffold.hpp"
#include "core/tafedavg.hpp"

namespace fedhisyn::core {

namespace {

template <typename Algo, auto... Args>
std::unique_ptr<FlAlgorithm> make(const FlContext& ctx) {
  return std::make_unique<Algo>(ctx, Args...);
}

struct Method {
  const char* name;
  const char* description;
  std::unique_ptr<FlAlgorithm> (*factory)(const FlContext&);
};

// The seven Table 1 methods plus FedAsync.  A new method is one row.
constexpr Method kMethods[] = {
    {"FedHiSyn",
     "the paper's method: ring circulation inside speed classes, then server "
     "aggregation",
     make<FedHiSynAlgo>},
    {"FedAvg", "synchronous baseline: sample-weighted average of all uploads",
     make<FedAvgFamily, FedAvgVariant::kFedAvg>},
    {"TFedAvg",
     "time-slotted FedAvg: fast devices fit extra local epochs into the round",
     make<FedAvgFamily, FedAvgVariant::kTFedAvg>},
    {"FedProx", "FedAvg with a proximal term damping client drift (mu)",
     make<FedAvgFamily, FedAvgVariant::kFedProx>},
    {"TAFedAvg",
     "fully asynchronous: the server mixes every upload on arrival at a fixed "
     "rate (RoundGraph rounds)",
     make<TAFedAvgAlgo>},
    {"FedAsync",
     "asynchronous with polynomial staleness damping of each upload "
     "(RoundGraph rounds)",
     make<FedAsyncAlgo>},
    {"FedAT",
     "tiered asynchronism: synchronous within speed tiers, asynchronous "
     "across them",
     make<FedATAlgo>},
    {"SCAFFOLD", "control variates correct client drift (2x traffic per exchange)",
     make<ScaffoldAlgo>},
};

const Method* find_method(const std::string& name) {
  for (const Method& method : kMethods) {
    if (name == method.name) return &method;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& table1_methods() {
  static const std::vector<std::string> methods = {
      "FedHiSyn", "FedAvg", "FedProx", "FedAT", "SCAFFOLD", "TAFedAvg", "TFedAvg"};
  return methods;
}

std::vector<std::string> registered_methods() {
  std::vector<std::string> names;
  for (const Method& method : kMethods) names.emplace_back(method.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string method_description(const std::string& name) {
  const Method* method = find_method(name);
  FEDHISYN_CHECK_MSG(method != nullptr, "unknown algorithm '" << name << "'");
  return method->description;
}

std::unique_ptr<FlAlgorithm> make_algorithm(const std::string& name,
                                            const FlContext& ctx) {
  const Method* method = find_method(name);
  if (method == nullptr) {
    std::ostringstream known;
    for (const auto& known_name : registered_methods()) known << " " << known_name;
    FEDHISYN_CHECK_MSG(false, "unknown algorithm '" << name << "' (registered:"
                                                    << known.str() << ")");
  }
  return method->factory(ctx);
}

}  // namespace fedhisyn::core
