// Algorithm registry: maps method names (the paper's Table 1 column labels)
// to factories producing FlAlgorithm instances.
//
// The registry is one constant table in registry.cpp — {name, description,
// factory} per method — so adding a method is one table row, and lookups
// need no locking or static-initialisation order.
//
// Built-in names: FedHiSyn, FedAvg, TFedAvg, TAFedAvg, FedProx, FedAT,
// SCAFFOLD, FedAsync (case-sensitive, matching the paper's Table 1
// columns).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"

namespace fedhisyn::core {

/// All registered names, sorted lexicographically (feeds --list-methods).
std::vector<std::string> registered_methods();

/// The method's one-line description (shown by --list-methods);
/// check-fails on an unknown name.
std::string method_description(const std::string& name);

/// Instantiate the registered algorithm `name`; throws CheckError naming the
/// known methods when the name is unknown.
std::unique_ptr<FlAlgorithm> make_algorithm(const std::string& name,
                                            const FlContext& ctx);

/// The paper's Table 1 column order (a subset of registered_methods()).
const std::vector<std::string>& table1_methods();

}  // namespace fedhisyn::core
