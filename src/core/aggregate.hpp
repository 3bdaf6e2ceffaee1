// Server-side aggregation rules: Eq. (3) sample-weighted (FedAvg family),
// Eq. (9) uniform (FedHiSyn default), Eq. (10) time-weighted.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"

namespace fedhisyn::core {

/// The rule's spec/CLI name: "uniform" | "time" | "sample".
const char* aggregation_name(AggregationRule rule);
/// Inverse of aggregation_name; check-fails on any other name.
AggregationRule aggregation_from_name(const std::string& name);

/// out = sum_i weights[i] * models[i]; weights must sum to ~1.
void aggregate_models(std::span<const std::span<const float>> models,
                      std::span<const double> weights, std::span<float> out);

/// Eq. (9): 1/n each.
std::vector<double> uniform_weights(std::size_t n);

/// Eq. (3): n_i / N from shard sizes.
std::vector<double> sample_weights(std::span<const std::int64_t> shard_sizes);

/// Eq. (10): w_i = l_i / L where l_i is the mean local-training time of the
/// class device i belongs to.  `class_mean_time[i]` is that mean for model i.
std::vector<double> time_weights(std::span<const double> class_mean_time);

}  // namespace fedhisyn::core
