#include "core/aggregate.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace fedhisyn::core {

const char* aggregation_name(AggregationRule rule) {
  switch (rule) {
    case AggregationRule::kUniform: return "uniform";
    case AggregationRule::kTimeWeighted: return "time";
    case AggregationRule::kSampleWeighted: return "sample";
  }
  return "?";
}

AggregationRule aggregation_from_name(const std::string& name) {
  if (name == "uniform") return AggregationRule::kUniform;
  if (name == "time") return AggregationRule::kTimeWeighted;
  if (name == "sample") return AggregationRule::kSampleWeighted;
  FEDHISYN_CHECK_MSG(false,
                     "unknown aggregation rule '" << name << "' (uniform|time|sample)");
}

void aggregate_models(std::span<const std::span<const float>> models,
                      std::span<const double> weights, std::span<float> out) {
  FEDHISYN_CHECK(models.size() == weights.size());
  FEDHISYN_CHECK(!models.empty());
  double total = 0.0;
  for (const double w : weights) {
    FEDHISYN_CHECK(w >= 0.0);
    total += w;
  }
  FEDHISYN_CHECK_MSG(total > 0.9999 && total < 1.0001,
                     "aggregation weights sum to " << total << ", expected 1");
  weighted_sum(models, weights, out);
}

std::vector<double> uniform_weights(std::size_t n) {
  FEDHISYN_CHECK(n >= 1);
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

std::vector<double> sample_weights(std::span<const std::int64_t> shard_sizes) {
  FEDHISYN_CHECK(!shard_sizes.empty());
  std::int64_t total = 0;
  for (const auto size : shard_sizes) {
    FEDHISYN_CHECK(size >= 0);
    total += size;
  }
  FEDHISYN_CHECK(total > 0);
  std::vector<double> weights(shard_sizes.size());
  for (std::size_t i = 0; i < shard_sizes.size(); ++i) {
    weights[i] = static_cast<double>(shard_sizes[i]) / static_cast<double>(total);
  }
  return weights;
}

std::vector<double> time_weights(std::span<const double> class_mean_time) {
  FEDHISYN_CHECK(!class_mean_time.empty());
  double total = 0.0;
  for (const double t : class_mean_time) {
    FEDHISYN_CHECK(t > 0.0);
    total += t;
  }
  std::vector<double> weights(class_mean_time.size());
  for (std::size_t i = 0; i < class_mean_time.size(); ++i) {
    weights[i] = class_mean_time[i] / total;
  }
  return weights;
}

}  // namespace fedhisyn::core
