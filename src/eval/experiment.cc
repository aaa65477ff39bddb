#include "eval/experiment.h"

#include <cmath>
#include <cstdio>

#include "baselines/dpme.h"
#include "baselines/filter_priority.h"
#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "common/env_util.h"
#include "data/census_generator.h"
#include "exec/parallel.h"

namespace fm::eval {

const std::vector<double>& ParameterGrid::SamplingRates() {
  static const std::vector<double>* const kRates = new std::vector<double>{
      0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  return *kRates;
}

const std::vector<int>& ParameterGrid::Dimensionalities() {
  static const std::vector<int>* const kDims =
      new std::vector<int>{5, 8, 11, 14};
  return *kDims;
}

const std::vector<double>& ParameterGrid::PrivacyBudgets() {
  static const std::vector<double>* const kBudgets =
      new std::vector<double>{0.1, 0.2, 0.4, 0.8, 1.6, 3.2};
  return *kBudgets;
}

Result<BenchConfig> BenchConfig::FromEnv() {
  BenchConfig config;
  config.scale = GetEnvDouble("FM_BENCH_SCALE", config.scale);
  const int64_t repeats =
      GetEnvInt64("FM_BENCH_REPEATS", static_cast<int64_t>(config.repeats));
  if (repeats < 1) {
    return Status::InvalidArgument("FM_BENCH_REPEATS must be >= 1, got " +
                                   std::to_string(repeats));
  }
  config.repeats = static_cast<size_t>(repeats);
  config.seed = static_cast<uint64_t>(
      GetEnvInt64("FM_BENCH_SEED", static_cast<int64_t>(config.seed)));
  return config;
}

Result<std::vector<DatasetBundle>> LoadCensusDatasets(double scale,
                                                      uint64_t seed) {
  if (!(scale > 0.0) || scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  const std::vector<data::CensusGenerator::Profile> profiles = {
      data::CensusGenerator::US(), data::CensusGenerator::Brazil()};
  // Each dataset already derives its own seed from its index, so the two
  // generations are independent tasks; run them on the pool.
  auto generated = exec::ParallelMap(profiles.size(), [&](size_t i) {
    const auto& profile = profiles[i];
    const size_t rows = std::max<size_t>(
        1000, static_cast<size_t>(
                  std::llround(scale * static_cast<double>(profile.default_rows))));
    return data::CensusGenerator::Generate(profile, rows, DeriveSeed(seed, i));
  });
  std::vector<DatasetBundle> bundles;
  for (size_t i = 0; i < profiles.size(); ++i) {
    FM_RETURN_NOT_OK(generated[i].status());
    bundles.push_back(
        DatasetBundle{profiles[i].name, std::move(generated[i]).ValueOrDie()});
  }
  return bundles;
}

Result<data::RegressionDataset> PrepareTask(const data::Table& table,
                                            int total_attributes,
                                            data::TaskKind task) {
  FM_ASSIGN_OR_RETURN(
      std::vector<std::string> features,
      data::CensusGenerator::AttributeSubset(total_attributes));
  data::Normalizer::Options options;
  options.task = task;
  FM_ASSIGN_OR_RETURN(
      data::Normalizer normalizer,
      data::Normalizer::Fit(table, features,
                            data::CensusGenerator::LabelColumn(), options));
  return normalizer.Apply(table);
}

std::vector<std::unique_ptr<baselines::RegressionAlgorithm>> MakeAlgorithms(
    double epsilon, data::TaskKind task) {
  std::vector<std::unique_ptr<baselines::RegressionAlgorithm>> algorithms;

  core::FmOptions fm_options;
  fm_options.epsilon = epsilon;
  algorithms.push_back(std::make_unique<baselines::FmAlgorithm>(fm_options));

  baselines::Dpme::Options dpme_options;
  dpme_options.epsilon = epsilon;
  algorithms.push_back(std::make_unique<baselines::Dpme>(dpme_options));

  baselines::FilterPriority::Options fp_options;
  fp_options.epsilon = epsilon;
  algorithms.push_back(
      std::make_unique<baselines::FilterPriority>(fp_options));

  algorithms.push_back(std::make_unique<baselines::NoPrivacy>());
  if (task == data::TaskKind::kLogistic) {
    algorithms.push_back(std::make_unique<baselines::Truncated>());
  }
  return algorithms;
}

void PrintTableHeader(const std::string& figure, const std::string& x_label,
                      const std::vector<std::string>& algorithm_names) {
  std::printf("%-8s %10s", figure.c_str(), x_label.c_str());
  for (const auto& name : algorithm_names) {
    std::printf(" %12s", name.c_str());
  }
  std::printf("\n");
}

void PrintTableRow(const std::string& figure, double x_value,
                   const std::vector<double>& errors) {
  std::printf("%-8s %10.4g", figure.c_str(), x_value);
  for (double e : errors) {
    if (std::isnan(e)) {
      std::printf(" %12s", "-");
    } else {
      std::printf(" %12.4f", e);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace fm::eval
