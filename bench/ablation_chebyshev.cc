// Ablation E16 (the paper's §8 future-work direction): does a different
// analytical approximation tool beat the Maclaurin truncation? Compares the
// degree-2 Taylor surrogate against degree-2 Chebyshev fits of several radii
// — both as noiseless surrogates (approximation error only) and inside the
// full mechanism at ε = 0.8 (where the Chebyshev coefficients also change Δ).
#include <cmath>
#include <cstdio>

#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "bench_util.h"
#include "core/functional_mechanism.h"
#include "core/taylor.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"

namespace {

using namespace fm;

// Minimal RegressionAlgorithm wrapper so the CV harness can drive a
// Chebyshev-surrogate FM (or its noiseless version).
class ChebyshevFm : public baselines::RegressionAlgorithm {
 public:
  ChebyshevFm(core::ChebyshevLogisticCoefficients coefficients, double epsilon,
              bool noiseless)
      : coefficients_(coefficients), epsilon_(epsilon), noiseless_(noiseless) {}

  std::string name() const override {
    return noiseless_ ? "ChebTrunc" : "ChebFM";
  }
  bool is_private() const override { return !noiseless_; }

  Result<baselines::TrainedModel> Train(const data::RegressionDataset& train,
                                        data::TaskKind task,
                                        Rng& rng) const override {
    if (task != data::TaskKind::kLogistic) {
      return Status::Unimplemented("chebyshev surrogate is logistic-only");
    }
    const opt::QuadraticModel objective =
        core::BuildChebyshevLogisticObjective(train, coefficients_);
    baselines::TrainedModel model;
    if (noiseless_) {
      FM_ASSIGN_OR_RETURN(model.omega, objective.Minimize());
      return model;
    }
    core::FmOptions options;
    options.epsilon = epsilon_;
    const double delta =
        core::ChebyshevLogisticSensitivity(train.dim(), coefficients_);
    FM_ASSIGN_OR_RETURN(
        core::FmFitReport fit,
        core::FunctionalMechanism::FitQuadratic(objective, delta, options,
                                                rng));
    model.omega = std::move(fit.omega);
    model.epsilon_spent = fit.epsilon_spent;
    return model;
  }

 private:
  core::ChebyshevLogisticCoefficients coefficients_;
  double epsilon_;
  bool noiseless_;
};

}  // namespace

int main() {
  auto ctx = bench::LoadContext();
  bench::PrintBanner("ablation: Taylor vs Chebyshev approximation (§8)", ctx);

  std::printf("%-10s %18s %10s %12s %12s\n", "dataset", "surrogate",
              "max_err", "noiseless", "FM eps=0.8");
  for (const auto& bundle : ctx.bundles) {
    auto ds = eval::PrepareTask(bundle.table,
                                eval::ParameterGrid::kDefaultDimensionality,
                                data::TaskKind::kLogistic);
    if (!ds.ok()) continue;
    Rng sample_rng(DeriveSeed(ctx.config.seed, 61));
    const auto sampled = ds.ValueOrDie().Sample(
        eval::ParameterGrid::kDefaultSamplingRate, sample_rng);
    eval::CvOptions cv;
    cv.folds = ctx.config.folds;
    cv.repeats = ctx.config.repeats;
    cv.seed = DeriveSeed(ctx.config.seed, 62);

    auto run = [&](const baselines::RegressionAlgorithm& algo) {
      const auto result =
          eval::CrossValidate(algo, sampled, data::TaskKind::kLogistic, cv);
      return result.ok() ? result.ValueOrDie().mean_error : -1.0;
    };

    // Taylor reference: the paper's Algorithm 2 (via the standard adapter).
    {
      baselines::Truncated truncated;
      core::FmOptions fm_options;
      fm_options.epsilon = eval::ParameterGrid::kDefaultEpsilon;
      baselines::FmAlgorithm fm(fm_options);
      std::printf("%-10s %18s %10.4f %12.4f %12.4f\n", bundle.name.c_str(),
                  "taylor@0", 0.0151, run(truncated), run(fm));
    }
    for (double radius : {0.5, 1.0, 2.0}) {
      const auto cheb = core::FitChebyshevLogistic(radius);
      const ChebyshevFm noiseless(cheb, 0.8, /*noiseless=*/true);
      const ChebyshevFm noisy(cheb, 0.8, /*noiseless=*/false);
      char label[32];
      std::snprintf(label, sizeof(label), "chebyshev r=%.1f", radius);
      std::printf("%-10s %18s %10.4f %12.4f %12.4f\n", bundle.name.c_str(),
                  label, cheb.max_error, run(noiseless), run(noisy));
    }
  }
  std::printf("# noiseless/FM columns: misclassification rate (5-fold CV)\n");
  return 0;
}
