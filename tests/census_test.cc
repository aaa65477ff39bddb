#include <cmath>

#include <gtest/gtest.h>

#include "core/objective_accumulator.h"
#include "data/census_generator.h"
#include "data/normalizer.h"

namespace fm::data {
namespace {

TEST(CensusGeneratorTest, SchemaMatchesPaper) {
  const auto& names = CensusGenerator::ColumnNames();
  ASSERT_EQ(names.size(), 14u);  // 13 predictors + AnnualIncome
  EXPECT_EQ(names.front(), "Age");
  EXPECT_EQ(names.back(), "AnnualIncome");
  // The Marital Status split of §7.
  EXPECT_NE(std::find(names.begin(), names.end(), "IsSingle"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "IsMarried"), names.end());
}

TEST(CensusGeneratorTest, DeterministicFromSeed) {
  const auto a =
      CensusGenerator::Generate(CensusGenerator::US(), 100, 7).ValueOrDie();
  const auto b =
      CensusGenerator::Generate(CensusGenerator::US(), 100, 7).ValueOrDie();
  for (size_t r = 0; r < 100; ++r) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      ASSERT_DOUBLE_EQ(a.Get(r, c), b.Get(r, c));
    }
  }
  const auto c =
      CensusGenerator::Generate(CensusGenerator::US(), 100, 8).ValueOrDie();
  EXPECT_NE(a.Get(0, 0), c.Get(0, 0));
}

TEST(CensusGeneratorTest, ValueRangesAreRealistic) {
  const auto t =
      CensusGenerator::Generate(CensusGenerator::Brazil(), 5000, 1)
          .ValueOrDie();
  const size_t age = t.ColumnIndex("Age").ValueOrDie();
  const size_t income = t.ColumnIndex("AnnualIncome").ValueOrDie();
  const size_t gender = t.ColumnIndex("Gender").ValueOrDie();
  const size_t hours = t.ColumnIndex("WorkHoursPerWeek").ValueOrDie();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_GE(t.Get(r, age), 18.0);
    ASSERT_LE(t.Get(r, age), 95.0);
    ASSERT_GE(t.Get(r, income), 0.0);
    ASSERT_LE(t.Get(r, income), 350000.0);
    ASSERT_TRUE(t.Get(r, gender) == 0.0 || t.Get(r, gender) == 1.0);
    ASSERT_GE(t.Get(r, hours), 0.0);
    ASSERT_LE(t.Get(r, hours), 80.0);
  }
}

TEST(CensusGeneratorTest, MaritalFlagsAreMutuallyExclusive) {
  const auto t =
      CensusGenerator::Generate(CensusGenerator::US(), 5000, 2).ValueOrDie();
  const size_t single = t.ColumnIndex("IsSingle").ValueOrDie();
  const size_t married = t.ColumnIndex("IsMarried").ValueOrDie();
  size_t neither = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const double s = t.Get(r, single);
    const double m = t.Get(r, married);
    ASSERT_TRUE(s == 0.0 || s == 1.0);
    ASSERT_TRUE(m == 0.0 || m == 1.0);
    ASSERT_LE(s + m, 1.0);  // never both
    if (s + m == 0.0) ++neither;
  }
  // Divorced/widowed (both flags zero) must exist but be a minority.
  EXPECT_GT(neither, 0u);
  EXPECT_LT(neither, t.num_rows() / 2);
}

TEST(CensusGeneratorTest, IncomeCorrelatesWithEducation) {
  const auto t =
      CensusGenerator::Generate(CensusGenerator::US(), 20000, 3).ValueOrDie();
  const size_t edu = t.ColumnIndex("Education").ValueOrDie();
  const size_t income = t.ColumnIndex("AnnualIncome").ValueOrDie();
  double se = 0, si = 0, see = 0, sii = 0, sei = 0;
  const double n = static_cast<double>(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const double e = t.Get(r, edu), i = t.Get(r, income);
    se += e;
    si += i;
    see += e * e;
    sii += i * i;
    sei += e * i;
  }
  const double cov = sei / n - (se / n) * (si / n);
  const double corr = cov / (std::sqrt(see / n - (se / n) * (se / n)) *
                             std::sqrt(sii / n - (si / n) * (si / n)));
  // The planted signal must be clearly present.
  EXPECT_GT(corr, 0.3);
}

TEST(CensusGeneratorTest, ProfilesDiffer) {
  const auto us = CensusGenerator::US();
  const auto brazil = CensusGenerator::Brazil();
  EXPECT_EQ(us.default_rows, 370000u);
  EXPECT_EQ(brazil.default_rows, 190000u);
  EXPECT_GT(us.income_noise_sd, brazil.income_noise_sd);
}

TEST(CensusGeneratorTest, AttributeSubsetsMatchSection7) {
  const auto s5 = CensusGenerator::AttributeSubset(5).ValueOrDie();
  EXPECT_EQ(s5.size(), 4u);  // 5 attributes counting the label
  EXPECT_EQ(s5[0], "Age");

  const auto s8 = CensusGenerator::AttributeSubset(8).ValueOrDie();
  EXPECT_EQ(s8.size(), 7u);

  const auto s11 = CensusGenerator::AttributeSubset(11).ValueOrDie();
  EXPECT_EQ(s11.size(), 10u);

  const auto s14 = CensusGenerator::AttributeSubset(14).ValueOrDie();
  EXPECT_EQ(s14.size(), 13u);

  // Subsets are nested as described in §7.
  for (const auto& name : s5) {
    EXPECT_NE(std::find(s8.begin(), s8.end(), name), s8.end());
  }
  for (const auto& name : s8) {
    EXPECT_NE(std::find(s11.begin(), s11.end(), name), s11.end());
  }
  EXPECT_FALSE(CensusGenerator::AttributeSubset(7).ok());
  EXPECT_FALSE(CensusGenerator::AttributeSubset(0).ok());
}

TEST(CensusGeneratorTest, NormalizesCleanly) {
  const auto t =
      CensusGenerator::Generate(CensusGenerator::Brazil(), 2000, 4)
          .ValueOrDie();
  for (int dims : {5, 8, 11, 14}) {
    const auto features =
        CensusGenerator::AttributeSubset(dims).ValueOrDie();
    Normalizer::Options options;
    options.task = TaskKind::kLinear;
    const auto norm = Normalizer::Fit(
        t, features, CensusGenerator::LabelColumn(), options);
    ASSERT_TRUE(norm.ok());
    const auto ds = norm.ValueOrDie().Apply(t).ValueOrDie();
    EXPECT_TRUE(core::CheckedObjective(ds, core::ObjectiveKind::kLinear).ok());
    EXPECT_EQ(ds.dim(), static_cast<size_t>(dims - 1));
  }
}

TEST(CensusGeneratorTest, RejectsZeroRows) {
  EXPECT_FALSE(CensusGenerator::Generate(CensusGenerator::US(), 0, 1).ok());
}

}  // namespace
}  // namespace fm::data
