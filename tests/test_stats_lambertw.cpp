#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "oracles/lambert_w.h"

namespace locpriv::stats {
namespace {

constexpr double kInvE = 0.36787944117144233;

TEST(LambertW0, KnownValues) {
  EXPECT_DOUBLE_EQ(lambert_w0(0.0), 0.0);
  EXPECT_NEAR(lambert_w0(std::exp(1.0)), 1.0, 1e-12);          // W(e) = 1
  EXPECT_NEAR(lambert_w0(2.0 * std::exp(2.0)), 2.0, 1e-12);    // W(2e^2) = 2
  EXPECT_NEAR(lambert_w0(-kInvE), -1.0, 1e-6);                 // branch point
}

TEST(LambertW0, DefiningIdentityHoldsAcrossDomain) {
  for (const double x : {-0.35, -0.2, -0.05, 0.01, 0.5, 1.0, 5.0, 100.0, 1e6}) {
    const double w = lambert_w0(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-9 * std::max(1.0, std::abs(x))) << "x = " << x;
  }
}

TEST(LambertW0, PrincipalBranchRange) {
  for (const double x : {-0.3, -0.1, 0.5, 10.0}) {
    EXPECT_GE(lambert_w0(x), -1.0 - 1e-12) << "x = " << x;
  }
}

TEST(LambertW0, ThrowsOutsideDomain) {
  EXPECT_THROW((void)lambert_w0(-0.4), std::domain_error);
  EXPECT_THROW((void)lambert_w0(std::nan("")), std::domain_error);
}

TEST(LambertWm1, KnownValues) {
  // W_{-1}(-1/e) = -1.
  EXPECT_NEAR(lambert_wm1(-kInvE), -1.0, 1e-6);
  // W_{-1}(-2 e^{-2}) = -2.
  EXPECT_NEAR(lambert_wm1(-2.0 * std::exp(-2.0)), -2.0, 1e-10);
  // W_{-1}(-5 e^{-5}) = -5.
  EXPECT_NEAR(lambert_wm1(-5.0 * std::exp(-5.0)), -5.0, 1e-10);
}

TEST(LambertWm1, DefiningIdentityHoldsAcrossDomain) {
  for (const double x : {-0.367, -0.3, -0.1, -0.01, -1e-4, -1e-8, -1e-12}) {
    const double w = lambert_wm1(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-12 + 1e-9 * std::abs(x)) << "x = " << x;
  }
}

TEST(LambertWm1, SecondaryBranchRange) {
  for (const double x : {-0.36, -0.2, -0.001}) {
    EXPECT_LE(lambert_wm1(x), -1.0 + 1e-12) << "x = " << x;
  }
}

TEST(LambertWm1, MonotoneDecreasingTowardZero) {
  // W_{-1} decreases (to -inf) as x -> 0^-.
  EXPECT_GT(lambert_wm1(-0.3), lambert_wm1(-0.1));
  EXPECT_GT(lambert_wm1(-0.1), lambert_wm1(-0.001));
}

TEST(LambertWm1, ThrowsOutsideDomain) {
  EXPECT_THROW((void)lambert_wm1(0.0), std::domain_error);
  EXPECT_THROW((void)lambert_wm1(0.5), std::domain_error);
  EXPECT_THROW((void)lambert_wm1(-0.4), std::domain_error);
  EXPECT_THROW((void)lambert_wm1(std::nan("")), std::domain_error);
}

TEST(LambertW, BranchesAgreeAtBranchPointOnly) {
  const double x = -0.2;
  EXPECT_LT(lambert_wm1(x), lambert_w0(x));
}

}  // namespace
}  // namespace locpriv::stats
