#include "power/energy.hpp"

#include <gtest/gtest.h>

namespace dimetrodon::power {
namespace {

TEST(EnergyTest, StartsAtZero) {
  EnergyAccountant e;
  EXPECT_EQ(e.total_joules(), 0.0);
}

TEST(EnergyTest, SumsChargesInCallOrder) {
  // The machine charges each core and then the uncore once per span; the
  // total must be that running sum, addition by addition.
  EnergyAccountant e;
  e.add(10.0, 2.0);
  e.add(5.0, 1.0);
  e.add(16.0, 0.5);
  EXPECT_DOUBLE_EQ(e.total_joules(), 33.0);

  EnergyAccountant f;
  const double charges[][2] = {{0.1, 0.7}, {1e16, 1.0}, {-1e16, 1.0}};
  double expected = 0.0;
  for (const auto& c : charges) {
    f.add(c[0], c[1]);
    expected += c[0] * c[1];
  }
  EXPECT_EQ(f.total_joules(), expected);  // 0.0: 0.07 is absorbed by 1e16
}

}  // namespace
}  // namespace dimetrodon::power
