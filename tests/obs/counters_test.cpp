#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "obs/json.hpp"

namespace dimetrodon::obs {
namespace {

TEST(CounterTotals, FieldTableCoversArithmetic) {
  CounterTotals a;
  a.dispatches = 10;
  a.injections = 3;
  a.injected_idle_ns = 1000;
  CounterTotals b;
  b.dispatches = 4;
  b.injections = 1;
  b.injected_idle_ns = 250;
  b.requests_completed = 2;

  CounterTotals sum = a;
  sum += b;
  EXPECT_EQ(sum.dispatches, 14u);
  EXPECT_EQ(sum.injections, 4u);
  EXPECT_EQ(sum.injected_idle_ns, 1250u);
  EXPECT_EQ(sum.requests_completed, 2u);

  const CounterTotals delta = sum - b;
  EXPECT_TRUE(delta == a);
}

TEST(CounterRegistry, TotalsSumPerCoreAndGlobals) {
  CounterRegistry reg;
  reg.resize(3);
  reg.core(0).dispatches = 5;
  reg.core(1).dispatches = 7;
  reg.core(2).injected_idle_ns = 42;
  reg.core(0).c1e_residency_ns = 11;
  reg.prochot_activations = 2;
  reg.meter_samples = 9;

  const CounterTotals t = reg.totals();
  EXPECT_EQ(t.dispatches, 12u);
  EXPECT_EQ(t.injected_idle_ns, 42u);
  EXPECT_EQ(t.c1e_residency_ns, 11u);
  EXPECT_EQ(t.prochot_activations, 2u);
  EXPECT_EQ(t.meter_samples, 9u);
}

TEST(CounterTotals, EveryFieldHasExactlyOneScope) {
  const auto& fields = CounterTotals::fields();
  // One row per member, each member listed once.
  EXPECT_EQ(fields.size() * sizeof(std::uint64_t), sizeof(CounterTotals));
  std::set<std::string> names;
  std::size_t per_scope[4] = {};
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_TRUE(names.insert(fields[i].name).second) << fields[i].name;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(fields[i].member, fields[j].member) << fields[i].name;
    }
    const auto scope = static_cast<std::size_t>(fields[i].scope);
    ASSERT_LT(scope, 4u) << fields[i].name;
    ++per_scope[scope];
  }
  // The kCore rows are exactly the CoreCounters members: writing each
  // through the base-class pointer lands on its row and nowhere else.
  EXPECT_EQ(per_scope[static_cast<std::size_t>(CounterScope::kCore)] *
                sizeof(std::uint64_t),
            sizeof(CoreCounters));
  for (const auto& f : fields) {
    if (f.scope != CounterScope::kCore) continue;
    CounterTotals t;
    static_cast<CoreCounters&>(t).*
        static_cast<std::uint64_t CoreCounters::*>(f.member) = 1;
    for (const auto& g : fields) {
      EXPECT_EQ(t.*g.member, g.member == f.member ? 1u : 0u)
          << f.name << " vs " << g.name;
    }
  }
  // The cluster fold adds only kCluster rows; the machines already count
  // completions, so requests_completed must not be one of them.
  for (const auto& f : fields) {
    if (std::string(f.name) == "requests_completed") {
      EXPECT_EQ(f.scope, CounterScope::kMachine);
    }
  }
}

TEST(CounterRegistry, TotalsArePerCoreSumsPlusOwnFieldsForEveryRow) {
  CounterRegistry reg;
  reg.resize(3);
  const auto& fields = CounterTotals::fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    reg.*fields[i].member = 1000 * (i + 1);
    if (fields[i].scope != CounterScope::kCore) continue;
    const auto core =
        static_cast<std::uint64_t CoreCounters::*>(fields[i].member);
    for (std::size_t c = 0; c < reg.num_cores(); ++c) {
      reg.core(c).*core = 10 * (i + 1) + c;
    }
  }
  const CounterTotals t = reg.totals();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::uint64_t want = reg.*fields[i].member;
    if (fields[i].scope == CounterScope::kCore) {
      const auto core =
          static_cast<std::uint64_t CoreCounters::*>(fields[i].member);
      for (std::size_t c = 0; c < reg.num_cores(); ++c) {
        want += reg.core(c).*core;
      }
    }
    EXPECT_EQ(t.*fields[i].member, want) << fields[i].name;
  }
}

TEST(CounterRegistry, ResizeClears) {
  CounterRegistry reg;
  reg.resize(2);
  reg.core(1).injections = 8;
  reg.resize(2);
  EXPECT_EQ(reg.core(1).injections, 0u);
}

TEST(CounterTotals, JsonRenderingIsValidAndComplete) {
  CounterTotals t;
  t.dispatches = 123;
  t.sensor_samples = 456;
  const std::string json = totals_to_json(t, 0);
  const auto parsed = json::validate(json);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  // Every field must appear by name.
  for (const auto& f : CounterTotals::fields()) {
    EXPECT_NE(json.find(std::string("\"") + f.name + "\""),
              std::string::npos)
        << f.name;
  }
  EXPECT_NE(json.find("\"dispatches\": 123"), std::string::npos);
}

}  // namespace
}  // namespace dimetrodon::obs
