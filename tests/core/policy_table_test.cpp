#include "core/policy_table.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace dimetrodon::core {
namespace {

std::unique_ptr<sched::Thread> make_thread(
    sched::ThreadId id, sched::ThreadClass cls = sched::ThreadClass::kUser) {
  class Noop final : public sched::ThreadBehavior {
    sched::Burst next_burst(sim::SimTime, sim::Rng&) override {
      return {1.0, 1.0};
    }
    sched::BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
      return sched::BurstOutcome::Exit();
    }
  };
  return std::make_unique<sched::Thread>(id, "t", cls, 0,
                                         std::make_unique<Noop>(),
                                         sim::Rng(id));
}

TEST(PolicyTableTest, DefaultIsDisabled) {
  PolicyTable table;
  auto t = make_thread(1);
  EXPECT_FALSE(table.params_for(*t).enabled());
}

TEST(PolicyTableTest, GlobalAppliesToUserThreads) {
  PolicyTable table;
  table.set_global(InjectionParams{0.5, sim::from_ms(10)});
  auto t = make_thread(1);
  const InjectionParams p = table.params_for(*t);
  EXPECT_TRUE(p.enabled());
  EXPECT_DOUBLE_EQ(p.probability, 0.5);
}

TEST(PolicyTableTest, KernelThreadsExemptByDefault) {
  // Paper §3.1: "We always schedule kernel-level threads."
  PolicyTable table;
  table.set_global(InjectionParams{0.5, sim::from_ms(10)});
  auto k = make_thread(2, sched::ThreadClass::kKernel);
  EXPECT_FALSE(table.params_for(*k).enabled());
}

TEST(PolicyTableTest, PerThreadOverrideBeatsGlobal) {
  PolicyTable table;
  table.set_global(InjectionParams{0.5, sim::from_ms(10)});
  table.set_thread(1, InjectionParams{0.9, sim::from_ms(1)});
  auto t = make_thread(1);
  EXPECT_DOUBLE_EQ(table.params_for(*t).probability, 0.9);
  auto other = make_thread(2);
  EXPECT_DOUBLE_EQ(table.params_for(*other).probability, 0.5);
}

TEST(PolicyTableTest, OverrideCanShieldFromGlobal) {
  // The per-thread control of §3.6: a "cool" thread is excluded while the
  // global policy throttles everything else.
  PolicyTable table;
  table.set_global(InjectionParams{0.75, sim::from_ms(50)});
  table.set_thread(3, InjectionParams{0.0, 0});
  auto cool = make_thread(3);
  EXPECT_FALSE(table.params_for(*cool).enabled());
}

TEST(PolicyTableTest, ExplicitOverrideAppliesToKernelThreads) {
  PolicyTable table;
  table.set_thread(4, InjectionParams{0.25, sim::from_ms(5)});
  auto k = make_thread(4, sched::ThreadClass::kKernel);
  EXPECT_TRUE(table.params_for(*k).enabled());
}

TEST(PolicyTableTest, ResetDisablesEverything) {
  PolicyTable table;
  table.set_global(InjectionParams{0.5, sim::from_ms(10)});
  table.set_thread(1, InjectionParams{0.9, sim::from_ms(1)});
  table.reset();
  auto t = make_thread(1);
  EXPECT_FALSE(table.params_for(*t).enabled());
}

}  // namespace
}  // namespace dimetrodon::core
