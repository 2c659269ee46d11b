// Sensitivity of the canonical run-spec serialization: the cache key is the
// canonical text, so every data field that changes a simulation must perturb
// the text — and nothing else may.
#include <gtest/gtest.h>

#include <string>

#include "runner/result_cache.hpp"
#include "runner/run_spec.hpp"
#include "sim/canon.hpp"

namespace dimetrodon::runner {
namespace {

RunSpec base_spec() {
  RunSpec s;
  s.kind = RunSpec::Kind::kMeasure;
  s.workload_key = "cpuburn:4";
  s.actuation = ActuationSpec::global(0.25, sim::from_ms(10));
  s.seed = 0x5eed;
  return s;
}

std::string canon(const RunSpec& s) {
  return canonical_spec(s, sched::MachineConfig{});
}

TEST(CanonicalSpecTest, StartsWithTheVersionedPreamble) {
  const std::string expected =
      "dimetrodon-run-spec v" + std::to_string(sim::kCanonVersion) + " ";
  EXPECT_EQ(canon(base_spec()).substr(0, expected.size()), expected);
}

TEST(CanonicalSpecTest, EqualSpecsRenderEqualText) {
  EXPECT_EQ(canon(base_spec()), canon(base_spec()));
}

TEST(CanonicalSpecTest, EveryDataFieldPerturbsTheText) {
  const std::string base = canon(base_spec());

  RunSpec seed = base_spec();
  seed.seed ^= 1;
  EXPECT_NE(base, canon(seed));

  RunSpec workload = base_spec();
  workload.workload_key = "cpuburn:8";
  EXPECT_NE(base, canon(workload));

  RunSpec act_kind = base_spec();
  act_kind.actuation = ActuationSpec::global_stratified(0.25, sim::from_ms(10));
  EXPECT_NE(base, canon(act_kind));

  RunSpec act_p = base_spec();
  act_p.actuation.probability += 1e-9;  // sub-decimal-print perturbation
  EXPECT_NE(base, canon(act_p));

  RunSpec act_quantum = base_spec();
  act_quantum.actuation.quantum += 1;
  EXPECT_NE(base, canon(act_quantum));

  RunSpec meas = base_spec();
  meas.measurement.measure_window += 1;
  EXPECT_NE(base, canon(meas));

  RunSpec machine = base_spec();
  machine.machine = sched::MachineConfig{};
  machine.machine->floorplan.fan_speed_fraction = 0.9;
  EXPECT_NE(base, canon(machine));
}

TEST(CanonicalSpecTest, ThermalClockFieldsGetTheirOwnCacheKeys) {
  // The monitor period is the thermal clock's leakage-refresh cadence, and
  // the reference stepper refreshes power at every substep: both move
  // modelled results, so a spec differing only in one of them must not
  // replay the other's cached record.
  const auto key = [](const RunSpec& s) {
    return CacheKey::of(canon(s)).hex();
  };
  const std::string base = key(base_spec());

  RunSpec refresh = base_spec();
  refresh.machine = sched::MachineConfig{};
  refresh.machine->thermal_monitor_period = sim::from_ms(7);
  EXPECT_NE(base, key(refresh));

  RunSpec stepper = base_spec();
  stepper.machine = sched::MachineConfig{};
  stepper.machine->thermal_reference_stepper = true;
  EXPECT_NE(base, key(stepper));
  EXPECT_NE(key(refresh), key(stepper));
}

TEST(CanonicalSpecTest, GovernorParametersEnterTheActuationSection) {
  RunSpec governed = base_spec();
  control::GovernorSpec g;
  g.kind = control::GovernorKind::kPid;
  g.pid.setpoint_c = 45.0;
  governed.actuation = ActuationSpec::governed(g);
  const std::string base = canon(governed);

  RunSpec tweaked = governed;
  tweaked.actuation.governor.pid.setpoint_c += 0.5;
  EXPECT_NE(base, canon(tweaked));
}

TEST(CanonicalSpecTest, CustomTagDistinguishesCustomRuns) {
  RunSpec a = base_spec();
  a.kind = RunSpec::Kind::kCustom;
  a.custom_tag = "cluster-v3{...}";
  RunSpec b = a;
  b.custom_tag = "cluster-v3{...} ";
  EXPECT_NE(canon(a), canon(b));
}

TEST(CanonicalSpecTest, BaseMachineConfigFlowsIntoUnpinnedSpecs) {
  // Specs without a machine override hash the engine's base config: two
  // engines with different bases must not share cache entries.
  sched::MachineConfig warm;
  warm.floorplan.ambient_c += 5.0;
  EXPECT_NE(canonical_spec(base_spec(), sched::MachineConfig{}),
            canonical_spec(base_spec(), warm));
}

}  // namespace
}  // namespace dimetrodon::runner
