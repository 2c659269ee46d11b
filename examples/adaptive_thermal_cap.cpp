// Composition of the extensions: a "datacenter node" that must stay under a
// temperature target during a load spike, using a closed-loop PID governor;
// then the same loop re-targeted at a power budget (Gandhi-style power
// capping — the idle-injection lineage that later landed in Linux). Both are
// one GovernorDriver over one actuator, as §4 of the paper argues.
#include <cstdio>

#include "harness/experiment.hpp"
#include "sched/machine.hpp"
#include "workload/spec.hpp"

using namespace dimetrodon;

namespace {

void settle(sched::Machine& machine, int iterations = 4) {
  for (int i = 0; i < iterations; ++i) {
    machine.mark_power_window();
    machine.run_for(sim::from_sec(8));
    machine.jump_to_average_power_steady_state();
  }
}

}  // namespace

int main() {
  // --- Part 1: hold 52 C through a load spike -----------------------------
  {
    sched::MachineConfig config;
    config.enable_meter = false;
    sched::Machine machine(config);
    control::GovernorSpec gov;
    gov.kind = control::GovernorKind::kPid;
    gov.sample_period = sim::from_ms(500);
    gov.quantum = sim::from_ms(5);
    gov.pid = {.setpoint_c = 52.0, .kp = 0.03, .ki = 0.01, .kd = 0.0,
               .min_probability = 0.0, .max_probability = 0.95};
    const auto dimetrodon =
        harness::ActuationSpec::governed(gov).apply(machine);
    const auto p = [&] { return dimetrodon->table().global().probability; };

    std::printf("== adaptive temperature cap: target %.0f C ==\n",
                gov.pid.setpoint_c);
    // Phase A: moderate load (2 instances of gcc).
    workload::SpecFleet light(*workload::find_spec_profile("gcc"), 2);
    light.deploy(machine);
    settle(machine);
    std::printf("moderate load : %.1f C at p=%.2f\n",
                machine.mean_sensor_temp(), p());

    // Phase B: spike — two calculix instances join.
    workload::SpecFleet spike(*workload::find_spec_profile("calculix"), 2);
    spike.deploy(machine);
    settle(machine);
    std::printf("after spike   : %.1f C at p=%.2f "
                "(controller absorbed the spike)\n\n",
                machine.mean_sensor_temp(), p());
  }

  // --- Part 2: the same mechanism as a power cap --------------------------
  {
    sched::MachineConfig config;
    config.enable_meter = false;
    sched::Machine machine(config);
    control::GovernorSpec gov;
    gov.kind = control::GovernorKind::kPowerCap;
    gov.sample_period = sim::from_ms(250);
    gov.quantum = sim::from_ms(5);
    gov.power_cap.cap_w = 48.0;
    const auto dimetrodon =
        harness::ActuationSpec::governed(gov).apply(machine);

    std::printf("== power capping via forced idleness: budget %.0f W ==\n",
                gov.power_cap.cap_w);
    workload::SpecFleet fleet(*workload::find_spec_profile("namd"), 4);
    fleet.deploy(machine);
    settle(machine);
    const double e0 = machine.energy().total_joules();
    const double w0 = fleet.progress(machine);
    machine.run_for(sim::from_sec(20));
    std::printf("held %.1f W (budget %.0f W) at p=%.2f, throughput %.2f "
                "work-s/s, temp %.1f C\n",
                (machine.energy().total_joules() - e0) / 20.0,
                gov.power_cap.cap_w, dimetrodon->table().global().probability,
                (fleet.progress(machine) - w0) / 20.0,
                machine.mean_sensor_temp());
    std::printf("(the short idle quanta give the 'thermally-beneficial "
                "side-effects' the paper predicts for power capping)\n");
  }
  return 0;
}
