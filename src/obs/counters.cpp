#include "obs/counters.hpp"

#include <cstdio>

namespace dimetrodon::obs {

const std::vector<CounterTotals::Field>& CounterTotals::fields() {
  using enum CounterScope;
  static const std::vector<Field> kFields = {
      {"dispatches", &CounterTotals::dispatches, kCore},
      {"context_switches", &CounterTotals::context_switches, kCore},
      {"injections", &CounterTotals::injections, kCore},
      {"injected_idle_ns", &CounterTotals::injected_idle_ns, kCore},
      {"idle_ns", &CounterTotals::idle_ns, kCore},
      {"c1e_residency_ns", &CounterTotals::c1e_residency_ns, kCore},
      {"cstate_entries", &CounterTotals::cstate_entries, kCore},
      {"prochot_activations", &CounterTotals::prochot_activations, kMachine},
      {"dvfs_changes", &CounterTotals::dvfs_changes, kMachine},
      {"meter_samples", &CounterTotals::meter_samples, kMachine},
      {"sensor_samples", &CounterTotals::sensor_samples, kMachine},
      {"requests_completed", &CounterTotals::requests_completed, kMachine},
      {"thermal_substeps", &CounterTotals::thermal_substeps, kMachine},
      {"thermal_fast_forward_steps", &CounterTotals::thermal_fast_forward_steps,
       kMachine},
      {"thermal_factorizations", &CounterTotals::thermal_factorizations,
       kMachine},
      {"thermal_solves", &CounterTotals::thermal_solves, kMachine},
      {"thermal_matvecs", &CounterTotals::thermal_matvecs, kMachine},
      {"thermal_evictions", &CounterTotals::thermal_evictions, kMachine},
      {"core_power_evals", &CounterTotals::core_power_evals, kMachine},
      {"snapshot_builds", &CounterTotals::snapshot_builds, kSweep},
      {"snapshot_forks", &CounterTotals::snapshot_forks, kSweep},
      {"requests_routed", &CounterTotals::requests_routed, kCluster},
      {"node_drains", &CounterTotals::node_drains, kCluster},
      {"fleet_samples", &CounterTotals::fleet_samples, kCluster},
      {"scenario_directives", &CounterTotals::scenario_directives, kCluster},
      {"node_joins", &CounterTotals::node_joins, kCluster},
      {"node_removals", &CounterTotals::node_removals, kCluster},
      {"requests_shed", &CounterTotals::requests_shed, kCluster},
      {"requests_rehomed", &CounterTotals::requests_rehomed, kCluster},
      {"latency_rejects", &CounterTotals::latency_rejects, kCluster},
      {"runs_failed", &CounterTotals::runs_failed, kSweep},
      {"runs_retried", &CounterTotals::runs_retried, kSweep},
      {"cache_write_retries", &CounterTotals::cache_write_retries, kSweep},
      {"governor_samples", &CounterTotals::governor_samples, kMachine},
      {"governor_trips", &CounterTotals::governor_trips, kMachine},
      {"governor_releases", &CounterTotals::governor_releases, kMachine},
      {"duty_changes", &CounterTotals::duty_changes, kMachine},
      {"duty_reversals", &CounterTotals::duty_reversals, kMachine},
  };
  return kFields;
}

CounterTotals& CounterTotals::operator+=(const CounterTotals& o) {
  for (const Field& f : fields()) this->*f.member += o.*f.member;
  return *this;
}

CounterTotals& CounterTotals::operator-=(const CounterTotals& o) {
  for (const Field& f : fields()) this->*f.member -= o.*f.member;
  return *this;
}

CounterTotals CounterRegistry::totals() const {
  CounterTotals t = *this;
  for (const Field& f : fields()) {
    if (f.scope != CounterScope::kCore) continue;
    // A kCore row names a CoreCounters member, so the cast back to the base
    // class's member pointer is exact.
    const auto core = static_cast<std::uint64_t CoreCounters::*>(f.member);
    for (const CoreCounters& c : per_core_) t.*f.member += c.*core;
  }
  return t;
}

std::string totals_to_json(const CounterTotals& t, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  const auto& fields = CounterTotals::fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s  \"%s\": %llu%s\n", pad.c_str(),
                  fields[i].name,
                  static_cast<unsigned long long>(t.*(fields[i].member)),
                  i + 1 < fields.size() ? "," : "");
    out += buf;
  }
  out += pad + "}";
  return out;
}

}  // namespace dimetrodon::obs
