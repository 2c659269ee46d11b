#include "obs/counters.hpp"

#include <cstdio>

namespace dimetrodon::obs {

const std::vector<CounterTotals::Field>& CounterTotals::fields() {
  static const std::vector<Field> kFields = {
      {"dispatches", &CounterTotals::dispatches},
      {"context_switches", &CounterTotals::context_switches},
      {"injections", &CounterTotals::injections},
      {"injected_idle_ns", &CounterTotals::injected_idle_ns},
      {"idle_ns", &CounterTotals::idle_ns},
      {"c1e_residency_ns", &CounterTotals::c1e_residency_ns},
      {"cstate_entries", &CounterTotals::cstate_entries},
      {"prochot_activations", &CounterTotals::prochot_activations},
      {"dvfs_changes", &CounterTotals::dvfs_changes},
      {"meter_samples", &CounterTotals::meter_samples},
      {"sensor_samples", &CounterTotals::sensor_samples},
      {"requests_completed", &CounterTotals::requests_completed},
      {"thermal_substeps", &CounterTotals::thermal_substeps},
      {"thermal_fast_forward_steps", &CounterTotals::thermal_fast_forward_steps},
      {"thermal_factorizations", &CounterTotals::thermal_factorizations},
      {"thermal_matvecs", &CounterTotals::thermal_matvecs},
      {"thermal_sparse_matvecs", &CounterTotals::thermal_sparse_matvecs},
      {"thermal_evictions", &CounterTotals::thermal_evictions},
      {"snapshot_builds", &CounterTotals::snapshot_builds},
      {"snapshot_forks", &CounterTotals::snapshot_forks},
      {"requests_routed", &CounterTotals::requests_routed},
      {"node_drains", &CounterTotals::node_drains},
      {"fleet_samples", &CounterTotals::fleet_samples},
      {"scenario_directives", &CounterTotals::scenario_directives},
      {"node_joins", &CounterTotals::node_joins},
      {"node_removals", &CounterTotals::node_removals},
      {"requests_shed", &CounterTotals::requests_shed},
      {"requests_rehomed", &CounterTotals::requests_rehomed},
      {"latency_rejects", &CounterTotals::latency_rejects},
      {"runs_failed", &CounterTotals::runs_failed},
      {"runs_retried", &CounterTotals::runs_retried},
      {"cache_write_retries", &CounterTotals::cache_write_retries},
      {"governor_samples", &CounterTotals::governor_samples},
      {"governor_trips", &CounterTotals::governor_trips},
      {"governor_releases", &CounterTotals::governor_releases},
      {"duty_changes", &CounterTotals::duty_changes},
      {"duty_reversals", &CounterTotals::duty_reversals},
  };
  return kFields;
}

CounterTotals& CounterTotals::operator+=(const CounterTotals& o) {
  for (const auto& [name, member] : fields()) this->*member += o.*member;
  return *this;
}

CounterTotals& CounterTotals::operator-=(const CounterTotals& o) {
  for (const auto& [name, member] : fields()) this->*member -= o.*member;
  return *this;
}

CounterTotals CounterRegistry::totals() const {
  CounterTotals t;
  for (const auto& c : per_core_) {
    t.dispatches += c.dispatches;
    t.context_switches += c.context_switches;
    t.injections += c.injections;
    t.injected_idle_ns += c.injected_idle_ns;
    t.idle_ns += c.idle_ns;
    t.c1e_residency_ns += c.c1e_residency_ns;
    t.cstate_entries += c.cstate_entries;
  }
  t.prochot_activations = prochot_activations;
  t.dvfs_changes = dvfs_changes;
  t.meter_samples = meter_samples;
  t.sensor_samples = sensor_samples;
  t.requests_completed = requests_completed;
  t.requests_routed = requests_routed;
  t.node_drains = node_drains;
  t.fleet_samples = fleet_samples;
  t.scenario_directives = scenario_directives;
  t.node_joins = node_joins;
  t.node_removals = node_removals;
  t.requests_shed = requests_shed;
  t.requests_rehomed = requests_rehomed;
  t.thermal_substeps = thermal_substeps;
  t.thermal_fast_forward_steps = thermal_fast_forward_steps;
  t.thermal_factorizations = thermal_factorizations;
  t.thermal_matvecs = thermal_matvecs;
  t.thermal_sparse_matvecs = thermal_sparse_matvecs;
  t.governor_samples = governor_samples;
  t.governor_trips = governor_trips;
  t.governor_releases = governor_releases;
  t.duty_changes = duty_changes;
  t.duty_reversals = duty_reversals;
  return t;
}

std::string totals_to_json(const CounterTotals& t, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  const auto& fields = CounterTotals::fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s  \"%s\": %llu%s\n", pad.c_str(),
                  fields[i].first,
                  static_cast<unsigned long long>(t.*(fields[i].second)),
                  i + 1 < fields.size() ? "," : "");
    out += buf;
  }
  out += pad + "}";
  return out;
}

}  // namespace dimetrodon::obs
