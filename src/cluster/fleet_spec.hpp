#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/sweep.hpp"

namespace dimetrodon::cluster {

/// Per-node override applied on top of FleetSpec's gradients. Unset fields
/// keep whatever the expansion produced. Written as a designated
/// initializer naming only the fields it sets; the explicit empty defaults
/// keep -Wmissing-field-initializers quiet about the rest.
struct NodeOverride {
  std::optional<double> fan_speed_fraction = std::nullopt;
  std::optional<double> injection_probability = std::nullopt;
  std::optional<sim::SimTime> injection_quantum = std::nullopt;
  std::optional<control::GovernorSpec> governor = std::nullopt;
};

/// Declarative fleet builder — the one construction path for clusters.
/// Instead of hand-rolling a std::vector<NodeSpec>, describe the fleet's
/// shape (racks x nodes-per-rack) and its gradients, and let `config()`
/// expand it deterministically:
///
///   auto spec = FleetSpec::racks(25)
///                   .nodes_per_rack(4)
///                   .with_machine(base)
///                   .with_cooling(1.0, 0.55)         // bottom -> top of rack
///                   .with_injection_gradient(0.6)    // p rises with position
///                   .with_crac(RackParams{})         // rack/CRAC coupling
///                   .with_load(1800.0)
///                   .with_traffic(TrafficShape::diurnal(sim::from_sec(8), .5))
///                   .with_policy(PolicyKind::kCoolestNode)
///                   .for_duration(sim::from_sec(20));
///   runner::RunSpec rs = spec.run_spec();            // sweep-engine ready
///
/// Expansion semantics (all deterministic, position = index within a rack,
/// M = nodes_per_rack):
///  * cooling: fan(position) interpolates linearly from `bottom` (position
///    0) to `top` (position M-1); every rack repeats the same profile. With
///    M == 1 the node takes `bottom`.
///  * injection gradient: p(position) = top_p * position / (M - 1) — zero at
///    the best-cooled bottom slot, `top_p` at the worst-cooled top slot
///    (operators compensate bad rack positions with preventive injection).
///    With M == 1, p = 0.
///  * `with_injection` sets a uniform p instead; the two are exclusive
///    (last call wins).
///  * overrides: `group()` patches whole rack ranges, then
///    `override_position()` patches one rack position fleet-wide; within
///    each kind, later calls win. Position overrides are the more specific
///    scope and therefore apply last.
class FleetSpec {
 public:
  static FleetSpec racks(std::size_t count);

  FleetSpec& nodes_per_rack(std::size_t m);
  /// Base machine config for every node. Also adopts `machine.seed` as the
  /// fleet master seed unless with_seed() overrides it.
  FleetSpec& with_machine(const sched::MachineConfig& machine);
  FleetSpec& with_web(const workload::WebWorkload::Config& web);
  /// Linear cooling gradient across rack positions (see expansion rules).
  /// `uniform` cooling is with_cooling(f, f).
  FleetSpec& with_cooling(double bottom_fan, double top_fan);
  /// Uniform injection probability on every node.
  FleetSpec& with_injection(double p,
                            sim::SimTime quantum = sim::from_ms(10));
  /// Position-proportional injection: p(position) = top_p * pos / (M - 1).
  FleetSpec& with_injection_gradient(double top_p,
                                     sim::SimTime quantum = sim::from_ms(10));
  /// Closed-loop governor on every node (combine with overrides to mix
  /// governed and open-loop nodes).
  FleetSpec& with_governor(const control::GovernorSpec& governor);
  /// Enable the rack/CRAC thermal layer. `rack.nodes_per_rack` is taken
  /// from this spec's shape, not from the argument.
  FleetSpec& with_crac(const RackParams& rack);
  FleetSpec& with_load(double rps);
  FleetSpec& with_traffic(const TrafficShape& shape);
  FleetSpec& with_telemetry(sim::SimTime period);
  FleetSpec& with_seed(std::uint64_t seed);
  /// Fleet-advancement lanes (ClusterConfig::fleet_threads): 0 = auto,
  /// 1 = serial, N = N lanes. Non-semantic — results are bit-identical at
  /// every setting.
  FleetSpec& with_fleet_threads(std::size_t threads);
  FleetSpec& with_trace_sink(obs::SinkFactory factory);
  FleetSpec& with_policy(PolicyKind kind, double injection_threshold = 0.25);
  FleetSpec& for_duration(sim::SimTime duration);
  /// Patch every node in racks [first_rack, first_rack + count).
  FleetSpec& group(std::size_t first_rack, std::size_t count,
                   const NodeOverride& o);
  /// Patch rack position `pos` in every rack.
  FleetSpec& override_position(std::size_t pos, const NodeOverride& o);

  std::size_t num_nodes() const { return racks_ * per_rack_; }

  /// Expand into a full ClusterConfig (validates the shape and gradients).
  ClusterConfig config() const;
  /// config() plus the routing policy and duration — sweep-bridge ready.
  ClusterRunSpec build() const;
  /// to_run_spec(build()): hand straight to the sweep engine.
  runner::RunSpec run_spec() const;
  /// Instantiate the cluster with its policy, for direct driving in tests
  /// and examples.
  std::unique_ptr<Cluster> make_cluster() const;

 private:
  FleetSpec() = default;

  std::size_t racks_ = 1;
  std::size_t per_rack_ = 1;
  sched::MachineConfig machine_{};
  workload::WebWorkload::Config web_ = ClusterConfig::open_loop_web();
  double fan_bottom_ = 1.0;
  double fan_top_ = 1.0;
  double injection_p_ = 0.0;
  bool injection_gradient_ = false;
  sim::SimTime injection_quantum_ = sim::from_ms(10);
  std::optional<control::GovernorSpec> governor_;
  std::optional<RackParams> crac_;
  double load_rps_ = 800.0;
  TrafficShape traffic_{};
  sim::SimTime telemetry_ = sim::from_ms(50);
  std::optional<std::uint64_t> seed_;
  std::size_t fleet_threads_ = 0;
  obs::SinkFactory sink_;
  PolicyKind policy_ = PolicyKind::kRoundRobin;
  double injection_threshold_ = 0.25;
  sim::SimTime duration_ = sim::from_sec(40);

  struct GroupOverride {
    std::size_t first_rack = 0;
    std::size_t count = 0;
    NodeOverride o;
  };
  struct PositionOverride {
    std::size_t pos = 0;
    NodeOverride o;
  };
  std::vector<GroupOverride> group_overrides_;
  std::vector<PositionOverride> position_overrides_;
};

}  // namespace dimetrodon::cluster
