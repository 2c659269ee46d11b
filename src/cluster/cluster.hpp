#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/histogram.hpp"
#include "analysis/stats.hpp"
#include "cluster/arrival_trace.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/request_source.hpp"
#include "control/arbiter.hpp"
#include "control/driver.hpp"
#include "control/stability.hpp"
#include "core/controller.hpp"
#include "obs/tracer.hpp"
#include "runner/thread_pool.hpp"
#include "sched/machine.hpp"
#include "thermal/rc_network.hpp"
#include "workload/web.hpp"

namespace dimetrodon::cluster {

/// Per-node deviations from the cluster's base machine config. The fleet is
/// deliberately heterogeneous: rack position and airflow give each node its
/// own cooling quality, and operators tune Dimetrodon's injection intensity
/// per node to match. Node lists are normally produced by FleetSpec
/// (fleet_spec.hpp), not written by hand.
struct NodeSpec {
  /// Cooling quality (thermal::FloorplanParams::fan_speed_fraction). Lower
  /// means a worse rack position / weaker airflow, i.e. a hotter node at
  /// equal load.
  double fan_speed_fraction = 1.0;
  /// Dimetrodon global injection probability on this node (0 disables the
  /// controller entirely — unless a governor is configured below).
  double injection_probability = 0.0;
  /// Injection quantum when the controller is active.
  sim::SimTime injection_quantum = sim::from_ms(10);
  /// Closed-loop governor on this node (src/control). When enabled, the node
  /// runs a Dimetrodon controller behind an InjectionArbiter: the governor
  /// claims the feedback channel and `injection_probability` (if > 0)
  /// becomes the open-loop preventive floor on the preventive channel —
  /// fleets can mix governed and open-loop nodes freely.
  control::GovernorSpec governor{};
};

/// Rack/CRAC thermal layer: nodes are grouped `nodes_per_rack` at a time (in
/// node-id order) and each rack's recirculated exhaust heats a shared air
/// node, which in turn sets its member machines' inlet (ambient) temperature.
/// The rack network is a first-order RC chain — one air node per rack, each
/// tied to the fixed CRAC supply and optionally to its neighbors — stepped
/// once per telemetry period from the fleet's measured dissipation, so the
/// layer costs O(racks) per period regardless of fleet size.
struct RackParams {
  /// Nodes per rack, in node-id order (the last rack may be short).
  /// 0 disables the rack layer entirely: inlets stay at the floorplan
  /// ambient and racks are purely an id grouping.
  std::size_t nodes_per_rack = 0;
  /// CRAC supply temperature: the fixed boundary every rack air node
  /// relaxes toward, and the fleet-wide inlet at t = 0.
  double crac_supply_c = 25.2;
  /// Heat capacity of one rack's recirculating air volume, J/°C. Small on
  /// purpose: experiments compress a "day" into seconds, so the rack time
  /// constant (capacitance * resistance) must settle within a run.
  double air_capacitance_j_per_c = 150.0;
  /// Thermal resistance from a rack's air node to the CRAC supply, °C/W.
  double to_crac_resistance_c_per_w = 0.03;
  /// Fraction of each node's dissipated power that recirculates into its
  /// rack's air volume instead of being carried straight to the CRAC.
  double recirculation_fraction = 0.3;
  /// Inter-rack recirculation: thermal resistance between adjacent racks'
  /// air nodes (hot aisle spillover). 0 leaves racks isolated.
  double adjacent_resistance_c_per_w = 0.0;

  bool enabled() const { return nodes_per_rack > 0; }
};

struct ClusterConfig {
  /// Base machine config shared by every node; NodeSpec fields override it
  /// per node. Node i's machine seed is derive_stream_seed(seed, i + 1).
  sched::MachineConfig machine{};

  /// Web workload config deployed on every node. Defaults to zero closed-loop
  /// connections: in a cluster, traffic arrives open-loop through the load
  /// balancer. Set connections > 0 to add per-node background load.
  workload::WebWorkload::Config web = open_loop_web();

  /// One entry per node. Empty is invalid: fleets are built explicitly,
  /// normally through FleetSpec.
  std::vector<NodeSpec> nodes;

  /// Master seed: machines, the request source, and everything stochastic
  /// derive pure per-stream seeds from it.
  std::uint64_t seed = 0x5eed;

  /// Offered load across the whole fleet, requests/second (Poisson), shaped
  /// by `traffic`.
  double offered_load_rps = 800.0;

  /// Time-varying load shape (diurnal curve, flash crowd). Defaults to
  /// constant.
  TrafficShape traffic{};

  /// Optional recorded/authored arrival trace. When set it replaces the
  /// Poisson source entirely (offered_load_rps and traffic are ignored; the
  /// source RNG stream is never drawn from, so replaying a recorded run is
  /// bit-identical to the original). Timestamps must be strictly
  /// increasing; arrivals after the run's end simply never fire. Shared so
  /// a sweep can replay one trace across a config grid without copying it
  /// per cell.
  std::shared_ptr<const ArrivalTrace> arrival_trace;

  /// Telemetry refresh period: how often the fleet is swept — balancer
  /// temperature views resampled, PROCHOT drain state checked, and the rack
  /// thermal layer stepped — as ONE batched interaction point, not a
  /// per-node event.
  sim::SimTime telemetry_period = sim::from_ms(50);

  /// Rack/CRAC thermal coupling (disabled by default).
  RackParams rack{};

  /// Optional cluster-scope trace sink (request_routed / node_drain /
  /// fleet_sample / request_complete events). Machine-scope sinks attach via
  /// `machine.trace_sink_factory` as usual.
  obs::SinkFactory trace_sink_factory;

  /// Fleet-advancement parallelism: how many lanes the per-machine advance
  /// at each telemetry sweep may fan across. 0 = auto, 1 = serial inside
  /// the cluster, N = N lanes. Resolution precedence: this field (nonzero),
  /// then the DIMETRODON_FLEET_THREADS environment variable, then auto
  /// (borrow the engine pool when one is shared below; otherwise spin up a
  /// pool for fleets large enough to pay for it). Strictly NON-semantic:
  /// results are bit-identical at every setting, so it is excluded from the
  /// canonical cache identity. A `machine.trace_sink_factory` forces the
  /// serial path regardless — the factory may hand every node one shared
  /// sink, which parallel advancement would race.
  std::size_t fleet_threads = 0;

  /// Work-stealing pool borrowed from the sweep engine (via RunContext);
  /// null when the cluster runs standalone. Never owned. Nested submission
  /// is safe: the fleet joins with ThreadPool::run_and_wait, which executes
  /// queued work instead of blocking on a saturated pool.
  runner::ThreadPool* shared_pool = nullptr;
  /// Engine's lanes hint for `shared_pool` (RunContext::lanes_hint): 0 =
  /// share/auto, 1 = stay serial (the grid saturates the pool), N = this
  /// run owns N lanes.
  std::size_t shared_lanes = 0;

  static workload::WebWorkload::Config open_loop_web() {
    workload::WebWorkload::Config c;
    c.connections = 0;
    return c;
  }
};

/// Per-node outcome of a cluster run.
struct NodeStats {
  std::uint64_t routed = 0;
  std::uint64_t completed = 0;
  /// Highest quantized sensor reading seen at any telemetry sample.
  double peak_sensor_c = 0.0;
  /// Time-average (over telemetry samples) of the node's mean sensor temp.
  double mean_sensor_c = 0.0;
  /// PROCHOT failover engagements (drain episodes, not per-core trips).
  std::uint64_t drains = 0;
  /// Governor trip engagements on this node (0 on open-loop nodes).
  std::uint64_t governor_trips = 0;
};

/// Fleet-level outcome of a cluster run.
struct ClusterResult {
  std::string policy;
  double duration_s = 0.0;
  std::uint64_t offered = 0;    // requests routed into the fleet
  std::uint64_t completed = 0;  // requests that finished within the run
  double throughput_rps = 0.0;
  /// Fleet-wide end-to-end latency QoS (SPECWeb buckets + streaming
  /// percentiles), over completed requests.
  workload::WebWorkload::QosStats qos;
  /// Hottest quantized sensor reading anywhere in the fleet, any sample.
  double fleet_peak_sensor_c = 0.0;
  /// Hottest continuous die temperature anywhere in the fleet, any sample
  /// (model ground truth behind the quantized telemetry).
  double fleet_peak_exact_c = 0.0;
  /// Time-and-node average of mean sensor temperature.
  double fleet_mean_sensor_c = 0.0;
  /// Hottest rack inlet (rack air temperature) at any telemetry sample;
  /// the CRAC supply temperature when the rack layer is disabled.
  double fleet_peak_inlet_c = 0.0;
  std::uint64_t drains = 0;
  std::size_t num_racks = 0;
  std::vector<NodeStats> nodes;
  /// Machine counters summed across nodes, plus the cluster-scope counters
  /// (requests_routed, node_drains, fleet_samples) from the cluster's own
  /// tracer.
  obs::CounterTotals counters;
  /// True energy consumed by the whole fleet over the run, joules.
  double total_energy_j = 0.0;
  /// Control-stability metrics merged (worst-node) across governed nodes;
  /// all-zero (samples == 0) when no node runs a governor.
  control::StabilityMetrics stability;
};

/// A fleet of N independent sched::Machine instances composed on one
/// deterministic timeline, engineered to scale to 1000+ nodes:
///
///  * Per-node hot state (quantized temps, outstanding counts, injection
///    duty, drain flags) lives in structure-of-arrays vectors; the balancer
///    reads them through a borrowed FleetView. Ordered policies keep their
///    pick in a tournament tree, so routing an arrival costs O(log N). The
///    view's revision is bumped by rebuild_routable() (every sweep, flush
///    and join) and by admin_set_injection(); between bumps, route() and
///    admin_remove()'s re-homing log each routable node's outstanding
///    change in the view's touched list, which the next pick replays. Completion decrements land
///    only in advance_fleet, which merge_sweep's bump always follows.
///  * The cluster timeline carries exactly two pending events — the next
///    arrival and the next telemetry sweep — regardless of fleet size;
///    coordination state beyond that is the O(racks) thermal layer.
///  * Machines advance lazily AND in parallel: an arrival only records a
///    (time, request-id) entry in the fleet-wide arrival arena, chained onto
///    the routed-to node's backlog; the fleet synchronizes once per
///    telemetry period (and at run end), where each node replays its
///    backlog and catches up to the sweep time — fanned across a
///    work-stealing pool, since the machines are independent simulations. Every cross-node effect (telemetry SoA refresh, drain
///    transitions, trace events, rack/CRAC step, stats) is applied in fixed
///    node order AFTER the barrier, from per-node buffers filled during the
///    parallel phase. Balancer views are therefore stale by up to one
///    period — exactly the staleness a real fleet scheduler faces.
///  * Determinism: every machine is an independent simulation seeded by
///    derive_stream_seed(seed, node + 1) (stream 0 is the request source);
///    the parallel phase touches only per-node state and the post-barrier
///    reduction runs in fixed node order, so a run is a pure function of
///    its config — bit-identical at every fleet_threads setting and every
///    sweep thread count (DESIGN.md section 11 states the contract).
///
/// Rack/CRAC: with RackParams enabled, each rack's measured dissipation
/// (scaled by the recirculation fraction) feeds a per-rack air node; the air
/// network is stepped once per telemetry period and the resulting rack air
/// temperatures are written into member machines' fixed ambient nodes — a
/// hot rack raises its members' (and, with adjacent coupling, its
/// neighbors') inlet, closing the loop the paper's datacenter motivation
/// describes.
///
/// PROCHOT failover: at every telemetry sweep, a node with any physical
/// core's thermal monitor engaged is marked draining — it keeps serving its
/// queue but receives no new requests until every core releases.
///
/// Fleet churn (the admin_* surface, driven by scenario::ScenarioEngine):
/// nodes carry an administrative state orthogonal to the PROCHOT drain flag.
/// kActive nodes route; kDrained nodes serve their queues but take no new
/// work; kRemoving nodes have had their queued (not yet in-service) external
/// requests cancelled and re-homed and detach (kDetached) at the sweep where
/// their outstanding count reaches zero; kDetached nodes are never advanced
/// again — their machines survive only so node ids, completion callbacks and
/// final stats stay stable. PROCHOT degradation never overrides admin state:
/// when every ACTIVE node is throttling, load spreads over active nodes
/// only, and with no active nodes at all, arrivals are shed (counted +
/// traced) instead of routed to a node an operator ordered out of service.
class Cluster {
 public:
  /// Administrative lifecycle of a node (orthogonal to PROCHOT draining).
  enum class AdminState : std::uint8_t {
    kActive = 0,    // routable (unless PROCHOT-draining)
    kDrained = 1,   // operator drain: serves its queue, takes no new work
    kRemoving = 2,  // queued work re-homed; detaches when outstanding == 0
    kDetached = 3,  // out of the fleet; machine frozen at detach time
  };
  Cluster(ClusterConfig config, std::unique_ptr<LoadBalancer> balancer);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Advance the whole fleet by `duration`. May be called repeatedly; stats
  /// accrue from construction.
  ClusterResult run(sim::SimTime duration);

  // --- fleet churn / live reconfiguration (scenario directives) ------------
  // Every admin_* call first flushes the fleet to now() (backlogs replayed,
  // machines caught up, state folded in fixed node order) so the directive
  // lands at a well-defined instant — the same instant on every thread/lane
  // count. Calls between run() invocations or from scenario::ScenarioEngine
  // segments only; never from inside a running advance.

  /// Operator drain: the node serves its queue but receives no new work
  /// until admin_undrain. Throws std::invalid_argument unless kActive.
  void admin_drain(std::size_t i);
  /// Lift an operator drain (kDrained -> kActive).
  void admin_undrain(std::size_t i);
  /// Remove the node: queued (not yet in-service) external requests are
  /// cancelled and re-routed with their original issue times preserved
  /// (counted as requests_rehomed); in-service requests finish in place.
  /// The node detaches at the first sweep where its outstanding count
  /// reaches zero. Throws unless kActive or kDrained.
  void admin_remove(std::size_t i);
  /// Join a fresh node mid-run; returns its id (node ids are append-only).
  /// The machine is seeded derive_stream_seed(seed, id + 1) like any ctor
  /// node. With warmup > 0 the join is snapshot-warmed: a template machine
  /// (same config, workload deployed, no controller yet) runs [0, warmup],
  /// its snapshot restores into the real node, the controller/governor
  /// attach post-restore, and the node advances [warmup, now()] — so a warm
  /// join needs warmup <= now() and a snapshot-capable config (no power
  /// meter, no machine trace sink, no reference stepper, no closed-loop web
  /// connections); anything else falls back to a cold join (constructed at
  /// t = 0 and advanced to now()), marked in the kNodeJoin trace event.
  std::size_t admin_join(const NodeSpec& spec, sim::SimTime warmup = 0);
  /// Retarget the node's open-loop injection probability/quantum live. On a
  /// governed node this drives the arbiter's preventive channel (claimed
  /// lazily); on an open-loop node it creates the controller on demand.
  void admin_set_injection(std::size_t i, double probability,
                           sim::SimTime quantum);
  /// Swap the node's governor spec mid-run (GovernorDriver::retune). Throws
  /// std::invalid_argument when the node runs no governor.
  void admin_retune_governor(std::size_t i, const control::GovernorSpec& spec);
  /// Degrade/restore the node's fan (Machine::set_fan_speed), fraction in
  /// (0, 1].
  void admin_set_fan(std::size_t i, double fraction);
  /// Re-aim the CRAC supply boundary (ambient heat wave). With the rack
  /// layer enabled this moves the fixed CRAC node every rack relaxes
  /// toward; without it, every non-detached machine's fixed ambient node is
  /// written directly.
  void set_crac_supply(double supply_c);

  // --- observation (tests, examples) ---------------------------------------
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Number of racks (0 when the rack layer is disabled).
  std::size_t num_racks() const { return rack_air_node_.size(); }
  sched::Machine& machine(std::size_t i) { return *nodes_.at(i).machine; }
  /// Node i's web workload. The cluster never opens its QoS window (the
  /// fleet-wide QoS is ClusterResult::qos), so stats_since_mark() reads
  /// empty until the caller opens one with web(i).mark(); a closed window
  /// costs no histogram storage.
  workload::WebWorkload& web(std::size_t i) { return *nodes_.at(i).web; }
  bool draining(std::size_t i) const { return draining_.at(i) != 0; }
  AdminState admin_state(std::size_t i) const { return admin_.at(i); }
  /// Nodes not yet detached (the fleet the telemetry sweep covers).
  std::size_t active_nodes() const;
  /// Balancer-visible quantized mean sensor temp as of the last sweep.
  double sensor_temp_c(std::size_t i) const { return sensor_temp_c_.at(i); }
  std::uint32_t outstanding(std::size_t i) const {
    return outstanding_.at(i);
  }
  double injection_probability(std::size_t i) const {
    return injection_probability_.at(i);
  }
  /// Rack index of node i (i / nodes_per_rack; 0 when the layer is off).
  std::size_t rack_of(std::size_t i) const { return rack_of_.at(i); }
  /// Current inlet (rack air) temperature of rack r. Requires the rack
  /// layer; r < num_racks().
  double rack_inlet_c(std::size_t r) const;
  /// The SoA view the balancer sees right now (pointers borrow the
  /// cluster's arrays; valid until the next sweep or route).
  FleetView fleet_view() const;
  /// Pending cluster-timeline events: always 2 (next arrival + next sweep),
  /// independent of fleet size — the scaling invariant fleet_scale_test
  /// pins. Rack state adds O(num_racks()) beyond this; nothing is O(nodes).
  std::size_t timeline_entries() const { return 2; }
  /// Total machine run_until interactions issued by the cluster. Lazy
  /// advancement makes this ~ arrivals + nodes * sweeps, NOT
  /// arrivals * nodes.
  std::uint64_t machine_advances() const {
    return machine_advances_.load(std::memory_order_relaxed);
  }
  /// Arrivals deferred to the next fleet flush (the shared arena's size).
  /// 0 after run() and after every admin_* call's flush; admin_remove then
  /// leaves exactly the requests it re-homed.
  std::size_t deferred_arrivals() const { return arrivals_.size(); }
  /// Resolved fleet-advancement lanes (1 = serial path). Diagnostics/tests;
  /// never observable in results.
  std::size_t fleet_lanes() const { return lanes_; }
  obs::Tracer& tracer() { return tracer_; }
  sim::SimTime now() const { return now_; }

 private:
  /// End of a node's arrival chain (and "no backlog" for its head/tail).
  static constexpr std::uint32_t kNoArrival = 0xffffffffu;

  /// An arrival routed to a node but not yet injected into its machine:
  /// replayed (run_until(at) + inject) at the next fleet flush, on whatever
  /// lane owns the node. Entries live in the fleet-wide arena (arrivals_),
  /// each node's chained in route order through `next`.
  struct PendingArrival {
    sim::SimTime at = 0;
    std::uint32_t rid = 0;
    /// Arena index of the node's next deferred arrival, or kNoArrival.
    std::uint32_t next = kNoArrival;
    double demand_scale = 1.0;
    /// Original issue time for re-homed requests (latency accrues from the
    /// first routing, not the re-route); -1 = issued at `at`.
    sim::SimTime issued_at = -1;
  };
  // The chain index sits in what would otherwise be padding after `rid`.
  static_assert(sizeof(PendingArrival) == 32);

  /// A completion that fired during a node's (possibly parallel) advance.
  /// Buffered per node; the fleet-wide effects (QoS, histogram, trace) are
  /// applied post-barrier in fixed node order.
  struct CompletionRecord {
    sim::SimTime at = 0;  // the owning machine's clock at the completion
    std::uint32_t id = 0;
    double latency_s = 0.0;
  };

  struct Node {
    std::unique_ptr<sched::Machine> machine;
    std::unique_ptr<workload::WebWorkload> web;
    std::shared_ptr<core::DimetrodonController> controller;
    // Declared after the controller/machine they reference: destroyed first.
    std::unique_ptr<control::InjectionArbiter> arbiter;
    std::unique_ptr<control::GovernorDriver> driver;
    /// Arbiter preventive-channel port, claimed at construction (open-loop
    /// floor) or lazily by admin_set_injection; borrowed from arbiter.
    control::InjectionArbiter::Port* preventive_port = nullptr;
    NodeStats stats;
    analysis::OnlineStats temp_avg;
    /// Energy reading at the last rack-layer update (power = delta / dt).
    double last_energy_j = 0.0;
    /// This node's deferred arrivals: a chain through arrivals_, oldest
    /// first (kNoArrival when the backlog is empty).
    std::uint32_t backlog_head = kNoArrival;
    std::uint32_t backlog_tail = kNoArrival;
    std::vector<CompletionRecord> completions;
  };

  /// Per-node telemetry readings taken during the parallel phase (each lane
  /// writes only its own nodes' slots); folded into fleet state post-barrier.
  struct SweepScratch {
    double mean_c = 0.0;
    double hot_sensor = 0.0;
    double hot_die = 0.0;
    bool throttling = false;
  };

  void resolve_parallelism();
  /// Catch the whole fleet up to now() so an admin directive lands at a
  /// well-defined instant: advance_fleet + merge_sweep, fixed node order.
  void flush_fleet();
  /// Controller/arbiter/governor wiring per NodeSpec, shared by the
  /// constructor and admin_join (where it runs after snapshot restore —
  /// injection hooks and governor timers are not snapshot-capable).
  void attach_control(Node& node, const NodeSpec& spec);
  /// Time of the next arrival (trace cursor or Poisson draw); kTimeInfinity
  /// once an attached trace is exhausted.
  sim::SimTime pop_next_arrival();
  /// Parallel phase of a fleet flush: replay backlogs and advance every
  /// machine to `t`, filling sweep_scratch_ and the per-node completion
  /// buffers. Fans node chunks across the pool (or runs them inline when
  /// serial); touches NO cross-node state.
  void advance_fleet(sim::SimTime t);
  /// One lane's share of advance_fleet: nodes [begin, end).
  void run_chunk(std::size_t begin, std::size_t end, sim::SimTime t);
  /// Read node i's telemetry into sweep_scratch_[i] (no machine advance).
  void compute_node_telemetry(std::size_t i);
  /// Serial reduction of a fleet flush, in fixed node order: buffered
  /// completions, telemetry aggregation, drain transitions, the batched
  /// fleet_sample event, the rack/CRAC step, and the routable rebuild.
  void merge_sweep(sim::SimTime t);
  void update_rack_layer(sim::SimTime t);
  /// Bump the balancer-view revision and empty the touched log: the next
  /// pick rebuilds its index. Required after any change a pick reads other
  /// than a logged outstanding-count change.
  void invalidate_view();
  /// Recompute the routable set (and invalidate the view).
  void rebuild_routable();
  /// Append an arrival to the arena and to node `id`'s chain. Serial side
  /// only (route, admin_remove's re-homing): lanes read the arena, never
  /// write it.
  void defer_arrival(std::size_t id, const PendingArrival& a);
  void route(sim::SimTime t);
  void on_complete(std::size_t node, std::uint32_t id, double latency_s);

  ClusterConfig config_;
  std::unique_ptr<LoadBalancer> balancer_;
  RequestSource source_;
  std::vector<Node> nodes_;
  obs::Tracer tracer_;
  /// Every node's deferred arrivals since the last flush, in route order.
  /// One arena for the fleet, so its capacity is the largest per-period
  /// arrival count, not the sum of every node's own peak backlog.
  /// advance_fleet empties it after the barrier.
  std::vector<PendingArrival> arrivals_;

  // Fleet-advancement parallelism (resolve_parallelism). pool_ is null on
  // the serial path; own_pool_ engages only when no engine pool is shared.
  std::unique_ptr<runner::ThreadPool> own_pool_;
  runner::ThreadPool* pool_ = nullptr;
  std::size_t lanes_ = 1;
  std::vector<SweepScratch> sweep_scratch_;

  // SoA hot state, indexed by node id (see FleetView).
  std::vector<double> sensor_temp_c_;
  std::vector<std::uint32_t> outstanding_;
  std::vector<double> injection_probability_;
  std::vector<std::uint8_t> draining_;
  std::vector<AdminState> admin_;
  std::vector<std::uint32_t> routable_;
  std::vector<std::uint32_t> rack_of_;
  /// FleetView::revision / touched: the change stamp (never 0 after
  /// construction) and the ids whose outstanding count moved since. The log
  /// holds at most one telemetry period of arrivals.
  std::uint64_t revision_ = 0;
  std::vector<std::uint32_t> touched_;

  /// Replay cursor into config_.arrival_trace (unused without a trace).
  std::size_t trace_pos_ = 0;

  // Rack/CRAC thermal layer (empty when disabled).
  thermal::RcNetwork rack_air_;
  thermal::NodeId crac_node_ = 0;
  std::vector<thermal::NodeId> rack_air_node_;
  std::vector<double> rack_power_w_;  // per-sweep scratch
  sim::SimTime last_rack_update_ = 0;

  sim::SimTime now_ = 0;
  sim::SimTime next_arrival_ = 0;
  sim::SimTime next_tick_ = 0;
  std::uint32_t next_request_id_ = 0;
  /// Atomic only for the cross-lane sum during advance_fleet; the total per
  /// flush is deterministic (backlog entries + one advance per node).
  std::atomic<std::uint64_t> machine_advances_{0};

  // Fleet-wide accumulators.
  std::uint64_t completed_ = 0;
  workload::WebWorkload::QosStats qos_;
  analysis::PercentileHistogram latency_hist_;
  analysis::OnlineStats fleet_temp_avg_;
  double fleet_peak_sensor_c_ = 0.0;
  double fleet_peak_exact_c_ = 0.0;
  double fleet_peak_inlet_c_ = 0.0;
};

}  // namespace dimetrodon::cluster
