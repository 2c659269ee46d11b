#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>

#include "runner/env.hpp"
#include "sim/rng.hpp"

namespace dimetrodon::cluster {

namespace {

/// Stream ids under the cluster master seed: 0 is the request source, node i
/// owns stream i + 1. Pure derivation (derive_stream_seed) keeps every
/// stream independent of construction order.
constexpr std::uint64_t kSourceStream = 0;

/// Auto mode spins up a pool only for fleets big enough to amortize it; a
/// handful of machines advances faster on one thread than across a barrier.
constexpr std::size_t kAutoParallelMinNodes = 32;

double hottest_die_c(const sched::Machine& m) {
  double hottest = 0.0;
  for (std::size_t phys = 0; phys < m.num_physical_cores(); ++phys) {
    const double t =
        m.thermal_network().temperature(m.thermal_nodes().die[phys]);
    hottest = std::max(hottest, t);
  }
  return hottest;
}

double hottest_sensor_c(const sched::Machine& m) {
  double hottest = 0.0;
  for (std::size_t phys = 0; phys < m.num_physical_cores(); ++phys) {
    hottest = std::max(hottest, m.sensor(phys).read());
  }
  return hottest;
}

bool any_core_throttling(const sched::Machine& m) {
  for (std::size_t phys = 0; phys < m.num_physical_cores(); ++phys) {
    if (m.thermal_throttle_active(phys)) return true;
  }
  return false;
}

}  // namespace

Cluster::Cluster(ClusterConfig config, std::unique_ptr<LoadBalancer> balancer)
    : config_(std::move(config)),
      balancer_(std::move(balancer)),
      source_(config_.seed, kSourceStream, config_.offered_load_rps,
              config_.traffic) {
  if (config_.nodes.empty()) {
    throw std::invalid_argument(
        "cluster needs at least one node (build the fleet with FleetSpec)");
  }
  if (balancer_ == nullptr) {
    throw std::invalid_argument("cluster needs a load balancer");
  }
  if (config_.telemetry_period <= 0) {
    throw std::invalid_argument("telemetry period must be positive");
  }
  if (config_.arrival_trace) {
    const auto& recs = config_.arrival_trace->records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].at < 0 || (i > 0 && recs[i].at <= recs[i - 1].at)) {
        throw std::invalid_argument(
            "arrival trace timestamps must be strictly increasing");
      }
      if (recs[i].size_class > ArrivalRecord::kMaxSizeClass) {
        throw std::invalid_argument("arrival trace size class out of range");
      }
    }
  }
  if (config_.trace_sink_factory) {
    tracer_.attach(config_.trace_sink_factory());
  }

  const std::size_t n = config_.nodes.size();
  const RackParams& rack = config_.rack;
  const std::size_t per_rack = rack.enabled() ? rack.nodes_per_rack : n;
  const std::size_t num_racks = rack.enabled() ? (n + per_rack - 1) / per_rack
                                               : 0;

  sensor_temp_c_.assign(n, 0.0);
  outstanding_.assign(n, 0);
  injection_probability_.assign(n, 0.0);
  draining_.assign(n, 0);
  admin_.assign(n, AdminState::kActive);
  rack_of_.assign(n, 0);
  routable_.reserve(n);
  sweep_scratch_.assign(n, SweepScratch{});

  // Rack air network: one fixed CRAC supply node, one air node per rack tied
  // to it, optional chain coupling between adjacent racks.
  if (rack.enabled()) {
    crac_node_ = rack_air_.add_fixed_node("crac", rack.crac_supply_c);
    rack_air_node_.reserve(num_racks);
    for (std::size_t r = 0; r < num_racks; ++r) {
      const thermal::NodeId air = rack_air_.add_node(
          "rack" + std::to_string(r), rack.air_capacitance_j_per_c,
          rack.crac_supply_c);
      rack_air_.connect_r(air, crac_node_, rack.to_crac_resistance_c_per_w);
      if (r > 0 && rack.adjacent_resistance_c_per_w > 0.0) {
        rack_air_.connect_r(air, rack_air_node_[r - 1],
                            rack.adjacent_resistance_c_per_w);
      }
      rack_air_node_.push_back(air);
    }
    rack_power_w_.assign(num_racks, 0.0);
    fleet_peak_inlet_c_ = rack.crac_supply_c;
  } else {
    fleet_peak_inlet_c_ = config_.machine.floorplan.ambient_c;
  }

  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSpec& spec = config_.nodes[i];
    Node node;

    sched::MachineConfig mc = config_.machine;
    mc.floorplan.fan_speed_fraction = spec.fan_speed_fraction;
    if (rack.enabled()) {
      // Every inlet starts at the CRAC supply; the rack layer takes over
      // from the first telemetry sweep.
      mc.floorplan.ambient_c = rack.crac_supply_c;
      rack_of_[i] = i / per_rack;
    }
    mc.seed = sim::derive_stream_seed(config_.seed, i + 1);
    node.machine = std::make_unique<sched::Machine>(mc);
    node.last_energy_j = node.machine->energy().total_joules();

    node.web = std::make_unique<workload::WebWorkload>(config_.web);
    node.web->deploy(*node.machine);
    node.web->set_completion_callback(
        [this, i](std::uint32_t id, double latency_s) {
          on_complete(i, id, latency_s);
        });

    attach_control(node, spec);
    injection_probability_[i] = spec.injection_probability;
    nodes_.push_back(std::move(node));
  }

  resolve_parallelism();

  // The construction-time sweep reads the fresh machines without advancing
  // them (they are already at t = 0), so it contributes fleet_sample #0 but
  // no machine_advances.
  for (std::size_t i = 0; i < n; ++i) compute_node_telemetry(i);
  merge_sweep(0);
  next_tick_ = config_.telemetry_period;
  next_arrival_ = pop_next_arrival();
}

Cluster::~Cluster() = default;

void Cluster::attach_control(Node& node, const NodeSpec& spec) {
  if (spec.governor.enabled()) {
    // Governed node: the controller sits behind an arbiter; the governor
    // claims the feedback channel and any configured open-loop probability
    // becomes the preventive floor.
    node.controller =
        std::make_shared<core::DimetrodonController>(*node.machine);
    node.arbiter =
        std::make_unique<control::InjectionArbiter>(*node.controller);
    if (spec.injection_probability > 0.0) {
      node.preventive_port = &node.arbiter->claim(
          control::InjectionArbiter::Channel::kPreventive, "preventive");
      node.preventive_port->request(spec.injection_probability,
                                    spec.injection_quantum);
    }
    node.driver = std::make_unique<control::GovernorDriver>(
        *node.machine, *node.arbiter, spec.governor);
  } else if (spec.injection_probability > 0.0) {
    node.controller =
        std::make_shared<core::DimetrodonController>(*node.machine);
    node.controller->sys_set_global(spec.injection_probability,
                                    spec.injection_quantum);
  }
}

sim::SimTime Cluster::pop_next_arrival() {
  if (config_.arrival_trace) {
    const auto& recs = config_.arrival_trace->records;
    return trace_pos_ < recs.size() ? recs[trace_pos_].at : sim::kTimeInfinity;
  }
  return source_.next();
}

double Cluster::rack_inlet_c(std::size_t r) const {
  return rack_air_.temperature(rack_air_node_.at(r));
}

FleetView Cluster::fleet_view() const {
  FleetView v;
  v.num_nodes = nodes_.size();
  v.sensor_temp_c = sensor_temp_c_.data();
  v.outstanding = outstanding_.data();
  v.injection_probability = injection_probability_.data();
  v.draining = draining_.data();
  v.routable = routable_.data();
  v.routable_count = routable_.size();
  v.revision = revision_;
  v.touched = touched_.data();
  v.touched_count = touched_.size();
  return v;
}

void Cluster::resolve_parallelism() {
  const std::size_t n = config_.nodes.size();
  std::size_t requested = config_.fleet_threads;
  if (requested == 0) {
    if (const auto t = runner::env_size_t("DIMETRODON_FLEET_THREADS")) {
      requested = *t;
    }
  }
  if (config_.machine.trace_sink_factory) {
    // The factory may hand every node the same sink object; per-node trace
    // events emitted mid-advance would race it. Correctness beats the knob.
    lanes_ = 1;
    return;
  }
  if (requested == 1 || n < 2) {
    lanes_ = 1;
    return;
  }
  if (requested > 1) {
    if (config_.shared_pool != nullptr &&
        config_.shared_pool->num_threads() > 0) {
      pool_ = config_.shared_pool;
    } else {
      own_pool_ = std::make_unique<runner::ThreadPool>(requested);
      pool_ = own_pool_.get();
    }
    lanes_ = requested;
    return;
  }
  // Auto. Under an engine, follow its arbitration hint: a saturated grid
  // keeps fleets serial inside, an idle one hands them the pool. Standalone,
  // spin up a pool only when the fleet is large enough to amortize it.
  if (config_.shared_pool != nullptr &&
      config_.shared_pool->num_threads() > 0) {
    if (config_.shared_lanes == 1) {
      lanes_ = 1;
      return;
    }
    pool_ = config_.shared_pool;
    lanes_ = config_.shared_lanes != 0 ? config_.shared_lanes
                                       : config_.shared_pool->num_threads();
    return;
  }
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw >= 2 && n >= kAutoParallelMinNodes) {
    own_pool_ = std::make_unique<runner::ThreadPool>(hw);
    pool_ = own_pool_.get();
    lanes_ = hw;
  } else {
    lanes_ = 1;
  }
}

void Cluster::run_chunk(std::size_t begin, std::size_t end, sim::SimTime t) {
  std::uint64_t advances = 0;
  for (std::size_t i = begin; i < end; ++i) {
    Node& node = nodes_[i];
    // Detached nodes are frozen: no backlog (rebuild_routable excludes
    // them before detach), no advance, no telemetry.
    if (admin_[i] == AdminState::kDetached) {
      assert(node.backlog_head == kNoArrival);
      continue;
    }
    // Replay the backlog: each deferred arrival advances the machine to its
    // arrival time and injects, exactly the interaction sequence the eager
    // path performed at route time — the machine cannot tell the difference.
    // The arena is shared by every lane and only read here; the chain
    // reset touches this node alone.
    for (std::uint32_t k = node.backlog_head; k != kNoArrival;
         k = arrivals_[k].next) {
      const PendingArrival& a = arrivals_[k];
      node.machine->run_until(a.at);
      ++advances;
      node.web->inject_request(a.rid, a.demand_scale, a.issued_at);
    }
    node.backlog_head = kNoArrival;
    node.backlog_tail = kNoArrival;
    node.machine->run_until(t);
    ++advances;
    compute_node_telemetry(i);
  }
  machine_advances_.fetch_add(advances, std::memory_order_relaxed);
}

void Cluster::advance_fleet(sim::SimTime t) {
  const std::size_t n = nodes_.size();
  if (pool_ == nullptr) {
    run_chunk(0, n, t);
    arrivals_.clear();
    return;
  }
  // Contiguous chunks, a few per lane so stealing can level uneven nodes
  // (a draining node replays a long queue; an idle one is a no-op).
  const std::size_t chunks = std::min(n, lanes_ * 4);
  std::vector<std::exception_ptr> errors(chunks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    tasks.push_back([this, begin, end, t, c, &errors] {
      // The pool swallows escaping exceptions by contract; capture here so
      // a throwing machine still fails the run, not just a counter.
      try {
        run_chunk(begin, end, t);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  pool_->run_and_wait(std::move(tasks));
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  // After the barrier: every chain has been replayed and reset.
  arrivals_.clear();
}

void Cluster::compute_node_telemetry(std::size_t i) {
  const sched::Machine& m = *nodes_[i].machine;
  SweepScratch& s = sweep_scratch_[i];
  s.mean_c = m.mean_sensor_temp();
  s.hot_sensor = hottest_sensor_c(m);
  s.hot_die = hottest_die_c(m);
  s.throttling = any_core_throttling(m);
}

void Cluster::merge_sweep(sim::SimTime t) {
  // Fixed node order throughout: node i's buffered completions land before
  // node i+1's, then the telemetry fold walks the same order — exactly the
  // sequence the serial path produces, so every downstream accumulator
  // (QoS, streaming histogram, OnlineStats, trace) sees identical inputs in
  // identical order at any lane count.
  for (Node& node : nodes_) {
    for (const CompletionRecord& c : node.completions) {
      ++completed_;
      ++qos_.total;
      if (c.latency_s <= config_.web.good_threshold_s) ++qos_.good;
      if (c.latency_s <= config_.web.tolerable_threshold_s) {
        ++qos_.tolerable;
      } else {
        ++qos_.fail;
      }
      qos_.max_latency_s = std::max(qos_.max_latency_s, c.latency_s);
      latency_hist_.add(c.latency_s);
      tracer_.request_complete(c.at, c.id, c.latency_s);
    }
    node.completions.clear();
  }

  double fleet_mean = 0.0;
  double hottest_quantized = 0.0;
  std::size_t swept = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    // Detached nodes left the fleet: their (stale) scratch stays out of the
    // aggregates so telemetry describes the machines actually serving.
    if (admin_[i] == AdminState::kDetached) continue;
    ++swept;
    const SweepScratch& s = sweep_scratch_[i];
    // The balancer sees whole degrees, like the per-core sensors themselves:
    // averaging the quantized cores would leak sub-degree resolution the
    // hardware doesn't offer, and the coarser view doubles as herd
    // protection (1 C ties fall through to the outstanding-count tie-break).
    sensor_temp_c_[i] = std::floor(s.mean_c);
    node.temp_avg.add(s.mean_c);
    node.stats.mean_sensor_c = node.temp_avg.mean();
    hottest_quantized = std::max(hottest_quantized, s.hot_sensor);
    node.stats.peak_sensor_c = std::max(node.stats.peak_sensor_c, s.hot_sensor);
    fleet_peak_sensor_c_ =
        std::max(fleet_peak_sensor_c_, node.stats.peak_sensor_c);
    fleet_peak_exact_c_ = std::max(fleet_peak_exact_c_, s.hot_die);
    fleet_mean += s.mean_c;

    if (s.throttling != (draining_[i] != 0)) {
      draining_[i] = s.throttling ? 1 : 0;
      if (s.throttling) ++node.stats.drains;
      tracer_.node_drain(t, static_cast<std::uint32_t>(i), s.throttling,
                         s.hot_die);
    }
  }
  if (swept > 0) {
    fleet_temp_avg_.add(fleet_mean / static_cast<double>(swept));
  }
  // One batched interaction point for the whole sweep — the fleet emits a
  // single trace event per period, not one per node.
  tracer_.fleet_sample(t, static_cast<std::uint32_t>(swept),
                       hottest_quantized);

  // Removal completes at the first sweep where the node's queue has fully
  // drained: its remaining in-service requests completed above, so the
  // machine can freeze here without losing work.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (admin_[i] == AdminState::kRemoving && outstanding_[i] == 0) {
      if (nodes_[i].driver) nodes_[i].driver->stop();
      admin_[i] = AdminState::kDetached;
      tracer_.node_removed();
    }
  }

  if (config_.rack.enabled()) update_rack_layer(t);
  rebuild_routable();
}

void Cluster::update_rack_layer(sim::SimTime t) {
  const double dt = sim::to_sec(t - last_rack_update_);
  if (dt <= 0.0) return;
  last_rack_update_ = t;

  // Measured per-rack dissipation over the elapsed span (energy delta), of
  // which a recirculation fraction heats the rack's air volume.
  std::fill(rack_power_w_.begin(), rack_power_w_.end(), 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (admin_[i] == AdminState::kDetached) continue;  // frozen: no new heat
    const double e = nodes_[i].machine->energy().total_joules();
    rack_power_w_[rack_of_[i]] += (e - nodes_[i].last_energy_j) / dt;
    nodes_[i].last_energy_j = e;
  }
  for (std::size_t r = 0; r < rack_air_node_.size(); ++r) {
    rack_air_.set_power(rack_air_node_[r],
                        rack_power_w_[r] * config_.rack.recirculation_fraction);
  }
  rack_air_.step(dt);

  // Write each rack's air temperature into its members' inlet: the machines'
  // ambient nodes are *fixed* (boundary) nodes, so this re-aims the boundary
  // term of the closed-form propagator without invalidating its cached
  // operators.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (admin_[i] == AdminState::kDetached) continue;
    sched::Machine& m = *nodes_[i].machine;
    const double inlet = rack_air_.temperature(rack_air_node_[rack_of_[i]]);
    m.thermal_network().set_temperature(m.thermal_nodes().ambient, inlet);
  }
  for (std::size_t r = 0; r < rack_air_node_.size(); ++r) {
    fleet_peak_inlet_c_ =
        std::max(fleet_peak_inlet_c_, rack_air_.temperature(rack_air_node_[r]));
  }
}

void Cluster::invalidate_view() {
  ++revision_;
  touched_.clear();
}

void Cluster::rebuild_routable() {
  // Every sweep, flush and join ends here, so this one bump covers all the
  // bulk changes (temperatures, drain flags, completion decrements, admin
  // state, node count) a pick reads.
  invalidate_view();
  routable_.clear();
  for (std::size_t i = 0; i < draining_.size(); ++i) {
    if (admin_[i] == AdminState::kActive && draining_[i] == 0) {
      routable_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (routable_.empty()) {
    // Whole-ACTIVE-fleet PROCHOT: spread load over the throttling active
    // nodes rather than drop it. Admin-drained/removing/detached nodes stay
    // out — an operator ordered them out of service, and a second node
    // tripping PROCHOT mid-drain must not send traffic back to them. With
    // no active nodes at all, routable_ stays empty and route() sheds.
    for (std::size_t i = 0; i < draining_.size(); ++i) {
      if (admin_[i] == AdminState::kActive) {
        routable_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
}

void Cluster::defer_arrival(std::size_t id, const PendingArrival& a) {
  Node& node = nodes_.at(id);
  if (arrivals_.size() >= kNoArrival) {
    throw std::length_error(
        "cluster: more deferred arrivals in one telemetry period than a "
        "32-bit arena index can address");
  }
  const auto k = static_cast<std::uint32_t>(arrivals_.size());
  arrivals_.push_back(a);
  arrivals_.back().next = kNoArrival;
  if (node.backlog_tail == kNoArrival) {
    node.backlog_head = k;
  } else {
    arrivals_[node.backlog_tail].next = k;
  }
  node.backlog_tail = k;
}

void Cluster::route(sim::SimTime t) {
  double demand_scale = 1.0;
  std::uint8_t size_class = 0;
  std::uint32_t affinity = 0;
  if (config_.arrival_trace) {
    const ArrivalRecord& rec = config_.arrival_trace->records[trace_pos_++];
    size_class = rec.size_class;
    demand_scale = rec.demand_scale();
    affinity = rec.affinity;
  }
  const std::uint32_t rid = next_request_id_++;
  if (routable_.empty()) {
    // No active node exists (fleet fully drained/removed by churn): the
    // arrival is shed, loudly — counted, traced, and surfaced in metrics.
    tracer_.request_shed(t, rid);
    return;
  }
  // An affinity key bypasses the policy: the front-end pins keyed sessions
  // to a deterministic member of the routable set.
  const std::size_t id =
      affinity != 0 ? routable_[affinity % routable_.size()]
                    : balancer_->pick(fleet_view());
  // Deferred advancement: the arrival is recorded, not simulated — the node
  // replays its backlog at the next fleet flush, where the advance can run
  // in parallel with every other node's. The balancer sees the routed count
  // immediately (outstanding_ increments here, logged in touched_ for its
  // index, on the affinity path too); it sees completions only at sweeps,
  // when the flush drains them.
  defer_arrival(id, {.at = t, .rid = rid, .demand_scale = demand_scale});
  ++outstanding_[id];
  touched_.push_back(static_cast<std::uint32_t>(id));
  ++nodes_[id].stats.routed;
  tracer_.request_routed(t, static_cast<std::uint32_t>(id), rid, size_class,
                         affinity);
}

void Cluster::on_complete(std::size_t node_id, std::uint32_t id,
                          double latency_s) {
  // Fires mid-run_until, possibly on a pool lane — so it may touch ONLY
  // per-node state (its own buffer, its own SoA slots). The fleet-wide
  // effects are applied from the buffer, post-barrier, in merge_sweep —
  // whose rebuild_routable also invalidates the balancer view, so this
  // decrement needs no touched-log entry.
  Node& node = nodes_.at(node_id);
  if (outstanding_[node_id] > 0) --outstanding_[node_id];
  ++node.stats.completed;
  // The node's machine is mid-run_until here; its local clock is the event
  // time of the completion.
  node.completions.push_back({node.machine->now(), id, latency_s});
}

ClusterResult Cluster::run(sim::SimTime duration) {
  const sim::SimTime end = now_ + duration;
  // Two pending timeline events, whatever the fleet size: the next arrival
  // and the next telemetry sweep.
  while (true) {
    const sim::SimTime t = std::min(next_arrival_, next_tick_);
    if (t > end) break;
    now_ = t;
    if (t == next_tick_) {
      advance_fleet(t);
      merge_sweep(t);
      next_tick_ += config_.telemetry_period;
    }
    if (t == next_arrival_) {
      route(t);
      next_arrival_ = pop_next_arrival();
    }
  }
  now_ = end;
  // Final flush: drains every backlogged arrival, so stats and machine
  // clocks are exact at `end` and repeated run() calls compose.
  advance_fleet(end);
  merge_sweep(end);

  ClusterResult r;
  r.policy = balancer_->name();
  r.duration_s = sim::to_sec(now_);
  r.offered = next_request_id_;  // requests actually routed into the fleet
  r.completed = completed_;
  r.throughput_rps =
      r.duration_s > 0.0 ? static_cast<double>(completed_) / r.duration_s : 0.0;

  r.qos = qos_;
  r.qos.mean_latency_s = latency_hist_.mean();
  if (latency_hist_.count() > 0) {
    r.qos.p50_latency_s = latency_hist_.percentile(50.0);
    r.qos.p95_latency_s = latency_hist_.percentile(95.0);
    r.qos.p99_latency_s = latency_hist_.percentile(99.0);
  }

  r.fleet_peak_sensor_c = fleet_peak_sensor_c_;
  r.fleet_peak_exact_c = fleet_peak_exact_c_;
  r.fleet_mean_sensor_c = fleet_temp_avg_.mean();
  r.fleet_peak_inlet_c = fleet_peak_inlet_c_;
  r.num_racks = num_racks();

  r.nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    r.drains += node.stats.drains;
    NodeStats stats = node.stats;
    if (node.driver) stats.governor_trips = node.driver->stats().trips;
    r.nodes.push_back(stats);
    r.counters += node.machine->counters().totals();
    r.total_energy_j += node.machine->energy().total_joules();
    if (node.driver) r.stability.merge_worst(node.driver->stability_metrics());
  }
  // Cluster-scope counters live only in the cluster's registry; fold in just
  // those rows (its requests_completed would double-count the machines').
  const obs::CounterRegistry& own = tracer_.counters();
  for (const auto& f : obs::CounterTotals::fields()) {
    if (f.scope == obs::CounterScope::kCluster) {
      r.counters.*f.member += own.*f.member;
    }
  }
  // Non-finite latency samples the fleet histogram refused — nonzero means
  // the percentiles above silently exclude data, so it rides every report.
  r.counters.latency_rejects = latency_hist_.rejected();
  return r;
}

std::size_t Cluster::active_nodes() const {
  std::size_t n = 0;
  for (const AdminState s : admin_) {
    if (s != AdminState::kDetached) ++n;
  }
  return n;
}

void Cluster::flush_fleet() {
  advance_fleet(now_);
  merge_sweep(now_);
}

void Cluster::admin_drain(std::size_t i) {
  if (admin_.at(i) != AdminState::kActive) {
    throw std::invalid_argument("admin_drain: node is not active");
  }
  flush_fleet();
  admin_[i] = AdminState::kDrained;
  rebuild_routable();
}

void Cluster::admin_undrain(std::size_t i) {
  if (admin_.at(i) != AdminState::kDrained) {
    throw std::invalid_argument("admin_undrain: node is not drained");
  }
  flush_fleet();
  admin_[i] = AdminState::kActive;
  rebuild_routable();
}

void Cluster::admin_remove(std::size_t i) {
  if (admin_.at(i) != AdminState::kActive &&
      admin_.at(i) != AdminState::kDrained) {
    throw std::invalid_argument("admin_remove: node is not in the fleet");
  }
  flush_fleet();
  admin_[i] = AdminState::kRemoving;
  rebuild_routable();  // exclude the node before re-homing picks targets

  // Cancel the node's queued (not yet in-service) external requests and
  // re-route each with its original issue time, oldest first — latency
  // accrues from the first routing, so churn shows up as tail latency, not
  // as silently reset clocks. In-service requests finish where they are.
  Node& node = nodes_[i];
  const auto cancelled = node.web->cancel_pending_external();
  for (const auto& c : cancelled) {
    // No touched_ entry: node i left the routable set above, so no pick
    // reads its count before the next revision bump.
    if (outstanding_[i] > 0) --outstanding_[i];
    if (routable_.empty()) {
      // Nowhere to re-home (fleet-wide churn overlap): shed instead.
      tracer_.request_shed(now_, c.request_id);
      continue;
    }
    tracer_.request_rehomed();
    const std::size_t target = balancer_->pick(fleet_view());
    defer_arrival(target, {.at = now_,
                           .rid = c.request_id,
                           .demand_scale = c.demand_scale,
                           .issued_at = c.issued_at});
    ++outstanding_[target];
    touched_.push_back(static_cast<std::uint32_t>(target));
  }
  // The detach itself happens at the first sweep with outstanding == 0
  // (merge_sweep), after any in-service requests have completed.
}

std::size_t Cluster::admin_join(const NodeSpec& spec, sim::SimTime warmup) {
  if (warmup < 0 || warmup > now_) {
    throw std::invalid_argument(
        "admin_join: warmup must be in [0, now()] (the joined node cannot "
        "be older than the fleet)");
  }
  flush_fleet();

  const std::size_t id = nodes_.size();
  const RackParams& rack = config_.rack;
  sched::MachineConfig mc = config_.machine;
  mc.floorplan.fan_speed_fraction = spec.fan_speed_fraction;
  std::size_t rack_id = 0;
  if (rack.enabled()) {
    // Joins land in the last rack once it has room-by-id; racks are an id
    // grouping, so the new node shares whatever rack its id falls into.
    rack_id = std::min(id / rack.nodes_per_rack, rack_air_node_.size() - 1);
    mc.floorplan.ambient_c = rack_air_.temperature(rack_air_node_[rack_id]);
  }
  mc.seed = sim::derive_stream_seed(config_.seed, id + 1);

  Node node;
  bool warm = false;
  if (warmup > 0) {
    // Snapshot-warmed join: a template machine with the identical config
    // and workload runs [0, warmup] and its snapshot restores into the
    // fresh node, which then advances [warmup, now()]. Controller and
    // governor attach AFTER the restore (injection hooks and governor
    // timers are not snapshot-capable). Configs that cannot snapshot at
    // all (power meter, machine trace sink, reference stepper, closed-loop
    // web connections) fall back to a cold join.
    try {
      sched::Machine tmpl(mc);
      workload::WebWorkload tmpl_web(config_.web);
      tmpl_web.deploy(tmpl);
      tmpl.run_until(warmup);
      const sched::MachineSnapshot snap = tmpl.snapshot();

      node.machine = std::make_unique<sched::Machine>(mc);
      node.web = std::make_unique<workload::WebWorkload>(config_.web);
      node.web->deploy(*node.machine);
      node.machine->restore(snap);
      warm = true;
    } catch (const std::exception&) {
      node.machine.reset();
      node.web.reset();
    }
  }
  if (!node.machine) {
    node.machine = std::make_unique<sched::Machine>(mc);
    node.web = std::make_unique<workload::WebWorkload>(config_.web);
    node.web->deploy(*node.machine);
  }
  node.web->set_completion_callback(
      [this, id](std::uint32_t rid, double latency_s) {
        on_complete(id, rid, latency_s);
      });
  attach_control(node, spec);
  node.machine->run_until(now_);
  machine_advances_.fetch_add(1, std::memory_order_relaxed);
  node.last_energy_j = node.machine->energy().total_joules();

  nodes_.push_back(std::move(node));
  sensor_temp_c_.push_back(0.0);
  outstanding_.push_back(0);
  injection_probability_.push_back(spec.injection_probability);
  draining_.push_back(0);
  admin_.push_back(AdminState::kActive);
  rack_of_.push_back(static_cast<std::uint32_t>(rack_id));
  sweep_scratch_.push_back(SweepScratch{});

  compute_node_telemetry(id);
  sensor_temp_c_[id] = std::floor(sweep_scratch_[id].mean_c);
  tracer_.node_join(now_, static_cast<std::uint32_t>(id), warm,
                    sim::to_sec(warmup));
  rebuild_routable();
  return id;
}

void Cluster::admin_set_injection(std::size_t i, double probability,
                                  sim::SimTime quantum) {
  Node& node = nodes_.at(i);
  flush_fleet();
  if (node.arbiter) {
    // Governed node: the new probability rides the arbiter's preventive
    // channel, arbitrated against the live governor as usual.
    if (node.preventive_port == nullptr) {
      node.preventive_port = &node.arbiter->claim(
          control::InjectionArbiter::Channel::kPreventive, "preventive");
    }
    if (probability > 0.0) {
      node.preventive_port->request(probability, quantum);
    } else {
      node.preventive_port->withdraw();
    }
  } else {
    if (!node.controller) {
      node.controller =
          std::make_shared<core::DimetrodonController>(*node.machine);
    }
    node.controller->sys_set_global(probability, quantum);
  }
  injection_probability_[i] = probability;
  // Picks read p. The flush above already bumped and no pick runs in
  // between, but the write gets its own bump so that never matters.
  invalidate_view();
}

void Cluster::admin_retune_governor(std::size_t i,
                                    const control::GovernorSpec& spec) {
  Node& node = nodes_.at(i);
  if (!node.driver) {
    throw std::invalid_argument(
        "admin_retune_governor: node runs no governor");
  }
  flush_fleet();
  node.driver->retune(spec);
}

void Cluster::admin_set_fan(std::size_t i, double fraction) {
  Node& node = nodes_.at(i);
  flush_fleet();
  node.machine->set_fan_speed(fraction);
}

void Cluster::set_crac_supply(double supply_c) {
  flush_fleet();
  if (config_.rack.enabled()) {
    // Fixed-node re-aim: the boundary every rack air node relaxes toward
    // moves without invalidating the rack network's cached operators.
    rack_air_.set_temperature(crac_node_, supply_c);
  } else {
    // No rack layer: the heat wave hits every machine's inlet directly, and
    // the config base follows so later joins construct at the new ambient.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (admin_[i] == AdminState::kDetached) continue;
      sched::Machine& m = *nodes_[i].machine;
      m.thermal_network().set_temperature(m.thermal_nodes().ambient,
                                          supply_c);
    }
    config_.machine.floorplan.ambient_c = supply_c;
  }
  config_.rack.crac_supply_c = supply_c;
}

}  // namespace dimetrodon::cluster
