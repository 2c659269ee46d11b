#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dimetrodon::cluster {

/// What the load balancer is allowed to see about the fleet: the operational
/// telemetry a datacenter scheduler would actually have, in structure-of-
/// arrays form indexed by node id. All pointers borrow the cluster's
/// persistent arrays — a view is built in O(1) and never allocates. The
/// `revision`/`touched` pair tells indexed policies what changed since their
/// last pick, so a pick costs O(log N) instead of a scan of the fleet.
///
/// Temperatures are the node's *quantized* coretemp readings (1 C
/// resolution), refreshed at the cluster's telemetry period — not the
/// continuous model state — so routing decisions face the same sensor
/// coarseness the paper's controller does.
struct FleetView {
  std::size_t num_nodes = 0;
  /// Mean quantized sensor reading per node at the last telemetry sample
  /// (stale by up to one period). Indexed by node id.
  const double* sensor_temp_c = nullptr;
  /// Requests routed to the node and not yet completed. Increments are
  /// exact and current (the balancer's own bookkeeping at route time);
  /// decrements land at fleet flushes, when deferred advancement drains the
  /// completions — so, like the temperatures, the count runs stale by up to
  /// one telemetry period. A real fleet scheduler faces the same lag: it
  /// learns of completions from telemetry, not synchronously.
  const std::uint32_t* outstanding = nullptr;
  /// The node's configured idle-injection probability (its preventive
  /// thermal-management intensity, known fleet-wide as configuration).
  const double* injection_probability = nullptr;
  /// PROCHOT failover flag (0/1): the node tripped its thermal monitor and
  /// is being drained.
  const std::uint8_t* draining = nullptr;
  /// Ids of the currently routable nodes, strictly ascending, never empty.
  /// Draining nodes are excluded unless every node is draining (shedding
  /// load entirely would drop requests on the floor).
  const std::uint32_t* routable = nullptr;
  std::size_t routable_count = 0;

  /// Change stamp for incremental routing indexes. The view's owner bumps it
  /// whenever anything a pick reads changes — temperatures, injection
  /// probabilities, drain flags, the routable set, the node count, outstanding
  /// counts — except outstanding-count changes it logs in `touched`. 0 means
  /// untracked: every pick rebuilds its index from scratch, so hand-built
  /// views (tests, one-off tools) need no bookkeeping. A nonzero revision is
  /// only meaningful to a policy fed by one owner.
  std::uint64_t revision = 0;
  /// Ids whose outstanding count changed since `revision` was set, in
  /// change order (duplicates allowed). Append-only until the next bump,
  /// which empties it; a policy replays only the entries it has not seen.
  const std::uint32_t* touched = nullptr;
  std::size_t touched_count = 0;
};

enum class PolicyKind : std::uint8_t {
  kRoundRobin,
  kLeastOutstanding,
  kCoolestNode,
  kInjectionAware,
};

const char* policy_name(PolicyKind kind);

/// Routing policy interface. `pick` chooses among the routable ids (never
/// empty) and returns the chosen node id. Policies may keep internal state
/// (e.g. a round-robin cursor) but must be deterministic: the same view
/// sequence yields the same decisions.
///
/// The ordered policies (least-outstanding, coolest-node, injection-aware)
/// pick the routable node with the best key under their comparator, lower id
/// winning ties. They keep that answer in a tournament tree over node ids:
/// a pick whose view carries a new (or zero) `revision` rebuilds the tree in
/// O(N); otherwise it replays the unseen `touched` entries in O(log N) each
/// and reads the root. Round-robin keeps only its cursor.
class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  virtual const char* name() const = 0;
  virtual std::size_t pick(const FleetView& fleet) = 0;
  /// Full index rebuilds so far (diagnostics; 0 for unindexed policies).
  virtual std::uint64_t index_rebuilds() const { return 0; }
};

/// `injection_threshold` only affects kInjectionAware: nodes whose injection
/// probability exceeds it are deprioritized (used only when every routable
/// node exceeds it).
std::unique_ptr<LoadBalancer> make_policy(PolicyKind kind,
                                          double injection_threshold = 0.25);

}  // namespace dimetrodon::cluster
