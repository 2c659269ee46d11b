#include "cluster/load_balancer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

namespace dimetrodon::cluster {

namespace {

/// Cooler, then fewer outstanding: the coolest-node order and the
/// injection-aware tie-break. Like every policy order here it is a strict
/// weak order; the tournament tree adds the final lower-id tie-break.
bool cooler(const FleetView& f, std::uint32_t a, std::uint32_t b) {
  if (f.sensor_temp_c[a] != f.sensor_temp_c[b]) {
    return f.sensor_temp_c[a] < f.sensor_temp_c[b];
  }
  return f.outstanding[a] < f.outstanding[b];
}

/// Cycle node ids in increasing order, skipping nodes that dropped out of
/// the routable set (drained) without disturbing the rotation for the rest.
/// The routable list is sorted, so one binary search finds the successor.
class RoundRobin final : public LoadBalancer {
 public:
  const char* name() const override { return "round-robin"; }
  std::size_t pick(const FleetView& fleet) override {
    const std::uint32_t* end = fleet.routable + fleet.routable_count;
    const std::uint32_t* it = std::upper_bound(fleet.routable, end, last_);
    const std::uint32_t chosen = it != end ? *it : fleet.routable[0];  // wrap
    last_ = chosen;
    return chosen;
  }

 private:
  std::uint32_t last_ = static_cast<std::uint32_t>(-1);
};

/// Fewer outstanding, then cooler.
struct LeastOutstandingOrder {
  static constexpr const char* kName = "least-outstanding";
  bool operator()(const FleetView& f, std::uint32_t a, std::uint32_t b) const {
    if (f.outstanding[a] != f.outstanding[b]) {
      return f.outstanding[a] < f.outstanding[b];
    }
    return f.sensor_temp_c[a] < f.sensor_temp_c[b];
  }
};

/// Thermal-aware: route to the node whose quantized sensors read coolest.
/// The 1 C quantization makes ties common, so the outstanding-count
/// tie-break doubles as herd protection between telemetry refreshes.
struct CoolestNodeOrder {
  static constexpr const char* kName = "coolest-node";
  bool operator()(const FleetView& f, std::uint32_t a, std::uint32_t b) const {
    return cooler(f, a, b);
  }
};

/// Injection-aware: deprioritize nodes whose idle-injection probability
/// exceeds the threshold — Dimetrodon is already taxing their capacity by
/// roughly a (1 - p) factor, so their outstanding count is scored against
/// that reduced capacity (capacity-weighted least-outstanding). Under light
/// load everything scores ~0 and the tie-break sends traffic to the
/// un-injected tier; under heavy load the injected nodes still absorb their
/// fair, capacity-proportional share instead of the preferred tier
/// collapsing.
struct InjectionAwareOrder {
  static constexpr const char* kName = "injection-aware";
  double threshold;

  bool operator()(const FleetView& f, std::uint32_t a, std::uint32_t b) const {
    const double sa = score(f, a);
    const double sb = score(f, b);
    if (sa != sb) return sa < sb;
    const bool a_light = f.injection_probability[a] <= threshold;
    const bool b_light = f.injection_probability[b] <= threshold;
    if (a_light != b_light) return a_light;
    return cooler(f, a, b);
  }

  double capacity(const FleetView& f, std::uint32_t id) const {
    if (f.injection_probability[id] <= threshold) return 1.0;
    // Injection leaves the node ~(1 - p) of its cycles; floor the weight so
    // a p ~ 1 node still scores finitely.
    return std::max(0.05, 1.0 - f.injection_probability[id]);
  }

  double score(const FleetView& f, std::uint32_t id) const {
    return static_cast<double>(f.outstanding[id]) / capacity(f, id);
  }
};

/// A policy that routes to the best routable node under `Order` (a strict
/// weak order over node ids), lower id winning ties — kept in a tournament
/// tree over node ids. Leaf `leaves_ + id` holds `id`, or kNone when the node
/// is not routable; every internal slot holds the winner of its two
/// children, so the root is the pick. Because the left child always covers
/// lower ids, "the right child wins only when strictly better" is exactly
/// the lower-id tie-break a scan in ascending id order applies.
///
/// A view with a new (or zero) revision rebuilds the tree bottom-up in
/// O(N). Otherwise only outstanding counts moved, each logged in `touched`:
/// the pick recomputes the leaf-to-root path of each unseen entry, O(log N)
/// apiece. A repeated or stale id simply recomputes a path that was right.
template <typename Order>
class TournamentPolicy final : public LoadBalancer {
 public:
  explicit TournamentPolicy(Order order = {}) : order_(order) {}

  const char* name() const override { return Order::kName; }

  std::size_t pick(const FleetView& fleet) override {
    if (fleet.revision == 0 || fleet.revision != revision_) {
      rebuild(fleet);
    } else {
      for (; applied_ < fleet.touched_count; ++applied_) {
        for (std::size_t k = (leaves_ + fleet.touched[applied_]) >> 1; k > 0;
             k >>= 1) {
          tree_[k] = winner(fleet, tree_[2 * k], tree_[2 * k + 1]);
        }
      }
    }
    return tree_[1];
  }

  std::uint64_t index_rebuilds() const override { return rebuilds_; }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// `left` covers lower ids than `right`, so it keeps ties.
  std::uint32_t winner(const FleetView& f, std::uint32_t left,
                       std::uint32_t right) const {
    if (left == kNone) return right;
    if (right == kNone) return left;
    return order_(f, right, left) ? right : left;
  }

  void rebuild(const FleetView& f) {
    // A one-node fleet has a single slot that is both leaf and root.
    leaves_ = std::bit_ceil(std::max<std::size_t>(f.num_nodes, 1));
    tree_.assign(2 * leaves_, kNone);
    for (std::size_t i = 0; i < f.routable_count; ++i) {
      tree_[leaves_ + f.routable[i]] = f.routable[i];
    }
    for (std::size_t k = leaves_ - 1; k > 0; --k) {
      tree_[k] = winner(f, tree_[2 * k], tree_[2 * k + 1]);
    }
    revision_ = f.revision;
    applied_ = f.touched_count;
    ++rebuilds_;
  }

  Order order_;
  std::vector<std::uint32_t> tree_;
  std::size_t leaves_ = 0;
  std::uint64_t revision_ = 0;
  std::size_t applied_ = 0;  // touched entries already folded in
  std::uint64_t rebuilds_ = 0;
};

}  // namespace

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin: return "round-robin";
    case PolicyKind::kLeastOutstanding: return "least-outstanding";
    case PolicyKind::kCoolestNode: return "coolest-node";
    case PolicyKind::kInjectionAware: return "injection-aware";
  }
  throw std::invalid_argument("unknown PolicyKind");
}

std::unique_ptr<LoadBalancer> make_policy(PolicyKind kind,
                                          double injection_threshold) {
  switch (kind) {
    case PolicyKind::kRoundRobin: return std::make_unique<RoundRobin>();
    case PolicyKind::kLeastOutstanding:
      return std::make_unique<TournamentPolicy<LeastOutstandingOrder>>();
    case PolicyKind::kCoolestNode:
      return std::make_unique<TournamentPolicy<CoolestNodeOrder>>();
    case PolicyKind::kInjectionAware:
      return std::make_unique<TournamentPolicy<InjectionAwareOrder>>(
          InjectionAwareOrder{injection_threshold});
  }
  throw std::invalid_argument("unknown PolicyKind");
}

}  // namespace dimetrodon::cluster
