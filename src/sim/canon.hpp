#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

namespace dimetrodon::sim {

/// Version of the canonical-serialization layer. Everything that renders a
/// spec into canonical text (runner::canonical_spec, the cluster fleet tag,
/// control::append_canonical_governor) and the sweep result cache share this
/// one number: any change to a canonical format — field added, section
/// reordered, rendering altered — bumps it here, once, and every stale cache
/// file becomes a clean miss instead of a misparse.
///
/// v7: canonical serialization consolidated into CanonWriter; cluster tags
/// gained rack/CRAC, traffic-shape and telemetry-batching fields; the
/// fleet_samples counter joined obs::CounterTotals::fields().
///
/// v8: run specs gained the warm-start `warmup` field; thermal_sparse_matvecs,
/// thermal_evictions, snapshot_builds and snapshot_forks joined
/// obs::CounterTotals::fields().
///
/// v9: scenario layer — cluster tags gained the arrival-trace section
/// (cluster-v4 -> cluster-v5) and scenario specs append a scenario-v1
/// directive script; scenario_directives, node_joins, node_removals,
/// requests_shed, requests_rehomed and latency_rejects joined
/// obs::CounterTotals::fields().
///
/// v10: thermal time moved onto the substep grid (partial substeps carry
/// their energy and are charged as mean power), so modelled results shift
/// slightly; the bump keeps cached records from older versions from being
/// replayed as if this model had produced them.
inline constexpr int kCanonVersion = 10;

/// The one way canonical text is produced. Fields render as "key=value "
/// with doubles in hex-float (%a) so the text is bit-exact, integers in hex,
/// and sections as "name{ ... } ". Two specs with equal canonical text must
/// describe identical simulations — the text is hashed into cache keys and
/// stored verbatim to rule out hash collisions.
class CanonWriter {
 public:
  explicit CanonWriter(std::size_t reserve = 512) { out_.reserve(reserve); }

  /// Append the versioned preamble for a top-level document, e.g.
  /// preamble("dimetrodon-run-spec") -> "dimetrodon-run-spec v7 ".
  void preamble(const char* name) {
    out_ += name;
    char buf[16];
    std::snprintf(buf, sizeof buf, " v%d ", kCanonVersion);
    out_ += buf;
  }

  void field(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%a ", key, v);
    out_ += buf;
  }
  void field(const char* key, std::uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%llx ", key,
                  static_cast<unsigned long long>(v));
    out_ += buf;
  }
  void field(const char* key, std::int64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%lld ", key, static_cast<long long>(v));
    out_ += buf;
  }
  void field(const char* key, bool v) {
    out_ += key;
    out_ += v ? "=1 " : "=0 ";
  }
  void field(const char* key, const std::string& v) {
    out_ += key;
    out_ += '=';
    out_ += v;
    out_ += ' ';
  }

  void open(const char* section) {
    out_ += section;
    out_ += '{';
  }
  void close() { out_ += "} "; }

  /// Open a repeated-element list ("nodes[") / close it ("] ").
  void open_list(const char* name) {
    out_ += name;
    out_ += '[';
  }
  void close_list() { out_ += "] "; }

  void raw(const char* text) { out_ += text; }

  std::string take() { return std::move(out_); }
  const std::string& text() const { return out_; }

 private:
  std::string out_;
};

}  // namespace dimetrodon::sim
