#include "runner/result_cache.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "runner/fault_injection.hpp"
#include "sim/canon.hpp"

namespace dimetrodon::runner {

namespace {

// v3: sweep-level fault counters joined obs::CounterTotals::fields().
// v4: thermal-engine counters joined obs::CounterTotals::fields(), and the
// lazy thermal clock changed simulated trajectories (leakage is now refreshed
// per interaction span, not per 250 µs substep).
// v5: QosStats gained streaming percentiles (qos.p50/p95/p99_latency_s) and
// the cluster-scope counters (requests_routed, node_drains) joined
// obs::CounterTotals::fields().
// v6: closed-loop governor counters (governor_samples/trips/releases,
// duty_changes, duty_reversals) joined obs::CounterTotals::fields().
// v7 (sim::kCanonVersion): canonical serialization consolidated into
// sim::CanonWriter, cluster tags gained rack/CRAC + traffic-shape fields,
// and the fleet_samples counter joined obs::CounterTotals::fields(). The
// magic now tracks the canon version directly: one bump invalidates both the
// payload format and every canonical spec string at once.
// Bumping the magic makes every older file a clean miss, so old caches are
// recomputed rather than misparsed.
const std::string kFileMagic =
    "dimetrodon-sweep-cache v" + std::to_string(sim::kCanonVersion);

std::uint64_t fnv1a(const std::string& s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_line(std::string& out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %a\n", key, v);
  out += buf;
}

void put_line(std::string& out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

/// Line-oriented strict reader: every get_* consumes one line and fails the
/// whole parse on any mismatch.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  bool get_prefixed(const char* key, std::string& rest) {
    std::string line;
    if (!std::getline(in_, line)) return false;
    const std::string prefix = std::string(key) + " ";
    if (line.rfind(prefix, 0) != 0) return false;
    rest = line.substr(prefix.size());
    return true;
  }

  bool get_double(const char* key, double& v) {
    std::string rest;
    if (!get_prefixed(key, rest)) return false;
    return parse_double(rest, v);
  }

  bool get_u64(const char* key, std::uint64_t& v) {
    std::string rest;
    if (!get_prefixed(key, rest)) return false;
    return parse_u64(rest, v);
  }

  bool get_exact(const char* line_text) {
    std::string line;
    if (!std::getline(in_, line)) return false;
    return line == line_text;
  }

  bool at_end() {
    std::string line;
    return !std::getline(in_, line);
  }

  static bool parse_double(const std::string& s, double& v) {
    errno = 0;
    char* end = nullptr;
    v = std::strtod(s.c_str(), &end);
    return errno == 0 && end != s.c_str() && *end == '\0';
  }

  /// Strictly a bare decimal digit string. strtoull alone would accept
  /// leading whitespace, a '+'/'-' sign (silently wrapping "-1" to 2^64-1),
  /// and "0x" prefixes — all of which let a corrupted record parse
  /// "successfully".
  static bool parse_u64(const std::string& s, std::uint64_t& v) {
    if (s.empty() || s.size() > 20) return false;  // 2^64-1 has 20 digits
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
    }
    errno = 0;
    char* end = nullptr;
    v = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
  }

 private:
  std::istringstream in_;
};

}  // namespace

CacheKey CacheKey::of(const std::string& canonical) {
  // Two FNV-1a streams with different bases; 128 bits total. Collisions are
  // additionally ruled out by the verbatim spec comparison on load.
  return CacheKey{fnv1a(canonical, 0xcbf29ce484222325ULL),
                  fnv1a(canonical, 0x84222325cbf29ce4ULL)};
}

std::string CacheKey::hex() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

ResultCache::ResultCache(std::string dir, bool enabled,
                         std::uint32_t write_retry_limit,
                         std::uint32_t retry_backoff_ms)
    : dir_(std::move(dir)),
      enabled_(enabled && !dir_.empty()),
      write_retry_limit_(write_retry_limit),
      retry_backoff_ms_(retry_backoff_ms) {
  if (enabled_) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) enabled_ = false;
  }
}

std::string ResultCache::path_for(const CacheKey& key) const {
  return dir_ + "/" + key.hex() + ".run";
}

std::string ResultCache::serialize_record(const RunRecord& record) {
  std::string out;
  out.reserve(1024);
  const auto& r = record.result;
  out += "result.label " + r.label + "\n";
  put_line(out, "result.idle_sensor_temp_c", r.idle_sensor_temp_c);
  put_line(out, "result.idle_exact_temp_c", r.idle_exact_temp_c);
  put_line(out, "result.avg_sensor_temp_c", r.avg_sensor_temp_c);
  put_line(out, "result.avg_exact_temp_c", r.avg_exact_temp_c);
  put_line(out, "result.throughput", r.throughput);
  put_line(out, "result.avg_power_w", r.avg_power_w);
  put_line(out, "result.injected_idle_fraction", r.injected_idle_fraction);
  put_line(out, "result.sim_seconds", r.sim_seconds);
  put_line(out, "result.has_qos",
           static_cast<std::uint64_t>(r.qos.has_value()));
  const workload::WebWorkload::QosStats qos =
      r.qos.value_or(workload::WebWorkload::QosStats{});
  put_line(out, "qos.good", qos.good);
  put_line(out, "qos.tolerable", qos.tolerable);
  put_line(out, "qos.fail", qos.fail);
  put_line(out, "qos.total", qos.total);
  put_line(out, "qos.mean_latency_s", qos.mean_latency_s);
  put_line(out, "qos.max_latency_s", qos.max_latency_s);
  put_line(out, "qos.p50_latency_s", qos.p50_latency_s);
  put_line(out, "qos.p95_latency_s", qos.p95_latency_s);
  put_line(out, "qos.p99_latency_s", qos.p99_latency_s);
  for (const auto& f : obs::CounterTotals::fields()) {
    put_line(out, (std::string("counter.") + f.name).c_str(),
             r.counters.*f.member);
  }
  const auto& w = record.window;
  put_line(out, "window.completion_seconds", w.completion_seconds);
  put_line(out, "window.meter_energy_j", w.meter_energy_j);
  put_line(out, "window.true_energy_j", w.true_energy_j);
  put_line(out, "window.mean_power_w", w.mean_power_w);
  put_line(out, "window.wall_seconds", w.wall_seconds);
  put_line(out, "samples", static_cast<std::uint64_t>(record.samples.size()));
  for (const double s : record.samples) put_line(out, "s", s);
  put_line(out, "extras", static_cast<std::uint64_t>(record.extra.size()));
  for (const auto& [k, v] : record.extra) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "e %a ", v);
    out += buf;
    out += k;
    out += '\n';
  }
  // Terminator: truncation anywhere in the payload is a parse failure even
  // without the file-level checksum.
  out += "eot\n";
  return out;
}

std::optional<RunRecord> ResultCache::parse_record(const std::string& payload) {
  // getline treats "eot" and "eot\n" identically, so a payload whose final
  // newline was truncated away would otherwise still parse.
  if (payload.empty() || payload.back() != '\n') return std::nullopt;
  LineReader in(payload);
  RunRecord rec;
  auto& r = rec.result;
  std::uint64_t u = 0;
  if (!in.get_prefixed("result.label", r.label)) return std::nullopt;
  if (!in.get_double("result.idle_sensor_temp_c", r.idle_sensor_temp_c) ||
      !in.get_double("result.idle_exact_temp_c", r.idle_exact_temp_c) ||
      !in.get_double("result.avg_sensor_temp_c", r.avg_sensor_temp_c) ||
      !in.get_double("result.avg_exact_temp_c", r.avg_exact_temp_c) ||
      !in.get_double("result.throughput", r.throughput) ||
      !in.get_double("result.avg_power_w", r.avg_power_w) ||
      !in.get_double("result.injected_idle_fraction",
                     r.injected_idle_fraction) ||
      !in.get_double("result.sim_seconds", r.sim_seconds)) {
    return std::nullopt;
  }
  if (!in.get_u64("result.has_qos", u) || u > 1) return std::nullopt;
  const bool has_qos = u == 1;
  workload::WebWorkload::QosStats qos;
  if (!in.get_u64("qos.good", qos.good) ||
      !in.get_u64("qos.tolerable", qos.tolerable) ||
      !in.get_u64("qos.fail", qos.fail) ||
      !in.get_u64("qos.total", qos.total) ||
      !in.get_double("qos.mean_latency_s", qos.mean_latency_s) ||
      !in.get_double("qos.max_latency_s", qos.max_latency_s) ||
      !in.get_double("qos.p50_latency_s", qos.p50_latency_s) ||
      !in.get_double("qos.p95_latency_s", qos.p95_latency_s) ||
      !in.get_double("qos.p99_latency_s", qos.p99_latency_s)) {
    return std::nullopt;
  }
  if (has_qos) r.qos = qos;
  for (const auto& f : obs::CounterTotals::fields()) {
    if (!in.get_u64((std::string("counter.") + f.name).c_str(),
                    r.counters.*f.member)) {
      return std::nullopt;
    }
  }
  auto& w = rec.window;
  if (!in.get_double("window.completion_seconds", w.completion_seconds) ||
      !in.get_double("window.meter_energy_j", w.meter_energy_j) ||
      !in.get_double("window.true_energy_j", w.true_energy_j) ||
      !in.get_double("window.mean_power_w", w.mean_power_w) ||
      !in.get_double("window.wall_seconds", w.wall_seconds)) {
    return std::nullopt;
  }
  if (!in.get_u64("samples", u)) return std::nullopt;
  rec.samples.resize(u);
  for (auto& s : rec.samples) {
    if (!in.get_double("s", s)) return std::nullopt;
  }
  if (!in.get_u64("extras", u)) return std::nullopt;
  rec.extra.reserve(u);
  for (std::uint64_t i = 0; i < u; ++i) {
    std::string rest;
    if (!in.get_prefixed("e", rest)) return std::nullopt;
    const auto space = rest.find(' ');
    if (space == std::string::npos) return std::nullopt;
    double v = 0.0;
    if (!LineReader::parse_double(rest.substr(0, space), v)) {
      return std::nullopt;
    }
    rec.extra.emplace_back(rest.substr(space + 1), v);
  }
  if (!in.get_exact("eot") || !in.at_end()) return std::nullopt;
  return rec;
}

std::optional<RunRecord> ResultCache::load(const CacheKey& key,
                                           const std::string& canonical) const {
  if (!enabled_) return std::nullopt;
  std::ifstream in(path_for(key));
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Structure: magic \n spec <canonical> \n <payload> check <hex> \n end \n
  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line) || line != kFileMagic) return std::nullopt;
  if (!std::getline(lines, line) || line != "spec " + canonical) {
    return std::nullopt;  // hash collision or stale format — recompute
  }
  const auto payload_begin = static_cast<std::string::size_type>(lines.tellg());
  const auto check_pos = text.rfind("\ncheck ");
  if (check_pos == std::string::npos || check_pos < payload_begin) {
    return std::nullopt;  // truncated before the checksum
  }
  const std::string payload =
      text.substr(payload_begin, check_pos + 1 - payload_begin);
  std::istringstream tail(text.substr(check_pos + 1));
  if (!std::getline(tail, line)) return std::nullopt;
  char expect[32];
  std::snprintf(expect, sizeof expect, "check %016llx",
                static_cast<unsigned long long>(
                    fnv1a(payload, 0xcbf29ce484222325ULL)));
  if (line != expect) return std::nullopt;  // corrupted payload
  if (!std::getline(tail, line) || line != "end") return std::nullopt;
  return parse_record(payload);
}

namespace {

/// Write `text` to `path` and fsync it. Returns false on any short write or
/// IO error (including injected ones), leaving whatever partial temp file
/// exists for the caller to clean up.
bool write_file_synced(const std::string& path, const std::string& text,
                       std::uint64_t fault_key) {
  if (fault::io_fault("cache.write", fault_key) == fault::Action::kIoError) {
    return false;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* p = text.data();
  std::size_t left = text.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

/// fsync the directory so the rename itself is durable. Best-effort: some
/// filesystems refuse O_RDONLY directory fsync; the rename is still atomic.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

StoreOutcome ResultCache::store(const CacheKey& key,
                                const std::string& canonical,
                                const RunRecord& record) const {
  StoreOutcome outcome;
  if (!enabled_) return outcome;
  const std::string payload = serialize_record(record);
  std::string text = kFileMagic + "\n";
  text += "spec " + canonical + "\n";
  text += payload;
  char check[32];
  std::snprintf(check, sizeof check, "check %016llx",
                static_cast<unsigned long long>(
                    fnv1a(payload, 0xcbf29ce484222325ULL)));
  text += check;
  text += "\nend\n";

  const std::string final_path = path_for(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  // Cache writes are best-effort (a lost store costs a recompute, never a
  // wrong result), but transient filesystem errors are worth a bounded,
  // deterministic retry: attempt k sleeps k * backoff before rewriting.
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (write_file_synced(tmp_path, text, key.hi)) {
      // Crash-simulation point: a process killed here leaves only the pid-
      // suffixed temp file. The final path either has the old content or,
      // after the rename below, the complete new record — never a torn one.
      if (fault::io_fault("cache.rename", key.hi) == fault::Action::kCrash) {
        outcome.retries = attempt;
        return outcome;
      }
      std::error_code ec;
      std::filesystem::rename(tmp_path, final_path, ec);
      if (!ec) {
        sync_dir(dir_);
        outcome.stored = true;
        outcome.retries = attempt;
        return outcome;
      }
    }
    if (attempt >= write_retry_limit_) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retry_backoff_ms_ * (attempt + 1)));
  }
  std::remove(tmp_path.c_str());
  outcome.retries = write_retry_limit_;
  return outcome;
}

}  // namespace dimetrodon::runner
