#include "obs/export.hpp"

#include <cstdio>
#include <map>
#include <optional>
#include <sstream>

#include "obs/json.hpp"

namespace dimetrodon::obs {

namespace {

// Chrome trace timestamps are microseconds; ns render exactly as .001 steps.
std::string us(sim::SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t) / 1000.0);
  return buf;
}

// Three tracks per logical core inside a machine's process group.
int running_tid(std::size_t core) { return static_cast<int>(core) * 3 + 1; }
int cstate_tid(std::size_t core) { return static_cast<int>(core) * 3 + 2; }
int inject_tid(std::size_t core) { return static_cast<int>(core) * 3 + 3; }

const char* cstate_label(std::uint64_t arg) {
  switch (arg) {
    case 0: return "C0";
    case 1: return "C1";
    case 2: return "C1E";
    default: return "C?";
  }
}

std::string meta_entry(int pid, const char* name, const std::string& args) {
  std::ostringstream os;
  os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"name\":\"" << name
     << "\",\"args\":{" << args << "}}";
  return os.str();
}

std::string thread_meta(int pid, int tid, const std::string& name, int sort) {
  std::ostringstream os;
  os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
     << json::escape(name) << "\"}},"
     << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << sort
     << "}}";
  return os.str();
}

std::string slice(int pid, int tid, const std::string& name, sim::SimTime begin,
                  sim::SimTime end, const std::string& args = "") {
  std::ostringstream os;
  os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":"
     << us(begin) << ",\"dur\":" << us(end - begin) << ",\"name\":\""
     << json::escape(name) << "\"";
  if (!args.empty()) os << ",\"args\":{" << args << "}";
  os << "}";
  return os.str();
}

std::string counter(int pid, const std::string& name, sim::SimTime at,
                    double value) {
  char val[48];
  std::snprintf(val, sizeof val, "%.6g", value);
  std::ostringstream os;
  os << "{\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << us(at)
     << ",\"name\":\"" << json::escape(name) << "\",\"args\":{\"value\":"
     << val << "}}";
  return os.str();
}

std::string instant(int pid, int tid, const std::string& name, sim::SimTime at,
                    const std::string& args = "") {
  std::ostringstream os;
  os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << us(at) << ",\"name\":\"" << json::escape(name) << "\"";
  if (!args.empty()) os << ",\"args\":{" << args << "}";
  os << "}";
  return os.str();
}

std::string thread_label(const TraceMeta& meta, std::uint32_t tid) {
  if (tid < meta.thread_names.size() && !meta.thread_names[tid].empty()) {
    return meta.thread_names[tid];
  }
  return "tid " + std::to_string(tid);
}

}  // namespace

std::vector<InjectionSpan> injected_idle_spans(
    const std::vector<TraceEvent>& events) {
  std::vector<InjectionSpan> spans;
  // Keyed by (core, victim): under suspension semantics a core can host two
  // concurrently pending injections (victim A suspended, the replacement
  // thread B injected on the same core before A's quantum expires), so the
  // core alone is not a unique handle.
  std::map<std::uint64_t, TraceEvent> open;
  const auto key = [](const TraceEvent& e) {
    return (static_cast<std::uint64_t>(e.core) << 32) | e.tid;
  };
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kInjectionBegin) {
      open[key(e)] = e;
    } else if (e.kind == EventKind::kInjectionEnd) {
      InjectionSpan s;
      s.core = e.core;
      s.tid = e.tid;
      s.end = e.at;
      auto it = open.find(key(e));
      if (it != open.end()) {
        s.begin = it->second.at;
        open.erase(it);
      } else {
        // Begin fell off the ring: recover it from the recorded duration.
        s.begin = e.at - static_cast<sim::SimTime>(e.arg);
      }
      spans.push_back(s);
    }
  }
  // A Begin with no End stays open: the registry has not accrued it either,
  // so skipping keeps the span sum equal to injected_idle_ns.
  return spans;
}

std::uint64_t summed_injection_ns(const std::vector<InjectionSpan>& spans) {
  std::uint64_t total = 0;
  for (const InjectionSpan& s : spans) {
    total += static_cast<std::uint64_t>(s.end - s.begin);
  }
  return total;
}

void ChromeTraceExporter::add_machine(const TraceMeta& meta,
                                      const std::vector<TraceEvent>& events) {
  const int pid = meta.pid;
  emit(meta_entry(pid, "process_name",
                  "\"name\":\"" + json::escape(meta.process_name) + "\""));
  for (std::size_t c = 0; c < meta.num_cores; ++c) {
    const std::string cn = "core " + std::to_string(c);
    const int base = static_cast<int>(c) * 10;
    emit(thread_meta(pid, running_tid(c), cn + " running", base + 1));
    emit(thread_meta(pid, cstate_tid(c), cn + " c-state", base + 2));
    emit(thread_meta(pid, inject_tid(c), cn + " injected idle", base + 3));
  }

  struct OpenSlice {
    sim::SimTime begin = 0;
    std::uint32_t tid = 0;
    std::uint64_t arg = 0;
    bool active = false;
  };
  std::vector<OpenSlice> running(meta.num_cores);
  std::vector<OpenSlice> idle(meta.num_cores);
  sim::SimTime last_ts = 0;

  auto close_running = [&](std::size_t c, sim::SimTime at) {
    OpenSlice& r = running[c];
    if (!r.active || c >= meta.num_cores) return;
    if (at > r.begin) {
      emit(slice(pid, running_tid(c), thread_label(meta, r.tid), r.begin, at,
                 "\"tid\":" + std::to_string(r.tid)));
    }
    r.active = false;
  };

  for (const TraceEvent& e : events) {
    if (e.at > last_ts) last_ts = e.at;
    const std::size_t c = e.core;
    switch (e.kind) {
      case EventKind::kSchedSwitch: {
        if (c >= meta.num_cores) break;
        close_running(c, e.at);
        running[c] = {e.at, e.tid, 0, true};
        break;
      }
      case EventKind::kCStateChange: {
        if (c >= meta.num_cores) break;
        const auto phase = static_cast<CStatePhase>(e.phase);
        if (phase == CStatePhase::kEnterBegin) {
          close_running(c, e.at);
          idle[c] = {e.at, e.tid, e.arg, true};
        } else if (phase == CStatePhase::kExitDone && idle[c].active) {
          emit(slice(pid, cstate_tid(c), cstate_label(idle[c].arg),
                     idle[c].begin, e.at));
          idle[c].active = false;
        }
        break;
      }
      case EventKind::kDvfsChange: {
        char args[96];
        std::snprintf(args, sizeof args, "\"level\":%llu,\"freq_ghz\":%.6g",
                      static_cast<unsigned long long>(e.arg), e.value);
        if (c < meta.num_cores) {
          emit(instant(pid, running_tid(c), "dvfs", e.at, args));
        }
        emit(counter(pid, "freq_ghz core " + std::to_string(c), e.at,
                     e.value));
        break;
      }
      case EventKind::kProchotThrottle: {
        char args[64];
        std::snprintf(args, sizeof args, "\"temp_c\":%.6g", e.value);
        emit(instant(pid, 0,
                     std::string("PROCHOT ") +
                         (e.arg != 0 ? "engage" : "release") + " phys " +
                         std::to_string(c),
                     e.at, args));
        break;
      }
      case EventKind::kSensorSample:
        emit(counter(pid, "die temp C phys " + std::to_string(c), e.at,
                     e.value));
        break;
      case EventKind::kMeterSample:
        emit(counter(pid, "package power W", e.at, e.value));
        break;
      case EventKind::kRequestComplete: {
        char args[64];
        std::snprintf(args, sizeof args, "\"latency_s\":%.6g", e.value);
        emit(instant(pid, 0, "request " + std::to_string(e.tid), e.at, args));
        break;
      }
      case EventKind::kThermalStats:
        emit(counter(
            pid,
            std::string(thermal_stat_name(
                static_cast<ThermalStatKind>(e.phase))),
            e.at, static_cast<double>(e.arg)));
        break;
      case EventKind::kRequestRouted: {
        emit(instant(pid, 0,
                     "route req " + std::to_string(e.tid) + " -> node " +
                         std::to_string(c),
                     e.at));
        break;
      }
      case EventKind::kNodeDrain: {
        char args[64];
        std::snprintf(args, sizeof args, "\"temp_c\":%.6g", e.value);
        emit(instant(pid, 0,
                     std::string("node ") + std::to_string(c) +
                         (e.arg != 0 ? " drain" : " rejoin"),
                     e.at, args));
        break;
      }
      case EventKind::kGovernorSample:
        // Two counter tracks: what the governor saw and what it asked for.
        emit(counter(pid, "governor temp C", e.at, e.value));
        emit(counter(pid, "governor duty p", e.at,
                     static_cast<double>(e.arg) * 1e-6));
        break;
      case EventKind::kGovernorTrip: {
        char args[64];
        std::snprintf(args, sizeof args, "\"temp_c\":%.6g", e.value);
        emit(instant(pid, 0,
                     std::string("governor ") +
                         (e.arg != 0 ? "trip" : "release") + " phys " +
                         std::to_string(c),
                     e.at, args));
        break;
      }
      case EventKind::kDutyChange:
        emit(counter(pid, "injection duty p", e.at, e.value));
        break;
      case EventKind::kFleetSample:
        // One batched telemetry sweep: arg = fleet size, value = hottest
        // quantized sensor anywhere in the fleet at this sample.
        emit(counter(pid, "fleet hottest sensor C", e.at, e.value));
        break;
      case EventKind::kRequestShed:
        emit(instant(pid, 0, "shed req " + std::to_string(e.tid), e.at));
        break;
      case EventKind::kNodeJoin: {
        char args[64];
        std::snprintf(args, sizeof args, "\"warmup_s\":%.6g", e.value);
        emit(instant(pid, 0,
                     std::string("node ") + std::to_string(c) +
                         (e.arg != 0 ? " join warm" : " join cold"),
                     e.at, args));
        break;
      }
      case EventKind::kScenarioDirective: {
        // core 0xffff marks a fleet-wide directive.
        const std::string target =
            c == 0xffff ? "fleet" : "node " + std::to_string(c);
        emit(instant(pid, 0,
                     "directive " + std::to_string(e.arg) + " kind " +
                         std::to_string(e.phase) + " -> " + target,
                     e.at));
        break;
      }
      case EventKind::kInjectionBegin:
      case EventKind::kInjectionEnd:
        break;  // rendered below from paired spans
    }
  }
  for (std::size_t c = 0; c < meta.num_cores; ++c) {
    close_running(c, last_ts);
    if (idle[c].active && last_ts > idle[c].begin) {
      emit(slice(pid, cstate_tid(c), cstate_label(idle[c].arg), idle[c].begin,
                 last_ts));
    }
  }

  for (const InjectionSpan& s : injected_idle_spans(events)) {
    if (s.core >= meta.num_cores || s.end <= s.begin) continue;
    emit(slice(pid, inject_tid(s.core), "injected idle", s.begin, s.end,
               "\"victim\":\"" + json::escape(thread_label(meta, s.tid)) +
                   "\""));
  }
}

void ChromeTraceExporter::write(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out << entries_[i];
    if (i + 1 < entries_.size()) out << ",";
    out << "\n";
  }
  out << "]}\n";
}

std::string ChromeTraceExporter::to_string() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void write_csv(std::ostream& out, const std::vector<TraceEvent>& events) {
  out << "time_ns,kind,phase,core,tid,arg,value\n";
  for (const TraceEvent& e : events) {
    char row[160];
    std::snprintf(row, sizeof row, "%lld,%s,%u,%u,%u,%llu,%.9g\n",
                  static_cast<long long>(e.at),
                  std::string(event_kind_name(e.kind)).c_str(),
                  static_cast<unsigned>(e.phase),
                  static_cast<unsigned>(e.core), e.tid,
                  static_cast<unsigned long long>(e.arg), e.value);
    out << row;
  }
}

}  // namespace dimetrodon::obs
