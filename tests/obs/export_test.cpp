#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"

namespace dimetrodon::obs {
namespace {

TraceEvent make(EventKind kind, sim::SimTime at, std::uint16_t core,
                std::uint32_t tid = 0xffffffff, std::uint64_t arg = 0,
                double value = 0.0) {
  TraceEvent e;
  e.at = at;
  e.kind = kind;
  e.core = core;
  e.tid = tid;
  e.arg = arg;
  e.value = value;
  return e;
}

TEST(InjectedIdleSpans, PairsBeginEndPerCore) {
  std::vector<TraceEvent> events = {
      make(EventKind::kInjectionBegin, 100, 0, 7, 100),
      make(EventKind::kInjectionBegin, 150, 1, 9, 150),
      make(EventKind::kInjectionEnd, 200, 0, 7, 100),
      make(EventKind::kInjectionEnd, 300, 1, 9, 150),
  };
  const auto spans = injected_idle_spans(events);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].core, 0u);
  EXPECT_EQ(spans[0].begin, 100);
  EXPECT_EQ(spans[0].end, 200);
  EXPECT_EQ(spans[1].core, 1u);
  EXPECT_EQ(spans[1].tid, 9u);
  EXPECT_EQ(summed_injection_ns(spans), 250u);
}

TEST(InjectedIdleSpans, RecoversEndWhoseBeginWasOverwritten) {
  // Ring overwrote the Begin: the End carries the actual duration in arg.
  std::vector<TraceEvent> events = {
      make(EventKind::kInjectionEnd, 500, 0, 3, 50),
  };
  const auto spans = injected_idle_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, 450);
  EXPECT_EQ(spans[0].end, 500);
  EXPECT_EQ(summed_injection_ns(spans), 50u);
}

TEST(InjectedIdleSpans, HandlesOverlappingInjectionsOnOneCore) {
  // Suspension semantics: victim 1 is descheduled, the replacement thread 2
  // is injected on the same core before victim 1's quantum expires. The two
  // pending injections share a core but not a victim.
  std::vector<TraceEvent> events = {
      make(EventKind::kInjectionBegin, 0, 0, 1, 1000),
      make(EventKind::kInjectionBegin, 400, 0, 2, 1000),
      make(EventKind::kInjectionEnd, 1000, 0, 1, 1000),
      make(EventKind::kInjectionEnd, 1400, 0, 2, 1000),
  };
  const auto spans = injected_idle_spans(events);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, 1u);
  EXPECT_EQ(spans[0].begin, 0);
  EXPECT_EQ(spans[0].end, 1000);
  EXPECT_EQ(spans[1].tid, 2u);
  EXPECT_EQ(spans[1].begin, 400);
  EXPECT_EQ(summed_injection_ns(spans), 2000u);
}

TEST(InjectedIdleSpans, SkipsUnclosedBegin) {
  // Trace stopped mid-quantum: no End ever accrued in the counter registry,
  // so the span must not count either.
  std::vector<TraceEvent> events = {
      make(EventKind::kInjectionBegin, 100, 0, 3, 1000),
      make(EventKind::kInjectionEnd, 200, 0, 3, 100),
      make(EventKind::kInjectionBegin, 600, 0, 3, 1000),
  };
  const auto spans = injected_idle_spans(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(summed_injection_ns(spans), 100u);
}

TEST(ChromeTraceExporter, EmitsValidJsonWithTracks) {
  TraceMeta meta;
  meta.process_name = "unit \"quoted\" \\ name";  // must be escaped
  meta.pid = 1;
  meta.num_cores = 2;
  meta.thread_names = {"burn-0", "burn-1"};

  std::vector<TraceEvent> events = {
      make(EventKind::kSchedSwitch, 0, 0, 0),
      make(EventKind::kCStateChange, 1000, 1, 0xffffffff, 2),  // enter C1E
      make(EventKind::kInjectionBegin, 2000, 0, 1, 500),
      make(EventKind::kInjectionEnd, 2500, 0, 1, 500),
      make(EventKind::kDvfsChange, 3000, 0, 0xffffffff, 2, 2.13),
      make(EventKind::kProchotThrottle, 4000, 0, 0xffffffff, 1, 86.5),
      make(EventKind::kSensorSample, 5000, 0, 0xffffffff, 0, 61.0),
      make(EventKind::kMeterSample, 6000, 0, 0xffffffff, 0, 154.2),
      make(EventKind::kRequestComplete, 7000, 0, 42, 0, 0.0031),
  };
  events[1].phase = 0;  // kEnterBegin

  ChromeTraceExporter exporter;
  exporter.add_machine(meta, events);
  const std::string json = exporter.to_string();

  const auto parsed = json::validate(json);
  EXPECT_TRUE(parsed.ok) << parsed.error << " at byte " << parsed.error_pos;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("injected idle"), std::string::npos);
  EXPECT_NE(json.find("burn-1"), std::string::npos);
}

TEST(ChromeTraceExporter, EmptyTraceIsStillValid) {
  ChromeTraceExporter exporter;
  const auto parsed = json::validate(exporter.to_string());
  EXPECT_TRUE(parsed.ok) << parsed.error;
}

TEST(CsvExport, HeaderAndOneLinePerEvent) {
  std::vector<TraceEvent> events = {
      make(EventKind::kSchedSwitch, 10, 0, 5),
      make(EventKind::kMeterSample, 20, 0, 0xffffffff, 0, 100.5),
  };
  std::ostringstream out;
  write_csv(out, events);
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("time_ns,kind,phase,core,tid,arg,value\n", 0), 0u);
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_NE(csv.find("sched_switch"), std::string::npos);
  EXPECT_NE(csv.find("meter_sample"), std::string::npos);
}

/// The smallest event sequence that makes `kind` visible in a Chrome trace:
/// running and C-state slices render when they close, and an injection
/// Begin renders as half of its paired span.
std::vector<TraceEvent> minimal_sequence(EventKind kind) {
  TraceEvent e = make(kind, 1000, 0, 4, 1, 42.0);
  switch (kind) {
    case EventKind::kSchedSwitch:
      return {e, make(EventKind::kSchedSwitch, 2000, 0, 5)};
    case EventKind::kCStateChange: {
      e.phase = static_cast<std::uint8_t>(CStatePhase::kEnterBegin);
      TraceEvent exit = make(EventKind::kCStateChange, 2000, 0, 4, 1);
      exit.phase = static_cast<std::uint8_t>(CStatePhase::kExitDone);
      return {e, exit};
    }
    case EventKind::kInjectionBegin:
      return {e, make(EventKind::kInjectionEnd, 2000, 0, 4, 1000)};
    default:
      return {e};
  }
}

/// Trace entries other than the "ph":"M" metadata records.
std::size_t data_entries(const std::string& json) {
  std::size_t entries = 0;
  for (std::size_t pos = json.find("{\"ph\":\""); pos != std::string::npos;
       pos = json.find("{\"ph\":\"", pos + 1)) {
    if (json.compare(pos + 7, 1, "M") != 0) ++entries;
  }
  return entries;
}

TEST(ExportCompleteness, EveryEventKindReachesChromeAndCsv) {
  // kLastEventKind must really be last: the next value has no name.
  EXPECT_EQ(event_kind_name(static_cast<EventKind>(
                static_cast<int>(kLastEventKind) + 1)),
            "unknown");
  TraceMeta meta;
  meta.process_name = "all kinds";
  meta.pid = 1;
  meta.num_cores = 1;
  for (int k = 0; k <= static_cast<int>(kLastEventKind); ++k) {
    const auto kind = static_cast<EventKind>(k);
    const std::string name(event_kind_name(kind));
    ASSERT_NE(name, "unknown") << "kind " << k;

    ChromeTraceExporter exporter;
    exporter.add_machine(meta, minimal_sequence(kind));
    const std::string json = exporter.to_string();
    EXPECT_TRUE(json::validate(json).ok) << name;
    EXPECT_GT(data_entries(json), 0u) << name << " dropped by Chrome export";

    std::ostringstream csv;
    write_csv(csv, {make(kind, 1000, 0)});
    EXPECT_NE(csv.str().find("," + name + ","), std::string::npos)
        << name << " missing from CSV export";
  }
}

TEST(JsonValidator, AcceptsRfc8259Documents) {
  EXPECT_TRUE(json::validate("{}").ok);
  EXPECT_TRUE(json::validate("[1, 2.5, -3e4, \"x\\n\\u0041\", true, null]").ok);
  EXPECT_TRUE(json::validate("{\"a\": {\"b\": []}}").ok);
}

TEST(JsonValidator, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::validate("").ok);
  EXPECT_FALSE(json::validate("{\"a\": 1,}").ok);   // trailing comma
  EXPECT_FALSE(json::validate("[1 2]").ok);          // missing comma
  EXPECT_FALSE(json::validate("{'a': 1}").ok);       // single quotes
  EXPECT_FALSE(json::validate("\"unterminated").ok);
  EXPECT_FALSE(json::validate("[1] trailing").ok);
  EXPECT_FALSE(json::validate("[NaN]").ok);          // not JSON
}

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  const std::string escaped = json::escape("a\"b\\c\nd\te");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\te");
  std::string doc = "\"";
  doc += json::escape(std::string("\x01 ok"));
  doc += "\"";
  EXPECT_TRUE(json::validate(doc).ok);
}

}  // namespace
}  // namespace dimetrodon::obs
