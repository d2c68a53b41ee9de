// Tests for the observability subsystem: the JSON writer/parser
// round-trip, the span tracer and its Chrome trace_event rendering, the
// SynthesisStats JSON export, and the (frozen) human summary() format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "core/stats.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "symbolic/encoding.hpp"

namespace {

using namespace stsyn;
using obs::JsonValue;
using obs::JsonWriter;
using obs::parseJson;
using obs::Span;
using obs::TraceArg;
using obs::TraceEvent;
using obs::Tracer;

/// Restores a quiet tracer after each test that touches the global one.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

// ---------------------------------------------------------------- JSON --

TEST(Json, QuoteEscapesSpecials) {
  EXPECT_EQ(obs::jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(obs::jsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::jsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::jsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(obs::jsonQuote(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
}

TEST(Json, NumberNeverEmitsNonFinite) {
  EXPECT_EQ(obs::jsonNumber(0.0), "0");
  EXPECT_EQ(obs::jsonNumber(42.0), "42");
  // NaN/Inf render as null — NOT as "0", which would be indistinguishable
  // from a genuine zero in a stats document.
  EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
  EXPECT_EQ(obs::jsonNumber(HUGE_VAL), "null");
  EXPECT_EQ(obs::jsonNumber(-HUGE_VAL), "null");
}

TEST(Json, NonFiniteValuesRoundTripAsNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.field("nan", std::nan(""));
  w.field("pos_inf", HUGE_VAL);
  w.field("neg_inf", -HUGE_VAL);
  w.field("zero", 0.0);
  w.key("mixed");
  w.beginArray();
  w.value(1.5);
  w.value(std::numeric_limits<double>::infinity());
  w.endArray();
  w.endObject();

  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err << "\n" << os.str();
  for (const char* key : {"nan", "pos_inf", "neg_inf"}) {
    const JsonValue* v = doc->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->kind, JsonValue::Kind::Null) << key;
    // Consumers that read .number from a tolerated null see 0.0 — the
    // documented JsonValue default — rather than garbage.
    EXPECT_DOUBLE_EQ(v->number, 0.0) << key;
  }
  EXPECT_EQ(doc->find("zero")->kind, JsonValue::Kind::Number);
  const JsonValue* mixed = doc->find("mixed");
  ASSERT_TRUE(mixed->isArray());
  ASSERT_EQ(mixed->items.size(), 2u);
  EXPECT_EQ(mixed->items[0].kind, JsonValue::Kind::Number);
  EXPECT_EQ(mixed->items[1].kind, JsonValue::Kind::Null);
}

TEST(Json, WriterProducesParsableDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.field("name", "token ring");
  w.field("pi", 3.5);
  w.field("n", std::int64_t{-7});
  w.field("u", std::uint64_t{18446744073709551615ull});
  w.field("flag", true);
  w.key("list");
  w.beginArray();
  w.value(1);
  w.value("two");
  w.beginObject();
  w.field("nested", false);
  w.endObject();
  w.endArray();
  w.endObject();

  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err << "\n" << os.str();
  ASSERT_TRUE(doc->isObject());
  EXPECT_EQ(doc->find("name")->str, "token ring");
  EXPECT_DOUBLE_EQ(doc->find("pi")->number, 3.5);
  EXPECT_DOUBLE_EQ(doc->find("n")->number, -7.0);
  EXPECT_EQ(doc->find("flag")->kind, JsonValue::Kind::Bool);
  EXPECT_TRUE(doc->find("flag")->boolean);
  const JsonValue* list = doc->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->isArray());
  ASSERT_EQ(list->items.size(), 3u);
  EXPECT_DOUBLE_EQ(list->items[0].number, 1.0);
  EXPECT_EQ(list->items[1].str, "two");
  EXPECT_EQ(list->items[2].find("nested")->kind, JsonValue::Kind::Bool);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(Json, RoundTripPreservesEscapedStrings) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t unicode \xC3\xA9";
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.field("s", nasty);
  w.endObject();
  const auto doc = parseJson(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->str, nasty);
}

TEST(Json, ParserAcceptsUnicodeEscapes) {
  const auto doc = parseJson("{\"s\": \"\\u0041\\u00e9\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->str, "A\xC3\xA9");
}

TEST(Json, ParserRejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parseJson("", &err).has_value());
  EXPECT_FALSE(parseJson("{", &err).has_value());
  EXPECT_FALSE(parseJson("{\"a\": 1,}", &err).has_value());
  EXPECT_FALSE(parseJson("[1, 2] trailing", &err).has_value());
  EXPECT_FALSE(parseJson("{\"a\" 1}", &err).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
  EXPECT_FALSE(parseJson("\"bad \\q escape\"", &err).has_value());
  EXPECT_FALSE(parseJson("nul", &err).has_value());
  EXPECT_FALSE(parseJson("01", &err).has_value());
  EXPECT_FALSE(parseJson(std::string_view("\"ctrl \x01\"", 8), &err)
                   .has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Json, ParserRejectsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(parseJson(deep).has_value());
  std::string ok(50, '[');
  ok += std::string(50, ']');
  EXPECT_TRUE(parseJson(ok).has_value());
}

// -------------------------------------------------------------- Tracer --

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  {
    Span s("should_not_appear", "test");
    s.arg("x", 1);
    EXPECT_FALSE(s.active());
  }
  Tracer::global().counter("c", 1.0);
  Tracer::global().instant("i");
  EXPECT_EQ(Tracer::global().eventCount(), 0u);
}

TEST_F(TracerTest, NestedSpansProduceContainedIntervals) {
  Tracer::global().enable();
  {
    Span outer("outer", "test");
    outer.arg("layer", 0);
    {
      Span inner("inner", "test");
      inner.arg("layer", 1);
      EXPECT_TRUE(inner.active());
    }
  }
  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner first, outer second.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.durNs, 0);
  EXPECT_GE(outer.durNs, inner.durNs);
  EXPECT_LE(outer.startNs, inner.startNs);
  EXPECT_GE(outer.startNs + outer.durNs, inner.startNs + inner.durNs);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].key, "layer");
  EXPECT_EQ(outer.args[0].json, "0");
}

TEST_F(TracerTest, ChromeTraceJsonIsValidAndShaped) {
  Tracer::global().enable();
  Tracer::global().setThreadName("test-main");
  {
    Span s("phase", "test");
    s.arg("count", std::size_t{42});
    s.arg("label", std::string("a \"quoted\" label"));
  }
  Tracer::global().counter("live_nodes", 123.0);
  Tracer::global().instant("milestone");

  std::string err;
  const auto doc = parseJson(Tracer::global().chromeTraceJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("displayTimeUnit")->str, "ms");
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->items.size(), 4u);

  bool sawComplete = false, sawCounter = false, sawInstant = false,
       sawMeta = false;
  for (const JsonValue& e : events->items) {
    ASSERT_TRUE(e.isObject());
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    const std::string& ph = e.find("ph")->str;
    if (ph == "X") {
      sawComplete = true;
      EXPECT_EQ(e.find("name")->str, "phase");
      EXPECT_EQ(e.find("cat")->str, "test");
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->number, 0.0);
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->find("count")->number, 42.0);
      EXPECT_EQ(args->find("label")->str, "a \"quoted\" label");
    } else if (ph == "C") {
      sawCounter = true;
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->number, 123.0);
    } else if (ph == "i") {
      sawInstant = true;
      EXPECT_EQ(e.find("name")->str, "milestone");
    } else if (ph == "M") {
      sawMeta = true;
      EXPECT_EQ(e.find("name")->str, "thread_name");
      EXPECT_EQ(e.find("args")->find("name")->str, "test-main");
    }
  }
  EXPECT_TRUE(sawComplete);
  EXPECT_TRUE(sawCounter);
  EXPECT_TRUE(sawInstant);
  EXPECT_TRUE(sawMeta);
}

TEST_F(TracerTest, ClearEmptiesTheBuffer) {
  Tracer::global().enable();
  { Span s("x", "test"); }
  EXPECT_EQ(Tracer::global().eventCount(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().eventCount(), 0u);
}

TEST_F(TracerTest, FullRingKeepsTheNewestEventsAndCountsDrops) {
  const std::size_t cap = Tracer::kCapacity;
  Tracer::global().enable();
  for (std::size_t i = 0; i < cap + 6; ++i) {
    Tracer::global().instant("e" + std::to_string(i));
  }

  EXPECT_EQ(Tracer::global().eventCount(), cap);
  EXPECT_EQ(Tracer::global().droppedCount(), 6u);
  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), cap);
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e" + std::to_string(cap + 5));

  // The rendered trace holds the same window, oldest first, and reports
  // the loss as metadata.
  std::string err;
  const auto doc = parseJson(Tracer::global().chromeTraceJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const JsonValue* meta = doc->find("otherData");
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->find("dropped_events")->number, 6.0);
  EXPECT_DOUBLE_EQ(meta->find("trace_capacity")->number,
                   static_cast<double>(cap));
  const JsonValue* rendered = doc->find("traceEvents");
  ASSERT_EQ(rendered->items.size(), cap);
  EXPECT_EQ(rendered->items.front().find("name")->str, "e6");
  EXPECT_EQ(rendered->items.back().find("name")->str,
            "e" + std::to_string(cap + 5));

  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().eventCount(), 0u);
  EXPECT_EQ(Tracer::global().droppedCount(), 0u);
}

// -------------------------------------------------- SynthesisStats JSON --

core::SynthesisStats sampleStats() {
  core::SynthesisStats s;
  s.rankingSeconds = 0.5;
  s.sccSeconds = 0.25;
  s.totalSeconds = 1.0;
  s.rankCount = 7;
  s.sccDetectionCalls = 3;
  s.sccFastPathHits = 1;
  s.sccComponentsFound = 2;
  s.sccNodesTotal = 10;
  s.sccSymbolicSteps = 20;
  s.programNodes = 1234;
  s.peakLiveNodes = 999;
  s.gcRuns = 4;
  s.cacheLookups = 100;
  s.cacheHits = 80;
  s.passCompleted = 2;
  s.imageOps = 11;
  s.preimageOps = 13;
  s.frontierSteps = 6;
  return s;
}

TEST(StatsJson, WriteJsonRoundTripsEveryField) {
  const core::SynthesisStats s = sampleStats();
  std::ostringstream os;
  JsonWriter w(os);
  s.writeJson(w);
  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err << "\n" << os.str();
  EXPECT_DOUBLE_EQ(doc->find("ranking_seconds")->number, 0.5);
  EXPECT_DOUBLE_EQ(doc->find("scc_seconds")->number, 0.25);
  EXPECT_DOUBLE_EQ(doc->find("total_seconds")->number, 1.0);
  EXPECT_DOUBLE_EQ(doc->find("rank_count")->number, 7.0);
  EXPECT_DOUBLE_EQ(doc->find("scc_detection_calls")->number, 3.0);
  EXPECT_DOUBLE_EQ(doc->find("scc_fast_path_hits")->number, 1.0);
  EXPECT_DOUBLE_EQ(doc->find("scc_components_found")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc->find("scc_nodes_total")->number, 10.0);
  EXPECT_DOUBLE_EQ(doc->find("scc_symbolic_steps")->number, 20.0);
  EXPECT_DOUBLE_EQ(doc->find("avg_scc_nodes")->number, 5.0);
  EXPECT_DOUBLE_EQ(doc->find("program_nodes")->number, 1234.0);
  EXPECT_DOUBLE_EQ(doc->find("peak_live_nodes")->number, 999.0);
  EXPECT_DOUBLE_EQ(doc->find("reorder_runs")->number, 0.0);
  EXPECT_DOUBLE_EQ(doc->find("gc_runs")->number, 4.0);
  EXPECT_DOUBLE_EQ(doc->find("cache_lookups")->number, 100.0);
  EXPECT_DOUBLE_EQ(doc->find("cache_hits")->number, 80.0);
  EXPECT_DOUBLE_EQ(doc->find("cache_hit_rate")->number, 0.8);
  EXPECT_DOUBLE_EQ(doc->find("pass_completed")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc->find("image_ops")->number, 11.0);
  EXPECT_DOUBLE_EQ(doc->find("preimage_ops")->number, 13.0);
  EXPECT_DOUBLE_EQ(doc->find("frontier_steps")->number, 6.0);
  // v3 dropped the parallel image pool's keys, v4 the image policy's, v6
  // the variable-order seed's (v7's removals are portfolio keys; see
  // Driver.PortfolioDocumentHasNoOrbitPruningKeys in test_cli).
  for (const char* removed :
       {"image_workers", "transfer_nodes", "reduce_depth", "image_policy",
        "image_part_products", "var_order"}) {
    EXPECT_EQ(doc->find(removed), nullptr) << removed;
  }
  EXPECT_EQ(core::kStatsJsonSchemaVersion, 8);
}

// The human-readable summary is consumed by eyeballs and by the existing
// CLI output; the JSON document is where new fields go. These pin the
// exact format so the observability work never drifts it.
TEST(StatsSummary, FormatIsUnchanged) {
  EXPECT_EQ(sampleStats().summary(),
            "ranking 0.500s, scc 0.250s (3 calls, 2 components), "
            "total 1.000s, M=7, program 1234 nodes, avg scc 5.0 nodes, "
            "peak 999 nodes, pass 2");
}

TEST(StatsSummary, ReorderSuffixIsUnchanged) {
  core::SynthesisStats s = sampleStats();
  s.reorderRuns = 2;
  s.reorderSeconds = 0.125;
  s.reorderNodesSaved = 50;
  EXPECT_EQ(s.summary(),
            "ranking 0.500s, scc 0.250s (3 calls, 2 components), "
            "total 1.000s, M=7, program 1234 nodes, avg scc 5.0 nodes, "
            "peak 999 nodes, pass 2, reorder 2x 0.125s (-50 nodes)");
}

// --------------------------------------------------------- end to end --

TEST_F(TracerTest, SynthesisEmitsPhaseSpans) {
  Tracer::global().enable();
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const core::StrongResult r = core::addStrongConvergence(sp);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stats.cacheLookups, 0u);
  EXPECT_GT(r.stats.cacheHits, 0u);
  EXPECT_LE(r.stats.cacheHits, r.stats.cacheLookups);

  const auto events = Tracer::global().snapshot();
  auto count = [&](const char* name) {
    std::size_t n = 0;
    for (const auto& e : events) n += e.name == name ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count("add_strong_convergence"), 1u);
  EXPECT_EQ(count("ranking"), 1u);
  EXPECT_GE(count("scc_detect"), 1u);
  EXPECT_GE(count("pass1"), 1u);
  // Add_Recovery's group selection and its C1/C4 exclusion: one selection
  // per process and rank tried, an exclusion only where it found groups.
  EXPECT_GE(count("groups_between"), 1u);
  EXPECT_GE(count("group_exclusion"), 1u);
  EXPECT_LE(count("group_exclusion"), count("groups_between"));
  // Every SCC detection reports the size of the domain it searched.
  for (const auto& e : events) {
    if (e.name != "scc_detect") continue;
    const auto cone =
        std::find_if(e.args.begin(), e.args.end(),
                     [](const TraceArg& a) { return a.key == "cone_nodes"; });
    ASSERT_NE(cone, e.args.end());
    EXPECT_GT(std::stoul(cone->json), 0u);
  }
  // The whole-synthesis span must contain the ranking span.
  const TraceEvent *whole = nullptr, *ranking = nullptr;
  for (const auto& e : events) {
    if (e.name == "add_strong_convergence") whole = &e;
    if (e.name == "ranking") ranking = &e;
  }
  ASSERT_NE(whole, nullptr);
  ASSERT_NE(ranking, nullptr);
  EXPECT_LE(whole->startNs, ranking->startNs);
  EXPECT_GE(whole->startNs + whole->durNs, ranking->startNs + ranking->durNs);
  // And the result renders as a loadable Chrome trace.
  const auto doc = parseJson(Tracer::global().chromeTraceJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_GE(doc->find("traceEvents")->items.size(), events.size());
}

/// One traced `nontrivial_sccs` span: whether it was seeded, the work
/// sets it dropped, and its `trim_to_core` children.
struct SccDetectionSpan {
  bool seeded = false;
  std::size_t dropped = 0;
  std::size_t trims = 0;
};

/// Synthesizes matching(k) under the tracer and reads back every SCC
/// detection span of the run.
std::vector<SccDetectionSpan> tracedMatchingDetections(int k) {
  Tracer::global().clear();
  Tracer::global().enable();
  const protocol::Protocol p = casestudies::matching(k);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  EXPECT_TRUE(core::addStrongConvergence(sp).success);
  Tracer::global().disable();

  const auto events = Tracer::global().snapshot();
  auto arg = [](const TraceEvent& e, const char* key) {
    const auto it =
        std::find_if(e.args.begin(), e.args.end(),
                     [&](const TraceArg& a) { return a.key == key; });
    EXPECT_NE(it, e.args.end()) << e.name << " " << key;
    return it == e.args.end() ? std::string() : it->json;
  };
  std::vector<SccDetectionSpan> out;
  for (const auto& e : events) {
    if (e.name != "nontrivial_sccs") continue;
    SccDetectionSpan d;
    d.seeded = arg(e, "seeded") == "true";
    d.dropped = std::stoul(arg(e, "dropped_worksets"));
    for (const auto& t : events) {
      if (t.name != "trim_to_core" || t.tid != e.tid ||
          t.startNs < e.startNs ||
          t.startNs + t.durNs > e.startNs + e.durNs) {
        continue;
      }
      ++d.trims;
      EXPECT_GE(std::stoul(arg(t, "rounds")), 1u);
    }
    out.push_back(d);
  }
  return out;
}

TEST_F(TracerTest, SeededSccDetectionReportsDroppedWorksets) {
  // matching(5) reaches full SCC detection in the passes. Their detections
  // are seeded with the increment's live edges and drop work sets with no
  // live edge inside; preprocessing's whole-¬I scan is not seeded, trims
  // its domain once up front and never drops a work set. A seeded search
  // trims only once a pivot has proved trivial, which no pivot of
  // matching(5) does.
  std::size_t seeded = 0;
  std::size_t dropped = 0;
  for (const SccDetectionSpan& d : tracedMatchingDetections(5)) {
    seeded += d.seeded ? 1 : 0;
    dropped += d.dropped;
    if (d.seeded) {
      EXPECT_EQ(d.trims, 0u);
    } else {
      EXPECT_EQ(d.dropped, 0u);
      EXPECT_EQ(d.trims, 1u);
    }
  }
  EXPECT_GE(seeded, 1u);
  EXPECT_GE(dropped, 1u);

  // matching(6) meets trivial pivots, and its seeded searches then trim
  // work sets on demand.
  std::size_t trimmingSeeded = 0;
  for (const SccDetectionSpan& d : tracedMatchingDetections(6)) {
    if (d.seeded) {
      trimmingSeeded += d.trims > 0 ? 1 : 0;
    } else {
      EXPECT_EQ(d.dropped, 0u);
      EXPECT_EQ(d.trims, 1u);
    }
  }
  EXPECT_GE(trimmingSeeded, 1u);
}

}  // namespace
