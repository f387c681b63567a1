// Flight recorder: ring and interner invariants, the TVSF binary format,
// exporters on hostile inputs (aborted-epoch-only traces, sessions shed
// while still Queued, out-of-range name ids), full-run captures that must
// agree with the runtime's own counters, the DOT and timeline exporters,
// and the serving layer's automatic post-mortem path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "flight/export.h"
#include "flight/interner.h"
#include "flight/observer.h"
#include "flight/record.h"
#include "flight/recorder.h"
#include "flight/ring.h"
#include "pipeline/driver.h"
#include "pipeline/run_config.h"
#include "serve/session_manager.h"
#include "sim/sim_executor.h"
#include "sre/runtime.h"
#include "stress/chaos_schedule.h"
#include "support/json_lite.h"

namespace {

flight::Record make_record(flight::Kind kind, std::uint64_t t_us = 0,
                           std::uint64_t stream = 0, std::uint64_t task = 0,
                           std::uint32_t epoch = 0, std::uint32_t name = 0) {
  flight::Record r;
  r.kind = kind;
  r.t_us = t_us;
  r.stream = stream;
  r.task = task;
  r.epoch = epoch;
  r.name = name;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::string fresh_dir(const std::string& leaf) {
  const auto dir = std::filesystem::temp_directory_path() / "tvs_flight_test" /
                   leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A full sim run captured by a started recorder at default Options.
struct Capture {
  pipeline::RunResult result;
  std::vector<flight::Record> records;
  std::vector<std::string> names;
};

Capture capture_sim(const pipeline::RunConfig& cfg) {
  flight::Recorder rec;
  rec.start();
  pipeline::RunOptions opt;
  opt.flight = &rec;
  Capture c;
  c.result = pipeline::run_sim(cfg, opt);
  c.records = rec.snapshot();
  c.names = rec.interner().names();
  EXPECT_EQ(rec.dropped(), 0u) << "a pipeline-sized capture must be complete";
  return c;
}

pipeline::RunConfig txt_config(std::size_t bytes) {
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::Balanced);
  cfg.bytes = bytes;
  return cfg;
}

std::size_t count_kind(const std::vector<flight::Record>& records,
                       flight::Kind kind) {
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [kind](const flight::Record& r) { return r.kind == kind; }));
}

/// Engine time of the last completion with an execution interval.
std::uint64_t end_time_us(const std::vector<flight::TaskSpan>& tasks) {
  std::uint64_t end = 0;
  for (const auto& t : tasks) {
    if (t.ran()) end = std::max(end, t.finish_us);
  }
  return end;
}

// --- Record -----------------------------------------------------------------

/// Kind values an older writer emitted and this one no longer does; dumps
/// may still hold them, so their numbers stay unused.
const std::set<std::uint16_t> kRetiredKinds = {9, 10, 11};

TEST(FlightRecord, EveryKindHasADistinctName) {
  const auto last = static_cast<std::uint16_t>(flight::Kind::Edge);
  std::set<std::string> seen;
  for (std::uint16_t k = 0; k <= last; ++k) {
    const std::string name = flight::kind_name(static_cast<flight::Kind>(k));
    if (kRetiredKinds.contains(k)) {
      EXPECT_EQ(name, "?") << "retired kind " << k << " still has a name";
      continue;
    }
    EXPECT_NE(name, "?") << "kind " << k << " has no name";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(flight::kind_name(static_cast<flight::Kind>(last + 1)), "?");
}

// --- Ring -------------------------------------------------------------------

TEST(FlightRing, RoundTripsRecordsInOrder) {
  flight::Ring ring(8);
  EXPECT_TRUE(ring.empty());
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.push(make_record(flight::Kind::TaskCreated, i, 0, i)));
  }
  std::vector<flight::Record> out;
  EXPECT_EQ(ring.pop_into(out, 100), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].task, i);
  EXPECT_TRUE(ring.empty());
}

TEST(FlightRing, DropsWhenFullNeverBlocks) {
  flight::Ring ring(4);  // rounds to capacity 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.push(make_record(flight::Kind::None)));
  }
  EXPECT_FALSE(ring.push(make_record(flight::Kind::None)));
  std::vector<flight::Record> out;
  EXPECT_EQ(ring.pop_into(out, 2), 2u);  // partial drain frees space
  EXPECT_TRUE(ring.push(make_record(flight::Kind::None)));
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(flight::Ring(0).capacity(), 2u);
  EXPECT_EQ(flight::Ring(3).capacity(), 4u);
  EXPECT_EQ(flight::Ring(8).capacity(), 8u);
  EXPECT_EQ(flight::Ring(9).capacity(), 16u);
}

// --- Interner ---------------------------------------------------------------

TEST(FlightInterner, DistinctNamesNeverShareIds) {
  flight::NameInterner interner;
  // Names engineered to be collision-prone in weak hash schemes: shared
  // prefixes, permutations, embedded NULs' neighbors.
  const std::vector<std::string> names = {
      "count",  "count[0]",  "count[1]",  "tnuoc",    "encode",
      "encodE", "en" "code", "x",         "xx",       "xxx",
      "",       " ",         "predictor", "predictor:last_value"};
  std::set<std::uint32_t> ids;
  for (const auto& n : names) ids.insert(interner.intern(n));
  EXPECT_EQ(ids.size(), names.size() - 1);  // "" is the pre-seeded id 0
  // Round-trip and stability: re-interning returns the same id.
  for (const auto& n : names) {
    const auto id = interner.intern(n);
    EXPECT_EQ(interner.name(id), n);
    EXPECT_EQ(interner.intern(n), id);
  }
  EXPECT_EQ(interner.intern(""), 0u);
}

// --- TVSF binary format -----------------------------------------------------

TEST(FlightBinary, RoundTripsRecordsAndNames) {
  std::vector<flight::Record> records;
  records.push_back(make_record(flight::Kind::TaskCreated, 10, 1, 7, 0, 2));
  records.push_back(make_record(flight::Kind::EpochAborted, 20, 0, 0, 3));
  records.back().flags = flight::kFlagAborted;
  const std::vector<std::string> names = {"", "count", "encode"};

  const std::string bytes = flight::write_binary(records, names);
  const flight::Dump dump = flight::read_binary(bytes);
  EXPECT_EQ(dump.names, names);
  ASSERT_EQ(dump.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(dump.records[i].kind, records[i].kind);
    EXPECT_EQ(dump.records[i].t_us, records[i].t_us);
    EXPECT_EQ(dump.records[i].task, records[i].task);
    EXPECT_EQ(dump.records[i].flags, records[i].flags);
  }
}

TEST(FlightBinary, EveryTruncationThrowsInsteadOfCrashing) {
  const std::string bytes = flight::write_binary(
      {make_record(flight::Kind::TaskCreated, 1)}, {"", "a-name"});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)flight::read_binary(bytes.substr(0, cut)),
                 std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_NO_THROW((void)flight::read_binary(bytes));
}

TEST(FlightBinary, RejectsBadMagicAndTrailingGarbage) {
  std::string bytes = flight::write_binary({}, {""});
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_THROW((void)flight::read_binary(corrupt), std::runtime_error);
  EXPECT_THROW((void)flight::read_binary(bytes + "junk"), std::runtime_error);
}

// --- Chrome exporter on hostile inputs --------------------------------------

TEST(FlightChrome, EmptyWindowIsValidJson) {
  const std::string json = flight::to_chrome_trace({}, {});
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
}

TEST(FlightChrome, AbortedEpochOnlyTraceIsValid) {
  // A window that caught only the tail of a rollback: epoch records with no
  // task ever seen. The exporter must synthesize something sensible.
  std::vector<flight::Record> records;
  records.push_back(make_record(flight::Kind::EpochAborted, 50, 0, 0, 9));
  records.push_back(make_record(flight::Kind::RollbackCascade, 0, 0, 0, 9));
  records.back().a = 4;
  const std::string json = flight::to_chrome_trace(records, {""});
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_NE(json.find("epoch"), std::string::npos);
}

TEST(FlightChrome, ShedWhileQueuedSessionHasZeroSpansButValidOutput) {
  // A session shed before admission has exactly two lifecycle edges and no
  // task, epoch or attribution records at all.
  std::vector<flight::Record> records;
  records.push_back(
      make_record(flight::Kind::SessionState, 100, 42, 0, 0, 1));
  records.push_back(
      make_record(flight::Kind::SessionState, 200, 42, 0, 0, 2));
  flight::PostMortemInfo info;
  info.session = 42;
  info.reason = "shed: queue_full";
  const std::string json =
      flight::to_chrome_trace(records, {"", "Queued", "Shed"}, &info);
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_NE(json.find("queue_full"), std::string::npos);
}

TEST(FlightChrome, OutOfRangeNameIdsAndHostileStringsStayValid) {
  std::vector<flight::Record> records;
  records.push_back(make_record(flight::Kind::TaskCreated, 5, 1, 1, 0,
                                /*name=*/9999));  // beyond the name table
  records.push_back(make_record(flight::Kind::SessionState, 6, 0, 0, 0,
                                /*name=*/1));
  // A task that ran under a hostile name, so the span path escapes it too.
  records.push_back(make_record(flight::Kind::TaskCreated, 7, 1, 2, 0,
                                /*name=*/2));
  records.push_back(make_record(flight::Kind::TaskDispatched, 8, 0, 2));
  records.push_back(make_record(flight::Kind::TaskFinished, 9, 0, 2));
  // A task whose finish precedes its dispatch, as a corrupt dump may hold.
  records.push_back(make_record(flight::Kind::TaskDispatched, 50, 0, 3));
  records.back().cpu = 3;
  records.push_back(make_record(flight::Kind::TaskFinished, 4, 0, 3));
  // Names with every JSON-hostile byte class: quotes, backslashes, control
  // characters, non-ASCII.
  const std::vector<std::string> names = {
      "", "we\"ird\\na\x01me\xc3\xa9",
      "evil\"name\\with\nnewline\tand\x01ctl"};
  const std::string json = flight::to_chrome_trace(records, names);
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_NE(json.find("state:we"), std::string::npos)
      << "the hostile-named session state is missing";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "the hostile-named task's span is missing";
  EXPECT_NE(flight::utilization_timeline(records).find("cpu 3"),
            std::string::npos);
  EXPECT_NE(flight::to_dot(records, names).find("t3 [label="),
            std::string::npos);
}

// --- Full-run captures ------------------------------------------------------

TEST(FlightTrace, CapturesASimpleRun) {
  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  flight::Recorder rec;
  flight::FlightObserver obs(rec);
  rt.set_observer(&obs);
  sim::SimExecutor ex(rt, sim::PlatformConfig::x86(2));

  auto a = rt.make_task("a", sre::TaskClass::Natural, 0, 1, 100,
                        [](sre::TaskContext&) {});
  auto b = rt.make_task("b", sre::TaskClass::Natural, 0, 2, 50,
                        [](sre::TaskContext&) {});
  rt.add_dependency(a, b);
  rt.submit(a);
  rt.submit(b);
  ex.run();

  const auto records = rec.snapshot();
  const auto tasks = flight::task_spans(records);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(rec.interner().name(tasks[0].name), "a");
  EXPECT_EQ(tasks[0].task, a->id());
  for (const auto& t : tasks) {
    EXPECT_TRUE(t.ran());
    EXPECT_FALSE(t.aborted);
  }
  EXPECT_EQ(tasks[0].dispatch_us, 0u);
  EXPECT_EQ(tasks[0].finish_us, 100u);
  EXPECT_EQ(tasks[1].dispatch_us, 100u);
  EXPECT_EQ(tasks[1].finish_us, 150u);
  ASSERT_EQ(count_kind(records, flight::Kind::Edge), 1u);
  for (const auto& r : records) {
    if (r.kind != flight::Kind::Edge) continue;
    EXPECT_EQ(r.a, a->id()) << "producer";
    EXPECT_EQ(r.task, b->id()) << "consumer";
  }
  EXPECT_EQ(end_time_us(tasks), 150u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightTrace, TracksEpochLifecycles) {
  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  flight::Recorder rec;
  flight::FlightObserver obs(rec);
  rt.set_observer(&obs);
  const auto e1 = rt.open_epoch();
  const auto e2 = rt.open_epoch();
  rt.abort_epoch(e1);
  rt.mark_epoch_committed(e2);

  std::multiset<std::uint32_t> opened, aborted, committed;
  for (const auto& r : rec.snapshot()) {
    if (r.kind == flight::Kind::EpochOpened) opened.insert(r.epoch);
    if (r.kind == flight::Kind::EpochAborted) aborted.insert(r.epoch);
    if (r.kind == flight::Kind::EpochCommitted) committed.insert(r.epoch);
  }
  EXPECT_EQ(opened, (std::multiset<std::uint32_t>{e1, e2}));
  EXPECT_EQ(aborted, (std::multiset<std::uint32_t>{e1}));
  EXPECT_EQ(committed, (std::multiset<std::uint32_t>{e2}));
}

TEST(FlightTrace, FullPipelineRunIsConsistentWithCounters) {
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Bmp,
                                           sre::DispatchPolicy::Balanced);
  cfg.bytes = 2048 * 1024;  // rollback scenario
  const Capture c = capture_sim(cfg);
  const auto tasks = flight::task_spans(c.records);
  const auto executed = std::count_if(
      tasks.begin(), tasks.end(),
      [](const flight::TaskSpan& t) { return t.ran() && !t.aborted; });
  const auto aborted =
      std::count_if(tasks.begin(), tasks.end(),
                    [](const flight::TaskSpan& t) { return t.aborted; });
  EXPECT_EQ(static_cast<std::uint64_t>(executed),
            c.result.counters.tasks_executed);
  EXPECT_EQ(static_cast<std::uint64_t>(aborted),
            c.result.counters.tasks_aborted);
  EXPECT_EQ(end_time_us(tasks), c.result.makespan_us);
  EXPECT_GE(count_kind(c.records, flight::Kind::EpochOpened), 1u);
  // Exactly one epoch resolves the run as committed.
  EXPECT_EQ(count_kind(c.records, flight::Kind::EpochCommitted),
            c.result.spec_committed ? 1u : 0u);
}

TEST(FlightChrome, PipelineTraceIsWellFormedJson) {
  const Capture c = capture_sim(txt_config(128 * 1024));
  const auto json = flight::to_chrome_trace(c.records, c.names);
  EXPECT_TRUE(json_lite::valid(json))
      << "chrome trace is not valid JSON; first bad byte at offset "
      << json_lite::error_at(json);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"count\""), std::string::npos)
      << "task spans are named by their interned stem";
}

// A hostile task name taken end to end: runtime -> observer -> interner ->
// Chrome exporter, rather than a hand-built name table.
TEST(Exporters, ChromeTraceEscapesHostileTaskNames) {
  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  flight::Recorder rec;
  flight::FlightObserver obs(rec);
  rt.set_observer(&obs);
  sim::SimExecutor ex(rt, sim::PlatformConfig::x86(1));
  auto t = rt.make_task("evil\"name\\with\nnewline\tand\x01ctl",
                        sre::TaskClass::Natural, 0, 1, 10,
                        [](sre::TaskContext&) {});
  rt.submit(t);
  ex.run();
  const auto json =
      flight::to_chrome_trace(rec.snapshot(), rec.interner().names());
  EXPECT_TRUE(json_lite::valid(json))
      << "first bad byte at offset " << json_lite::error_at(json);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "the hostile-named task's span is missing";
  EXPECT_EQ(rec.dropped(), 0u);
}

// --- DOT and timeline exporters ---------------------------------------------

TEST(FlightDot, DrawsEdgesInThePapersNotation) {
  // 256 KiB: at least two reduces, so speculative tasks exist.
  const Capture c = capture_sim(txt_config(256 * 1024));
  const auto dot = flight::to_dot(c.records, c.names);
  EXPECT_NE(dot.find("digraph dfg"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos)
      << "speculative tasks are drawn dashed, as in the paper's figures";
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos)
      << "check tasks are diamonds, as in the paper's figures";
}

TEST(FlightDot, RespectsTaskCap) {
  const Capture c = capture_sim(txt_config(256 * 1024));
  const std::size_t created = count_kind(c.records, flight::Kind::TaskCreated);
  ASSERT_GT(created, 10u);
  const auto small = flight::to_dot(c.records, c.names, 10);
  const auto full = flight::to_dot(c.records, c.names, 0);
  EXPECT_LT(small.size(), full.size());

  // Exactly max_tasks node definitions survive the cap; the full dump has
  // one per recorded task.
  const auto count_nodes = [](const std::string& dot) {
    std::size_t n = 0;
    for (std::size_t p = dot.find("[label="); p != std::string::npos;
         p = dot.find("[label=", p + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_nodes(small), 10u);
  EXPECT_EQ(count_nodes(full), created);
}

TEST(FlightTimeline, ShowsSpeculationAndIdle) {
  auto cfg = txt_config(256 * 1024);
  cfg.platform = sim::PlatformConfig::x86(4);
  const Capture c = capture_sim(cfg);
  const auto timeline = flight::utilization_timeline(c.records, 80);
  EXPECT_NE(timeline.find("cpu 0"), std::string::npos);
  EXPECT_NE(timeline.find("cpu 3"), std::string::npos);
  // Look only inside the per-CPU bars, not the header or legend.
  std::string bars;
  std::istringstream lines(timeline);
  for (std::string line; std::getline(lines, line);) {
    const auto open = line.find('|');
    if (line.rfind("  cpu", 0) == 0 && open != std::string::npos) {
      bars += line.substr(open);
    }
  }
  EXPECT_NE(bars.find('s'), std::string::npos) << "speculative slices";
  EXPECT_NE(bars.find('#'), std::string::npos) << "natural slices";
  EXPECT_NE(bars.find('.'), std::string::npos) << "idle slices";
}

TEST(FlightExport, EmptyCaptureDegradesGracefully) {
  EXPECT_EQ(flight::utilization_timeline({}), "(no executed tasks)\n");
  EXPECT_NE(flight::to_dot({}, {}).find("digraph"), std::string::npos);
  const auto json = flight::to_chrome_trace({}, {});
  EXPECT_TRUE(json_lite::valid(json));
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

// Regression: an observed-but-never-executed run (tasks created, nothing
// dispatched — zero end time) must not divide by zero or emit malformed
// artifacts.
TEST(FlightExport, CreatedButNeverExecutedRunDegradesGracefully) {
  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  flight::Recorder rec;
  flight::FlightObserver obs(rec);
  rt.set_observer(&obs);
  // Created + blocked forever (producer never submitted), so nothing runs.
  auto producer = rt.make_task("p", sre::TaskClass::Natural, 0, 1, 10,
                               [](sre::TaskContext&) {});
  auto consumer = rt.make_task("c", sre::TaskClass::Natural, 0, 1, 10,
                               [](sre::TaskContext&) {});
  rt.add_dependency(producer, consumer);
  rt.submit(consumer);

  const auto records = rec.snapshot();
  const auto names = rec.interner().names();
  const auto tasks = flight::task_spans(records);
  EXPECT_EQ(tasks.size(), 2u);
  EXPECT_EQ(end_time_us(tasks), 0u);
  EXPECT_EQ(flight::utilization_timeline(records), "(no executed tasks)\n");
  const auto json = flight::to_chrome_trace(records, names);
  EXPECT_TRUE(json_lite::valid(json));
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  const auto dot = flight::to_dot(records, names);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t" + std::to_string(producer->id()) + " -> t" +
                     std::to_string(consumer->id())),
            std::string::npos);
}

// --- Causal slice -----------------------------------------------------------

TEST(FlightSlice, SessionZeroAndUnknownSessionsYieldEmptySlices) {
  std::vector<flight::Record> window;
  window.push_back(make_record(flight::Kind::TaskCreated, 1, 7, 1));
  EXPECT_TRUE(flight::session_slice(window, 0).empty());
  EXPECT_TRUE(flight::session_slice(window, 12345).empty());
}

TEST(FlightSlice, PullsEpochAndTaskClosureForTheSession) {
  std::vector<flight::Record> window;
  // Session 7's task in epoch 3, plus the epoch lifecycle and a foreign
  // session's task in another epoch.
  window.push_back(make_record(flight::Kind::TaskCreated, 10, 7, 1, 3));
  window.push_back(make_record(flight::Kind::TaskDispatched, 11, 0, 1));
  window.push_back(make_record(flight::Kind::Edge, 11, 0, /*consumer=*/1));
  window.push_back(make_record(flight::Kind::EpochAborted, 12, 0, 0, 3));
  window.push_back(make_record(flight::Kind::TaskCreated, 10, 8, 2, 4));
  window.push_back(make_record(flight::Kind::EpochCommitted, 12, 0, 0, 4));
  window.push_back(make_record(flight::Kind::SessionState, 14, 7, 0, 0, 2));

  const auto slice = flight::session_slice(window, 7);
  std::multiset<flight::Kind> kinds;
  for (const auto& r : slice) {
    kinds.insert(r.kind);
    EXPECT_TRUE(r.stream != 8) << "foreign session leaked into the slice";
    EXPECT_TRUE(r.epoch != 4) << "foreign epoch leaked into the slice";
  }
  EXPECT_EQ(kinds.count(flight::Kind::TaskCreated), 1u);
  EXPECT_EQ(kinds.count(flight::Kind::TaskDispatched), 1u);
  EXPECT_EQ(kinds.count(flight::Kind::Edge), 1u)
      << "edges join the slice through their consumer task";
  EXPECT_EQ(kinds.count(flight::Kind::EpochAborted), 1u);
  EXPECT_EQ(kinds.count(flight::Kind::SessionState), 1u);
}

TEST(FlightSlice, RetiredKindsFromAnOlderDumpAreSkipped) {
  // Session 7's task beside the engine-wide records an older writer
  // emitted under the retired kind 10 (a named, stream-less instant).
  std::vector<flight::Record> window;
  window.push_back(make_record(flight::Kind::TaskCreated, 10, 7, 1, 3, 1));
  window.push_back(make_record(flight::Kind::TaskDispatched, 11, 0, 1));
  window.push_back(make_record(flight::Kind::TaskFinished, 12, 0, 1));
  for (std::uint64_t t : {13, 14}) {
    window.push_back(make_record(static_cast<flight::Kind>(10), t, 0, 0, 0, 2));
  }
  const std::vector<std::string> names = {"", "encode", "last-value"};

  // The dump still loads, retired records and all.
  const auto dump = flight::read_binary(flight::write_binary(window, names));
  ASSERT_EQ(dump.records.size(), window.size());

  const std::string json = flight::to_chrome_trace(dump.records, dump.names);
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_EQ(json.find("last-value"), std::string::npos)
      << "a retired record was rendered";

  const auto slice = flight::session_slice(dump.records, 7);
  EXPECT_EQ(slice.size(), 3u) << "the task's lifecycle, nothing else";
  for (const auto& r : slice) {
    EXPECT_FALSE(kRetiredKinds.contains(static_cast<std::uint16_t>(r.kind)))
        << "retired kind " << static_cast<int>(r.kind) << " in the slice";
  }
  const std::string sliced = flight::to_chrome_trace(slice, dump.names);
  EXPECT_TRUE(json_lite::valid(sliced)) << "bad byte at "
                                        << json_lite::error_at(sliced);
}

TEST(FlightSlice, TimeBoundDropsOldRecordsButKeepsClockless) {
  std::vector<flight::Record> window;
  window.push_back(make_record(flight::Kind::TaskDispatched, 100, 7, 1));
  window.push_back(make_record(flight::Kind::TaskDispatched, 5'000'100, 7, 2));
  window.push_back(make_record(flight::Kind::TaskCreated, 0, 7, 3));
  const auto slice = flight::session_slice(window, 7, /*last_window_us=*/1000);
  std::multiset<std::uint64_t> times;
  for (const auto& r : slice) times.insert(r.t_us);
  EXPECT_EQ(times.count(100), 0u) << "record older than the window survived";
  EXPECT_EQ(times.count(5'000'100), 1u);
  EXPECT_EQ(times.count(0), 1u) << "clock-less record must always survive";
}

// --- Recorder ---------------------------------------------------------------

TEST(FlightRecorder, EmitSnapshotAndWindowEviction) {
  flight::Recorder::Options opts;
  opts.ring_capacity = 64;
  opts.window_max_records = 16;
  flight::Recorder rec(opts);
  rec.start();
  for (std::uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(rec.emit(make_record(flight::Kind::TaskCreated, i + 1, 0, i)));
  }
  const auto window = rec.snapshot();
  EXPECT_LE(window.size(), 16u);
  ASSERT_FALSE(window.empty());
  // Eviction is from the front: the newest records survive.
  EXPECT_EQ(window.back().task, 39u);
  rec.stop();
}

TEST(FlightRecorder, FullRingDropsAndCounts) {
  flight::Recorder::Options opts;
  opts.ring_capacity = 4;
  flight::Recorder rec(opts);  // never started: nothing drains the ring
  for (int i = 0; i < 10; ++i) {
    rec.emit(make_record(flight::Kind::None));
  }
  EXPECT_GT(rec.dropped(), 0u);
  EXPECT_LE(rec.snapshot().size(), 4u);
}

TEST(FlightRecorder, PostMortemDisabledWithoutDirEnabledWithIt) {
  flight::Recorder off;
  EXPECT_EQ(off.write_post_mortem(1, "failed: x", {}), "");

  const std::string dir = fresh_dir("pm_unit");
  flight::Recorder::Options opts;
  opts.post_mortem_dir = dir;
  flight::Recorder rec(opts);
  rec.emit(make_record(flight::Kind::SessionState, 10, 3, 0, 0,
                       rec.intern("Failed")));
  const std::string path = rec.write_post_mortem(
      3, "failed: synthetic", {{"queue", 12}, {"compute", 34}});
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(std::filesystem::exists(path));
  const std::string json = slurp(path);
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_NE(json.find("failed: synthetic"), std::string::npos);
  EXPECT_NE(json.find("queue"), std::string::npos);
}

// --- Serving layer end to end -----------------------------------------------

serve::SessionConfig tiny_session(const char* name, double tolerance) {
  serve::SessionConfig sc;
  sc.name = name;
  sc.run = pipeline::RunConfig::x86_disk(wl::FileKind::Bmp,
                                         sre::DispatchPolicy::Balanced);
  sc.run.bytes = 128 * 1024;
  sc.run.spec.tolerance = tolerance;
  return sc;
}

TEST(FlightServe, DoneSessionGetsAttributionBreakdown) {
  flight::Recorder rec;
  rec.start();
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_concurrent = 2;
  cfg.flight = &rec;
  serve::SessionManager mgr(cfg);

  const auto out = mgr.submit(tiny_session("attr", /*tolerance=*/1e9));
  ASSERT_TRUE(out.accepted);
  ASSERT_NE(mgr.wait(out.id), nullptr);
  const auto st = mgr.stats(out.id);
  EXPECT_EQ(st.state, serve::SessionState::Done);
  EXPECT_GT(st.attribution.compute_us, 0u);
  mgr.drain();

  // The recorder saw the full lifecycle: session edges, tasks, attribution.
  const auto window = rec.snapshot();
  bool saw_state = false, saw_attr = false, saw_task = false;
  for (const auto& r : window) {
    saw_state |= r.kind == flight::Kind::SessionState && r.stream == out.id;
    saw_attr |= r.kind == flight::Kind::Attribution && r.stream == out.id;
    saw_task |= r.kind == flight::Kind::TaskCreated && r.stream == out.id;
  }
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_attr);
  EXPECT_TRUE(saw_task);
}

TEST(FlightServe, ForcedFailureWritesPostMortemBesideARollingNeighbor) {
  const std::string dir = fresh_dir("pm_serve");
  flight::Recorder::Options fopts;
  fopts.post_mortem_dir = dir;
  flight::Recorder rec(fopts);
  rec.start();

  // Chaos as the shared fault plan: latency spikes keep the schedule
  // hostile while the zero-tolerance session forces real rollbacks.
  stress::ChaosOptions copts;
  copts.delay_prob = 0.2;
  copts.max_delay_us = 200;
  stress::ChaosSchedule chaos(0xf11ULL, copts);

  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_concurrent = 2;
  cfg.flight = &rec;
  cfg.fault_plan = &chaos;
  serve::SessionManager mgr(cfg);

  // 1. A zero-tolerance session: every verification fails, so rollbacks
  //    land in the window.
  serve::SessionConfig rolling = tiny_session("rollback", /*tolerance=*/0.0);
  const auto roll = mgr.submit(std::move(rolling));
  ASSERT_TRUE(roll.accepted);
  const pipeline::RunResult* rr = mgr.wait(roll.id);
  ASSERT_NE(rr, nullptr);
  EXPECT_GE(rr->rollbacks, 1u);

  // 2. A session whose input cannot be read: admission throws → Failed →
  //    automatic post-mortem.
  serve::SessionConfig bad = tiny_session("doomed", 1e9);
  bad.run.input_path = "/nonexistent/tvs_flight_test_input";
  const auto fail = mgr.submit(std::move(bad));
  ASSERT_TRUE(fail.accepted);
  EXPECT_EQ(mgr.wait(fail.id), nullptr);
  EXPECT_EQ(mgr.stats(fail.id).state, serve::SessionState::Failed);
  mgr.drain();

  const std::string path =
      dir + "/session-" + std::to_string(fail.id) + "-postmortem.trace.json";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const std::string json = slurp(path);
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_NE(json.find("failed:"), std::string::npos);
  EXPECT_NE(json.find("attribution"), std::string::npos);
}

TEST(FlightServe, ShedWhileQueuedWritesSpanlessPostMortem) {
  const std::string dir = fresh_dir("pm_shed");
  flight::Recorder::Options fopts;
  fopts.post_mortem_dir = dir;
  flight::Recorder rec(fopts);
  rec.start();

  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_concurrent = 1;
  cfg.shed.queue_capacity = {0, 0, 0};  // shed everything at submit
  cfg.flight = &rec;
  serve::SessionManager mgr(cfg);

  const auto out = mgr.submit(tiny_session("shed-me", 1e9));
  EXPECT_FALSE(out.accepted);
  mgr.drain();  // post-mortems are guaranteed flushed by the time this returns

  const std::string path =
      dir + "/session-" + std::to_string(out.id) + "-postmortem.trace.json";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const std::string json = slurp(path);
  EXPECT_TRUE(json_lite::valid(json)) << "bad byte at "
                                      << json_lite::error_at(json);
  EXPECT_NE(json.find("shed:"), std::string::npos);
}

}  // namespace
