/**
 * @file
 * Tests for the artifact validator (sim/artifact_check.hh), the one
 * definition of a valid run record, trace, scenario list, repro
 * bundle, BENCH document, telemetry stream and service stream:
 *  - an artifact of each kind, produced by the real writer, passes;
 *  - a table of single-rule corruptions: each is rejected with its
 *    diagnostic, and the table holds at least one row per rule;
 *  - a deterministic mutation sweep (truncate, flip bytes, splice two
 *    valid artifacts) never crashes the checker: every input is
 *    either accepted or rejected with a diagnostic;
 *  - the typed field table, the fuzzer's run-record check and the one
 *    repro-bundle reader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "apps/random_graph_app.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "sim/artifact_check.hh"
#include "sim/experiment_config.hh"
#include "sim/fuzz.hh"
#include "sim/run_export.hh"
#include "sim/scenario.hh"
#include "sim/service_driver.hh"
#include "sim/sweep_runner.hh"
#include "sim/table.hh"
#include "sim/telemetry_export.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{
namespace
{

/** One valid artifact of every kind, from the real writers. */
struct Artifacts
{
    std::string runs;       //!< Untraced run records (raw mode).
    std::string traced;     //!< Traced run records, with forensics.
    std::string trace;      //!< One Perfetto trace document.
    std::string scenarios;  //!< The scenario catalogue.
    std::string repro;      //!< A fuzz repro bundle.
    std::string bench;      //!< A descriptor-keyed BENCH document.
    std::string telemetry;  //!< Telemetry stream of two runs.
    std::string service;    //!< A serve-run stream.
};

const apps::App &
fftApp()
{
    static const apps::App app = apps::makeFftApp(16);
    return app;
}

/** Small enough that its trace keeps every event and stays small. */
const apps::App &
smallGraphApp()
{
    static const apps::App app =
        apps::makeRandomGraphApp(5, {3, 4, false}, 3);
    return app;
}

Artifacts
buildArtifacts()
{
    Artifacts built;

    MachineConfig machine;
    machine.sliceInstructions = 50;
    std::vector<RunDescriptor> traced;
    std::vector<RunDescriptor> plain;
    for (int seed = 0; seed < 2; ++seed) {
        traced.push_back(ExperimentConfig::app(smallGraphApp())
                             .mode("commguard")
                             .mtbe(20)
                             .seedIndex(seed)
                             .machine(machine)
                             .traceEvents(true)
                             .telemetry(1)
                             .descriptor());
        plain.push_back(ExperimentConfig::app(fftApp())
                            .mode("raw")
                            .mtbe(128'000)
                            .seedIndex(seed)
                            .descriptor());
    }
    const auto run_all = [](const std::vector<RunDescriptor> &batch) {
        SweepRunner runner(1);
        for (const RunDescriptor &descriptor : batch)
            runner.enqueue(descriptor);
        return runner.runAll();
    };
    const std::vector<RunOutcome> traced_outcomes = run_all(traced);
    const std::vector<RunOutcome> plain_outcomes = run_all(plain);
    for (std::size_t i = 0; i < traced.size(); ++i) {
        built.traced += runRecordJson(traced[i], traced_outcomes[i]).dump() +
                        "\n";
        built.runs +=
            runRecordJson(plain[i], plain_outcomes[i]).dump() + "\n";
        built.telemetry +=
            telemetryLines(traced[i], traced_outcomes[i], i) + "\n";
    }
    built.trace = perfettoTraceJson(*traced_outcomes[0].eventTrace).dump();

    built.scenarios = scenarioListJson().dump();
    FuzzCase fuzz_case = randomFuzzCase(3);
    built.repro =
        reproBundleJson(fuzz_case, {"conservation: run 0: example"})
            .dump();

    Table table({"app", "mode", "mtbe", "seed", "loss"});
    table.addRow({"fft", "raw", "128000", "1", "0.5"});
    table.addRow({"fft", "raw", "128000", "2", "0.25"});
    table.addRow({"jpeg", "raw", "128000", "1", "0.75"});
    built.bench = benchDocument("fixture", table.toJson()).dump();

    ServiceConfig config;
    config.app = &fftApp();
    config.load = sweepOptions(streamit::ProtectionMode::CommGuard, true,
                               64'000.0, 0);
    config.totalFrames = 300;
    config.arrivalSeed = 7;
    config.meanBurstFrames = 16;
    config.meanGapSlices = 4;
    config.maxBacklogFrames = 64;
    config.snapshotEveryFrames = 100;
    config.telemetrySlices = 64;
    config.events.push_back(
        {ServiceEvent::Kind::MtbeDegrade, 100, 1, 8.0, 0});
    config.events.push_back({ServiceEvent::Kind::Remap, 200, 0, 0, 1});
    built.service = ServiceDriver(config).run().jsonl;
    return built;
}

const Artifacts &
artifacts()
{
    static const Artifacts built = buildArtifacts();
    return built;
}

/** Every kind's flag with its valid artifact. */
std::vector<std::pair<std::string, std::string>>
validArtifacts()
{
    const Artifacts &a = artifacts();
    return {{"", a.runs},           {"--forensics", a.traced},
            {"--trace", a.trace},   {"--scenarios", a.scenarios},
            {"--repro", a.repro},   {"--bench", a.bench},
            {"--telemetry", a.telemetry}, {"--service", a.service}};
}

ArtifactVerdict
check(const std::string &flag, const std::string &text)
{
    const ArtifactSpec *spec = findArtifactSpec(flag);
    EXPECT_NE(spec, nullptr) << flag;
    return checkArtifact(*spec, text, "artifact");
}

// ----------------------------------------------------------------------
// Editing helpers for the corruption table.
// ----------------------------------------------------------------------

using Edit = std::function<void(Json &)>;

Json
parsed(const std::string &text)
{
    Json json;
    std::string error;
    EXPECT_TRUE(Json::parse(text, json, &error)) << error;
    return json;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        lines.push_back(text.substr(start, end - start));
        start = end == std::string::npos ? text.size() : end + 1;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

std::string
editDoc(const std::string &text, const Edit &edit)
{
    Json doc = parsed(text);
    edit(doc);
    return doc.dump();
}

/** Apply @p edit to the first line satisfying @p match. */
std::string
editFirst(const std::string &text,
          const std::function<bool(const Json &)> &match,
          const Edit &edit)
{
    std::vector<std::string> lines = splitLines(text);
    for (std::string &line : lines) {
        Json record = parsed(line);
        if (!match(record))
            continue;
        edit(record);
        line = record.dump();
        break;
    }
    return joinLines(lines);
}

std::string
editLine(const std::string &text, std::size_t index, const Edit &edit)
{
    std::vector<std::string> lines = splitLines(text);
    Json record = parsed(lines.at(index));
    edit(record);
    lines.at(index) = record.dump();
    return joinLines(lines);
}

std::string
withLines(const std::string &text,
          const std::function<void(std::vector<std::string> &)> &edit)
{
    std::vector<std::string> lines = splitLines(text);
    edit(lines);
    return joinLines(lines);
}

bool
finalLine(const Json &record)
{
    const Json *flag = record.find("final");
    return flag != nullptr && flag->isBool() && flag->boolean();
}

/** A telemetry record that continues its run (not a run's first). */
bool
secondSample(const Json &record)
{
    return record.find("sample")->counter() == 1;
}

std::function<bool(const Json &)>
ofType(const char *type)
{
    return [type](const Json &record) {
        return record.find("type")->str() == type;
    };
}

Edit
set(const std::string &key, Json value)
{
    return [key, value](Json &json) { json[key] = value; };
}

Edit
erase(const std::string &key)
{
    return [key](Json &json) { json.obj().erase(key); };
}

/** Apply @p edit to the member @p key of the edited object. */
Edit
in(const std::string &key, const Edit &edit)
{
    return [key, edit](Json &json) { edit(json[key]); };
}

/** Apply @p edit to the first entry of the array member @p key. */
Edit
inFirst(const std::string &key, const Edit &edit)
{
    return [key, edit](Json &json) { edit(json[key].arr().at(0)); };
}

/** The first instant event's name in a trace document. */
std::string
firstInstantName(const Json &doc)
{
    for (const Json &event : doc.find("traceEvents")->arr()) {
        if (event.find("ph")->str() == "i")
            return event.find("name")->str();
    }
    ADD_FAILURE() << "trace has no instant event";
    return "";
}

/** One nonzero member name of the first telemetry final record's
 *  cumulative totals. */
std::string
firstCumulativeCounter(const std::string &telemetry)
{
    for (const std::string &line : splitLines(telemetry)) {
        const Json record = parsed(line);
        if (finalLine(record))
            return record.find("cumulative")->obj().begin()->first;
    }
    ADD_FAILURE() << "telemetry has no final record";
    return "";
}

// ----------------------------------------------------------------------
// The corruption table.
// ----------------------------------------------------------------------

struct Corruption
{
    std::string name;        //!< Test name suffix.
    std::string flag;        //!< The artifact kind.
    std::function<std::string(const Artifacts &)> make;
    std::string diagnostic;  //!< Substring of the expected diagnostic.
};

std::vector<Corruption>
corruptions()
{
    using A = const Artifacts &;
    return {
        // Layout: parse, object and emptiness rules of every kind.
        {"RunsParseError", "", [](A a) { return "{\n" + a.runs; },
         "line 1: parse error"},
        {"RunsNotObject", "", [](A a) { return a.runs + "[1]\n"; },
         "line 3: record is not an object"},
        {"RunsEmpty", "", [](A) { return std::string(); },
         "contains no records"},
        {"TraceParseError", "--trace",
         [](A a) { return a.trace.substr(0, a.trace.size() / 2); },
         "parse error"},
        {"BenchNotObject", "--bench", [](A) { return std::string("[]"); },
         "document is not an object"},
        {"RunsDeepNesting", "",
         [](A) { return std::string(100'000, '[') + "\n"; },
         "line 1: parse error: nesting deeper than 256"},
        {"TelemetryEmpty", "--telemetry", [](A) { return std::string(); },
         "contains no telemetry records"},
        {"ServiceEmpty", "--service", [](A) { return std::string(); },
         "contains no service records"},

        // Versions: missing, wrong, wrong-typed, fractional, negative.
        {"RunsVersionMissing", "",
         [](A a) { return editLine(a.runs, 0, erase("schema_version")); },
         "bad or missing schema_version"},
        {"RunsVersionWrong", "",
         [](A a) {
             return editLine(a.runs, 0, set("schema_version", Json(3)));
         },
         "bad or missing schema_version (expected 2, got 3)"},
        {"RunsVersionString", "",
         [](A a) {
             return editLine(a.runs, 0, set("schema_version", Json("2")));
         },
         "bad or missing schema_version"},
        {"RunsVersionFraction", "",
         [](A a) {
             return editLine(a.runs, 0, set("schema_version", Json(2.9)));
         },
         "got 2.9"},
        {"TraceVersionString", "--trace",
         [](A a) {
             return editDoc(a.trace, in("commguard", set("schema_version",
                                                         Json("2"))));
         },
         "bad or missing commguard.schema_version"},
        {"TraceVersionFraction", "--trace",
         [](A a) {
             return editDoc(a.trace, in("commguard", set("schema_version",
                                                         Json(2.9))));
         },
         "bad or missing commguard.schema_version"},
        {"ScenariosVersionString", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, set("schema_version", Json("2")));
         },
         "bad or missing schema_version"},
        {"ScenariosVersionFraction", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, set("schema_version", Json(2.5)));
         },
         "bad or missing schema_version"},
        {"ReproVersionFraction", "--repro",
         [](A a) {
             return editDoc(a.repro, set("schema_version", Json(2.9)));
         },
         "bad or missing schema_version"},
        {"ReproVersionString", "--repro",
         [](A a) {
             return editDoc(a.repro, set("schema_version", Json("2")));
         },
         "bad or missing schema_version"},
        {"BenchVersionString", "--bench",
         [](A a) {
             return editDoc(a.bench, set("schema_version", Json("2")));
         },
         "bad or missing schema_version"},
        {"BenchVersionFraction", "--bench",
         [](A a) {
             return editDoc(a.bench, set("schema_version", Json(2.9)));
         },
         "bad or missing schema_version"},
        {"BenchVersionNegative", "--bench",
         [](A a) {
             return editDoc(a.bench, set("schema_version", Json(-2)));
         },
         "bad or missing schema_version"},
        {"TelemetryVersionString", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0,
                             set("telemetry_schema_version", Json("1")));
         },
         "bad or missing telemetry_schema_version (expected 1"},
        {"TelemetryVersionFraction", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0,
                             set("telemetry_schema_version", Json(1.5)));
         },
         "bad or missing telemetry_schema_version"},
        {"ServiceVersionString", "--service",
         [](A a) {
             return editLine(a.service, 0,
                             set("service_schema_version", Json("1")));
         },
         "bad or missing service_schema_version (expected 1"},
        {"ServiceVersionFraction", "--service",
         [](A a) {
             return editLine(a.service, 0,
                             set("service_schema_version", Json(1.5)));
         },
         "bad or missing service_schema_version"},

        // Run records.
        {"RunsMissingApp", "",
         [](A a) { return editLine(a.runs, 1, erase("app")); },
         "line 2: missing field 'app'"},
        {"RunsMissingFrameScale", "",
         [](A a) { return editLine(a.runs, 0, erase("frame_scale")); },
         "missing field 'frame_scale'"},
        {"RunsUnregisteredMode", "",
         [](A a) {
             return editLine(a.runs, 0,
                             set("protection_mode", Json("bogus")));
         },
         "is not a registered mode (registered: "},
        {"RunsModeNotString", "",
         [](A a) {
             return editLine(a.runs, 0, set("protection_mode", Json(3)));
         },
         "protection_mode 3 is not a registered mode"},
        {"RunsMissingCounters", "",
         [](A a) { return editLine(a.runs, 0, erase("counters")); },
         "missing field 'counters'"},
        {"RunsGaugesNotObject", "",
         [](A a) { return editLine(a.runs, 0, set("gauges", Json(1))); },
         "field 'gauges' is not an object"},
        {"RunsBadGauge", "",
         [](A a) {
             return editLine(a.runs, 0,
                             in("gauges", set("run/bogus", Json("x"))));
         },
         "snapshot rejected"},
        {"RunsCounterObject", "",
         [](A a) {
             return editLine(a.runs, 0, in("counters",
                                           set("run/bogus",
                                               Json::object())));
         },
         "snapshot rejected"},
        {"RunsCounterFraction", "",
         [](A a) {
             return editLine(a.runs, 0,
                             in("counters", set("run/bogus", Json(1.5))));
         },
         "snapshot does not round-trip canonically"},
        {"ForensicsRequired", "--forensics",
         [](A a) { return a.runs; },
         "missing forensics section (was the sweep traced?)"},
        {"ForensicsNotObject", "",
         [](A a) {
             return editLine(a.traced, 0, set("forensics", Json(1)));
         },
         "forensics: not an object"},
        {"ForensicsMissingNumber", "--forensics",
         [](A a) {
             return editLine(a.traced, 0, in("forensics", erase("repaired")));
         },
         "forensics: missing field 'repaired'"},
        {"ForensicsNumberString", "",
         [](A a) {
             return editLine(a.traced, 0,
                             in("forensics", set("eoc_pads", Json("x"))));
         },
         "forensics: field 'eoc_pads' is not a number"},
        {"ForensicsMissingDistribution", "",
         [](A a) {
             return editLine(a.traced, 1,
                             in("forensics", erase("ttr_slices")));
         },
         "forensics: missing field 'ttr_slices'"},
        {"ForensicsDistributionLacksMean", "",
         [](A a) {
             return editLine(a.traced, 0,
                             in("forensics",
                                in("items_padded", erase("mean"))));
         },
         "forensics: items_padded: missing field 'mean'"},
        {"ForensicsHistogramNotArray", "",
         [](A a) {
             return editLine(a.traced, 0,
                             in("forensics", in("items_discarded",
                                                set("histogram",
                                                    Json(1)))));
         },
         "items_discarded: field 'histogram' is not an array"},
        {"ForensicsHistogramBin", "",
         [](A a) {
             const Edit add_bin = [](Json &dist) {
                 Json bin = Json::array();
                 bin.push(Json(1));
                 dist["histogram"].push(bin);
             };
             return editLine(a.traced, 0,
                             in("forensics", in("ttr_slices", add_bin)));
         },
         "ttr_slices histogram bin is not [value, count]"},
        {"ForensicsMissingConservation", "",
         [](A a) {
             return editLine(a.traced, 0, in("forensics",
                                             erase("conservation_errors")));
         },
         "forensics: missing field 'conservation_errors'"},
        {"ForensicsConservationViolated", "",
         [](A a) {
             return editLine(a.traced, 0, in("forensics", [](Json &f) {
                 f["conservation_errors"].push(Json("queuePush: 1 != 2"));
             }));
         },
         "forensics: conservation violated"},

        // Perfetto traces.
        {"TraceMissingEvents", "--trace",
         [](A a) { return editDoc(a.trace, erase("traceEvents")); },
         "missing field 'traceEvents'"},
        {"TraceMissingSidecar", "--trace",
         [](A a) { return editDoc(a.trace, erase("commguard")); },
         "bad or missing commguard.schema_version"},
        {"TraceMissingEventCounts", "--trace",
         [](A a) {
             return editDoc(a.trace, in("commguard", erase("event_counts")));
         },
         "commguard: missing field 'event_counts'"},
        {"TraceMissingDropped", "--trace",
         [](A a) {
             return editDoc(a.trace, in("commguard", erase("dropped")));
         },
         "commguard: missing field 'dropped'"},
        {"TraceDroppedString", "--trace",
         [](A a) {
             return editDoc(a.trace,
                            in("commguard", set("dropped", Json("0"))));
         },
         "field 'dropped' is not a non-negative integer"},
        {"TraceDroppedFraction", "--trace",
         [](A a) {
             return editDoc(a.trace,
                            in("commguard", set("dropped", Json(0.5))));
         },
         "field 'dropped' is not a non-negative integer"},
        {"TraceEventNotObject", "--trace",
         [](A a) {
             return editDoc(a.trace, [](Json &doc) {
                 doc["traceEvents"].push(Json(5));
             });
         },
         "traceEvents entry: not an object"},
        {"TraceEventLacksPh", "--trace",
         [](A a) {
             return editDoc(a.trace, inFirst("traceEvents", erase("ph")));
         },
         "traceEvents entry: missing field 'ph'"},
        {"TracePhNotString", "--trace",
         [](A a) {
             return editDoc(a.trace,
                            inFirst("traceEvents", set("ph", Json(1))));
         },
         "traceEvents entry: field 'ph' is not a string"},
        {"TraceInstantNameNotString", "--trace",
         [](A a) {
             return editDoc(a.trace, [](Json &doc) {
                 for (Json &event : doc["traceEvents"].arr()) {
                     if (event.find("ph")->str() == "i") {
                         event["name"] = Json(1);
                         break;
                     }
                 }
             });
         },
         "traceEvents entry: field 'name' is not a string"},
        {"TraceEventCountString", "--trace",
         [](A a) {
             return editDoc(a.trace, in("commguard", in("event_counts",
                                                        set("queuePush",
                                                            Json("x")))));
         },
         "event_counts['queuePush'] is not a non-negative integer"},
        {"TraceEventCountFraction", "--trace",
         [](A a) {
             return editDoc(a.trace, in("commguard", in("event_counts",
                                                        set("bogusKind",
                                                            Json(0.5)))));
         },
         "event_counts['bogusKind'] is not a non-negative integer"},
        {"TraceTallyExact", "--trace",
         [](A a) {
             return editDoc(a.trace, [](Json &doc) {
                 const std::string kind = firstInstantName(doc);
                 Json &count = doc["commguard"]["event_counts"][kind];
                 count = Json(count.counter() + 1);
             });
         },
         "(no drops)"},
        {"TraceDepthTally", "--trace",
         [](A a) {
             return editDoc(a.trace, [](Json &doc) {
                 Json &count =
                     doc["commguard"]["event_counts"]["queueDepth"];
                 count = Json(count.counter() + 1);
             });
         },
         "event 'queueDepth': stream has"},
        {"TraceTallyExceedsWithDrops", "--trace",
         [](A a) {
             return editDoc(a.trace, [](Json &doc) {
                 const std::string kind = firstInstantName(doc);
                 doc["commguard"]["dropped"] = Json(1);
                 Json &count = doc["commguard"]["event_counts"][kind];
                 count = Json(count.counter() - 1);
             });
         },
         "event_counts says"},
        {"TraceStreamKindUndeclared", "--trace",
         [](A a) {
             return editDoc(a.trace, [](Json &doc) {
                 const std::string kind = firstInstantName(doc);
                 doc["commguard"]["event_counts"].obj().erase(kind);
             });
         },
         "missing from event_counts"},

        // Scenario catalogue.
        {"ScenariosMissing", "--scenarios",
         [](A a) { return editDoc(a.scenarios, erase("scenarios")); },
         "missing field 'scenarios'"},
        {"ScenariosEmpty", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, set("scenarios", Json::array()));
         },
         "field 'scenarios' is not a non-empty array"},
        {"ScenarioNotObject", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, [](Json &doc) {
                 doc["scenarios"].arr().at(0) = Json("x");
             });
         },
         "scenario 0: not an object"},
        {"ScenarioEmptyName", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios,
                            inFirst("scenarios", set("name", Json(""))));
         },
         "scenario 0: field 'name' is not a non-empty string"},
        {"ScenarioMissingDescription", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios,
                            inFirst("scenarios", erase("description")));
         },
         "scenario 0: missing field 'description'"},
        {"ScenarioPaperRefNumber", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios,
                            inFirst("scenarios", set("paper_ref", Json(1))));
         },
         "field 'paper_ref' is not a non-empty string"},
        {"ScenarioNoTags", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, inFirst("scenarios",
                                                 set("tags", Json::array())));
         },
         "field 'tags' is not a non-empty array"},
        {"ScenarioEmptyTag", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, inFirst("scenarios", [](Json &s) {
                 s["tags"].push(Json(""));
             }));
         },
         "tag is not a non-empty string"},
        {"ScenarioTagNotString", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, inFirst("scenarios", [](Json &s) {
                 s["tags"].arr().at(0) = Json(7);
             }));
         },
         "tag is not a non-empty string"},
        {"ScenariosUnsorted", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, [](Json &doc) {
                 std::swap(doc["scenarios"].arr().at(0),
                           doc["scenarios"].arr().at(1));
             });
         },
         "names not sorted/unique"},
        {"ScenariosDuplicate", "--scenarios",
         [](A a) {
             return editDoc(a.scenarios, [](Json &doc) {
                 Json::Array &list = doc["scenarios"].arr();
                 list.at(1)["name"] = list.at(0)["name"];
             });
         },
         "names not sorted/unique"},

        // Repro bundles.
        {"ReproNotObject", "--repro", [](A) { return std::string("[]"); },
         "document is not an object"},
        {"ReproWrongKind", "--repro",
         [](A a) { return editDoc(a.repro, set("kind", Json("bench"))); },
         "bundle kind is not 'fuzz_repro'"},
        {"ReproMissingFailures", "--repro",
         [](A a) { return editDoc(a.repro, erase("failures")); },
         "invalid bundle: bundle: missing field 'failures'"},
        {"ReproFailureNotString", "--repro",
         [](A a) {
             return editDoc(a.repro, [](Json &doc) {
                 doc["failures"].push(Json(1));
             });
         },
         "failures entries must be strings"},
        {"ReproMissingCase", "--repro",
         [](A a) { return editDoc(a.repro, erase("case")); },
         "bundle: missing field 'case'"},
        {"ReproCaseNotObject", "--repro",
         [](A a) { return editDoc(a.repro, set("case", Json(1))); },
         "fuzz case: not an object"},
        {"ReproCaseMissingStages", "--repro",
         [](A a) { return editDoc(a.repro, in("case", erase("stages"))); },
         "fuzz case: missing field 'stages'"},
        {"ReproCaseStagesZero", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("stages", Json(0))));
         },
         "'stages' must be a positive number"},
        {"ReproCaseStagesFraction", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("stages", Json(2.5))));
         },
         "field 'stages' is not a non-negative integer"},
        {"ReproCaseStagesHuge", "--repro",
         [](A a) {
             return editDoc(a.repro,
                            in("case", set("stages", Json(Count{1} << 40))));
         },
         "'stages' must be a positive number"},
        {"ReproCaseSeedNegative", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("case_seed", Json(-1))));
         },
         "field 'case_seed' is not a non-negative integer"},
        {"ReproCaseMtbeZero", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("mtbe", Json(0))));
         },
         "'mtbe' must be a positive number"},
        {"ReproCaseMtbeString", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("mtbe", Json("x"))));
         },
         "field 'mtbe' is not a number"},
        {"ReproCaseUnknownMode", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("mode", Json("bogus"))));
         },
         "'mode' is not a known protection mode name"},
        {"ReproCaseSplitNotBool", "--repro",
         [](A a) {
             return editDoc(a.repro,
                            in("case", set("allow_split_join", Json(1))));
         },
         "field 'allow_split_join' is not a boolean"},
        {"ReproCaseHookNotString", "--repro",
         [](A a) {
             return editDoc(a.repro,
                            in("case", set("break_invariant", Json(5))));
         },
         "field 'break_invariant' is not a string"},
        {"ReproCaseJobsZero", "--repro",
         [](A a) {
             return editDoc(a.repro, in("case", set("jobs", Json(0))));
         },
         "'jobs' must be a positive number"},

        // BENCH documents.
        {"BenchMissingName", "--bench",
         [](A a) { return editDoc(a.bench, erase("bench")); },
         "missing field 'bench'"},
        {"BenchEmptyName", "--bench",
         [](A a) { return editDoc(a.bench, set("bench", Json(""))); },
         "field 'bench' is not a non-empty string"},
        {"BenchMissingData", "--bench",
         [](A a) { return editDoc(a.bench, erase("data")); },
         "missing field 'data'"},
        {"BenchMissingHeaders", "--bench",
         [](A a) { return editDoc(a.bench, in("data", erase("headers"))); },
         "data: missing field 'headers'"},
        {"BenchEmptyHeaders", "--bench",
         [](A a) {
             return editDoc(a.bench,
                            in("data", set("headers", Json::array())));
         },
         "data: field 'headers' is not a non-empty array"},
        {"BenchMissingRows", "--bench",
         [](A a) { return editDoc(a.bench, in("data", erase("rows"))); },
         "data: missing field 'rows'"},
        {"BenchRowNotArray", "--bench",
         [](A a) {
             return editDoc(a.bench, in("data", [](Json &data) {
                 data["rows"].arr().at(1) = Json("x");
             }));
         },
         "row 1: not an array"},
        {"BenchRowWidth", "--bench",
         [](A a) {
             return editDoc(a.bench, in("data", inFirst("rows", [](Json &r) {
                 r.push(Json("extra"));
             })));
         },
         "row 0: 6 cells, headers declare 5"},
        {"BenchHeaderNotString", "--bench",
         [](A a) {
             return editDoc(a.bench, in("data", [](Json &data) {
                 data["headers"].arr().at(4) = Json(4);
             }));
         },
         "header 4 is not a string"},
        {"BenchDuplicateRun", "--bench",
         [](A a) {
             return editDoc(a.bench, in("data", [](Json &data) {
                 data["rows"].push(data["rows"].arr().at(0));
             }));
         },
         "row 3 duplicates an earlier run configuration"},

        // Telemetry streams.
        {"TelemetryMissingMtbe", "--telemetry",
         [](A a) { return editLine(a.telemetry, 0, erase("mtbe")); },
         "line 1: missing field 'mtbe'"},
        {"TelemetryUnregisteredMode", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0,
                             set("protection_mode", Json("bogus")));
         },
         "is not a registered mode"},
        {"TelemetryMissingRunIndex", "--telemetry",
         [](A a) { return editLine(a.telemetry, 0, erase("run_index")); },
         "missing field 'run_index'"},
        {"TelemetrySampleString", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0, set("sample", Json("0")));
         },
         "field 'sample' is not a non-negative integer"},
        {"TelemetrySampleFraction", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0, set("sample", Json(0.5)));
         },
         "field 'sample' is not a non-negative integer"},
        {"TelemetryCyclesNegative", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0, set("cycles", Json(-5)));
         },
         "field 'cycles' is not a non-negative integer"},
        {"TelemetryMissingFinal", "--telemetry",
         [](A a) { return editLine(a.telemetry, 0, erase("final")); },
         "missing field 'final'"},
        {"TelemetryFinalNotBool", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0, set("final", Json("true")));
         },
         "field 'final' is not a boolean"},
        {"TelemetryMissingDeltas", "--telemetry",
         [](A a) { return editLine(a.telemetry, 0, erase("deltas")); },
         "missing field 'deltas'"},
        {"TelemetryRunNotClosed", "--telemetry",
         [](A a) {
             return editFirst(a.telemetry, finalLine,
                              set("final", Json(false)));
         },
         "has no final record before run 1 starts"},
        {"TelemetryRunReappears", "--telemetry",
         [](A a) {
             return withLines(a.telemetry, [](std::vector<std::string> &l) {
                 l.push_back(l.front());
             });
         },
         "run 0 reappears after its final record"},
        {"TelemetrySliceNotIncreasing", "--telemetry",
         [](A a) {
             const Json first = parsed(splitLines(a.telemetry).at(0));
             return editFirst(a.telemetry, secondSample,
                              set("slice", *first.find("slice")));
         },
         "does not increase over"},
        {"TelemetryCyclesDecrease", "--telemetry",
         [](A a) {
             const Json first = parsed(splitLines(a.telemetry).at(0));
             return editFirst(
                 a.telemetry, secondSample,
                 set("cycles", Json(first.find("cycles")->counter() - 1)));
         },
         "decreases below"},
        {"TelemetrySampleGap", "--telemetry",
         [](A a) {
             return editFirst(a.telemetry, secondSample,
                              set("sample", Json(2)));
         },
         "sample index 2 is not consecutive (expected 1)"},
        {"TelemetryDeltaString", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0,
                             in("deltas", set("run/bogus", Json("1"))));
         },
         "deltas['run/bogus'] is not a non-negative integer"},
        {"TelemetryDeltaZero", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0,
                             in("deltas", set("run/bogus", Json(0))));
         },
         "deltas['run/bogus'] is zero (deltas are sparse)"},
        {"TelemetryFinalLacksTaken", "--telemetry",
         [](A a) {
             return editFirst(a.telemetry, finalLine, erase("samples_taken"));
         },
         "final record: missing field 'samples_taken'"},
        {"TelemetryFinalDroppedString", "--telemetry",
         [](A a) {
             return editFirst(a.telemetry, finalLine,
                              set("samples_dropped", Json("0")));
         },
         "field 'samples_dropped' is not a non-negative integer"},
        {"TelemetryFinalLacksCumulative", "--telemetry",
         [](A a) {
             return editFirst(a.telemetry, finalLine, erase("cumulative"));
         },
         "final record: missing field 'cumulative'"},
        {"TelemetrySampleAccounting", "--telemetry",
         [](A a) {
             return editFirst(a.telemetry, finalLine, [](Json &record) {
                 record["samples_taken"] =
                     Json(record["samples_taken"].counter() + 1);
             });
         },
         "streamed records"},
        {"TelemetryCumulativeString", "--telemetry",
         [](A a) {
             const std::string name = firstCumulativeCounter(a.telemetry);
             return editFirst(a.telemetry, finalLine,
                              in("cumulative", set(name, Json("1"))));
         },
         "is not a non-negative integer"},
        {"TelemetryConservation", "--telemetry",
         [](A a) {
             const std::string name = firstCumulativeCounter(a.telemetry);
             return editFirst(a.telemetry, finalLine,
                              in("cumulative", [name](Json &totals) {
                                  totals[name] =
                                      Json(totals[name].counter() + 1);
                              }));
         },
         "conservation violated for"},
        {"TelemetryDeltaWithoutTotal", "--telemetry",
         [](A a) {
             const std::string name = firstCumulativeCounter(a.telemetry);
             return editFirst(a.telemetry, finalLine,
                              in("cumulative", erase(name)));
         },
         "has streamed deltas"},
        {"TelemetryMissingFinalAtEof", "--telemetry",
         [](A a) {
             return withLines(a.telemetry, [](std::vector<std::string> &l) {
                 l.pop_back();
             });
         },
         "run 1 is missing its final record at EOF"},

        // Service streams.
        {"ServiceMissingType", "--service",
         [](A a) { return editLine(a.service, 1, erase("type")); },
         "line 2: missing field 'type'"},
        {"ServiceTypeNotString", "--service",
         [](A a) { return editLine(a.service, 1, set("type", Json(5))); },
         "field 'type' is not a string"},
        {"ServiceUnknownType", "--service",
         [](A a) { return editLine(a.service, 1, set("type", Json("x"))); },
         "unknown record type \"x\""},
        {"ServiceRecordAfterSummary", "--service",
         [](A a) {
             return withLines(a.service, [](std::vector<std::string> &l) {
                 l.push_back(l.at(1));
             });
         },
         "record after the summary (summary must be last)"},
        {"ServiceSecondMeta", "--service",
         [](A a) {
             return withLines(a.service, [](std::vector<std::string> &l) {
                 l.insert(l.begin() + 1, l.front());
             });
         },
         "line 2: second meta record"},
        {"ServiceMetaNotFirst", "--service",
         [](A a) {
             return withLines(a.service, [](std::vector<std::string> &l) {
                 std::swap(l.at(0), l.at(1));
             });
         },
         "line 2: meta record is not the first line"},
        {"ServiceNoMetaFirst", "--service",
         [](A a) {
             return withLines(a.service, [](std::vector<std::string> &l) {
                 std::swap(l.at(0), l.at(1));
             });
         },
         "line 1: stream does not begin with a meta record"},
        {"ServiceTotalFramesZero", "--service",
         [](A a) {
             return editLine(a.service, 0, set("total_frames", Json(0)));
         },
         "meta lacks a positive total_frames"},
        {"ServiceTotalFramesFraction", "--service",
         [](A a) {
             return editLine(a.service, 0, set("total_frames", Json(300.5)));
         },
         "meta: field 'total_frames' is not a non-negative integer"},
        {"ServiceEventLacksKind", "--service",
         [](A a) {
             return editFirst(a.service, ofType("event"), erase("kind"));
         },
         "event: missing field 'kind'"},
        {"ServiceEventBadKind", "--service",
         [](A a) {
             return editFirst(a.service, ofType("event"),
                              set("kind", Json("reboot")));
         },
         "event kind is not mtbe_degrade/remap"},
        {"ServiceSnapshotLacksIndex", "--service",
         [](A a) {
             return editFirst(a.service, ofType("snapshot"), erase("index"));
         },
         "snapshot: missing field 'index'"},
        {"ServiceSnapshotLacksRing", "--service",
         [](A a) {
             return editFirst(a.service, ofType("snapshot"), erase("ring"));
         },
         "snapshot: missing field 'ring'"},
        {"ServiceSnapshotIndexGap", "--service",
         [](A a) {
             return editFirst(a.service, ofType("snapshot"),
                              set("index", Json(1)));
         },
         "snapshot index 1 is not consecutive (expected 0)"},
        {"ServiceSnapshotSliceDecreases", "--service",
         [](A a) {
             std::vector<std::string> lines = splitLines(a.service);
             std::vector<std::size_t> snapshots;
             for (std::size_t i = 0; i < lines.size(); ++i) {
                 if (parsed(lines[i]).find("type")->str() == "snapshot")
                     snapshots.push_back(i);
             }
             Json later = parsed(lines.at(snapshots.at(1)));
             later["slice"] = Json(0);
             lines.at(snapshots.at(1)) = later.dump();
             return joinLines(lines);
         },
         "decreases below"},
        {"ServiceAdmissionsDecrease", "--service",
         [](A a) {
             return withLines(a.service, [](std::vector<std::string> &l) {
                 bool first = true;
                 for (std::string &line : l) {
                     Json record = parsed(line);
                     if (record.find("type")->str() != "snapshot")
                         continue;
                     if (!first) {
                         record["frames_admitted"] = Json(0);
                         record["frames_completed"] = Json(0);
                         line = record.dump();
                         break;
                     }
                     first = false;
                 }
             });
         },
         "decreases"},
        {"ServiceAdmissionsExceedTotal", "--service",
         [](A a) {
             return editFirst(a.service, ofType("snapshot"),
                              set("frames_admitted", Json(100'000)));
         },
         "exceeds total_frames"},
        {"ServiceCompletionsExceedAdmissions", "--service",
         [](A a) {
             return editFirst(a.service, ofType("snapshot"),
                              [](Json &record) {
                                  record["frames_completed"] = Json(
                                      record["frames_admitted"].counter() +
                                      1);
                              });
         },
         "exceeds frames_admitted"},
        {"ServiceSummaryCompletedNotBool", "--service",
         [](A a) {
             return editFirst(a.service, ofType("summary"),
                              set("completed", Json("yes")));
         },
         "summary: field 'completed' is not a boolean"},
        {"ServiceSummaryFramesMismatch", "--service",
         [](A a) {
             return editFirst(a.service, ofType("summary"),
                              set("frames_completed", Json(299)));
         },
         "summary claims completed but frames_completed 299"},
        {"ServiceSummarySnapshots", "--service",
         [](A a) {
             return editFirst(a.service, ofType("summary"),
                              set("snapshots", Json(99)));
         },
         "summary snapshots 99"},
        {"ServiceSummaryEvents", "--service",
         [](A a) {
             return editFirst(a.service, ofType("summary"),
                              set("events_applied", Json(99)));
         },
         "summary events_applied 99"},
        {"ServiceSummaryCountString", "--service",
         [](A a) {
             return editFirst(a.service, ofType("summary"),
                              set("snapshots", Json("3")));
         },
         "summary: field 'snapshots' is not a non-negative integer"},
        {"ServiceNoSummary", "--service",
         [](A a) {
             return withLines(a.service, [](std::vector<std::string> &l) {
                 l.pop_back();
             });
         },
         "has no summary record"},
        // A count beyond 2^64 is rejected, never converted (the
        // conversion would be undefined behaviour).
        {"TelemetrySliceHuge", "--telemetry",
         [](A a) {
             return editLine(a.telemetry, 0, set("slice", Json(1e30)));
         },
         "field 'slice' is not a non-negative integer"},
    };
}

void
PrintTo(const Corruption &row, std::ostream *os)
{
    *os << row.name;
}

class ArtifactCorruption : public ::testing::TestWithParam<Corruption>
{
};

TEST_P(ArtifactCorruption, IsRejectedWithItsDiagnostic)
{
    const Corruption &row = GetParam();
    const ArtifactVerdict verdict = check(row.flag, row.make(artifacts()));
    ASSERT_FALSE(verdict.ok()) << row.name << " was accepted";
    bool found = false;
    std::string all;
    for (const std::string &error : verdict.errors) {
        found |= error.find(row.diagnostic) != std::string::npos;
        all += error + "\n";
    }
    EXPECT_TRUE(found) << "expected '" << row.diagnostic << "' in:\n"
                       << all;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, ArtifactCorruption, ::testing::ValuesIn(corruptions()),
    [](const ::testing::TestParamInfo<Corruption> &info) {
        return info.param.name;
    });

// ----------------------------------------------------------------------
// Valid artifacts and the mutation sweep.
// ----------------------------------------------------------------------

TEST(ArtifactCheck, EveryKindHasASpec)
{
    for (const auto &[flag, text] : validArtifacts())
        EXPECT_NE(findArtifactSpec(flag), nullptr) << flag;
    EXPECT_EQ(artifactSpecs().size(), validArtifacts().size());
    EXPECT_EQ(findArtifactSpec("--bogus"), nullptr);
}

TEST(ArtifactCheck, RealWritersProduceValidArtifacts)
{
    for (const auto &[flag, text] : validArtifacts()) {
        const ArtifactVerdict verdict = check(flag, text);
        EXPECT_TRUE(verdict.ok())
            << "kind '" << flag << "': " << verdict.errors.front();
    }
}

TEST(ArtifactCheck, SummariesMatchTheStreams)
{
    EXPECT_EQ(check("", artifacts().runs).summary,
              "2 records checked, 0 invalid");
    EXPECT_NE(check("--telemetry", artifacts().telemetry)
                  .summary.find("telemetry records over 2 runs checked, "
                                "0 invalid"),
              std::string::npos);
    const std::vector<std::string> service = splitLines(artifacts().service);
    const Json summary = parsed(service.back());
    EXPECT_EQ(check("--service", artifacts().service).summary,
              std::to_string(service.size()) + " service records checked (" +
                  std::to_string(summary.find("snapshots")->counter()) +
                  " snapshots, 2 events), 0 invalid");
    EXPECT_NE(check("--scenarios", artifacts().scenarios)
                  .summary.find("checked, catalogue valid"),
              std::string::npos);
    EXPECT_EQ(check("--bench", artifacts().bench).summary, "");

    // A rejected line is counted, and the rest are still checked.
    const ArtifactVerdict one_bad = check("", artifacts().runs + "{\n");
    EXPECT_EQ(one_bad.errors.size(), 1u);
    EXPECT_EQ(one_bad.summary, "3 records checked, 1 invalid");
}

TEST(ArtifactCheck, TracedRecordsAreValidRunRecords)
{
    EXPECT_TRUE(check("", artifacts().traced).ok());
    // The fixture exercises the exact-tally and repair paths.
    const Json trace = parsed(artifacts().trace);
    EXPECT_EQ(trace.find("commguard")->find("dropped")->counter(), 0u);
    const Json record = parsed(splitLines(artifacts().traced).at(0));
    EXPECT_GT(record.find("forensics")->find("errors_injected")->counter(),
              0u);
}

TEST(ArtifactCheck, BenchTablesNotKeyedByRunMayRepeatRows)
{
    Table table({"benchmark", "128k"});
    table.addRow({"fft", "1.0"});
    table.addRow({"fft", "1.0"});
    EXPECT_TRUE(
        check("--bench", benchDocument("summary", table.toJson()).dump())
            .ok());
}

TEST(ArtifactCheck, TelemetryWithDroppedSamplesSkipsConservation)
{
    // A run whose ring folded samples away cannot reconcile deltas
    // with totals; only its sample accounting is checked.
    const std::string text = editFirst(
        artifacts().telemetry, finalLine, [](Json &record) {
            record["samples_dropped"] = Json(Count{5});
            record["samples_taken"] =
                Json(record["samples_taken"].counter() + 5);
            record["cumulative"] = Json::object();
        });
    EXPECT_TRUE(check("--telemetry", text).ok());
}

/** Deterministic mutants of @p text (see file comment). */
std::vector<std::string>
mutants(const std::string &text, const std::vector<std::string> &others,
        std::uint64_t seed)
{
    constexpr std::size_t kPerMutation = 48;
    static const char kBytes[] = "\"{}[],:0-.xe\n\\ 9";
    Rng rng(seed);
    std::vector<std::string> out;
    const std::size_t stride = std::max<std::size_t>(
        1, text.size() / kPerMutation);
    for (std::size_t cut = 0; cut < text.size(); cut += stride)
        out.push_back(text.substr(0, cut));
    for (std::size_t i = 0; i < kPerMutation && !text.empty(); ++i) {
        std::string flipped = text;
        for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0;
             --flips) {
            char &byte = flipped[rng.below(
                static_cast<std::uint32_t>(text.size()))];
            byte = rng.below(2) == 0
                       ? kBytes[rng.below(sizeof(kBytes) - 1)]
                       : static_cast<char>(byte ^ (1u << rng.below(8)));
        }
        out.push_back(std::move(flipped));
    }
    for (const std::string &other : others) {
        for (int i = 0; i < 4 && !text.empty() && !other.empty(); ++i) {
            const std::size_t head = rng.below(
                static_cast<std::uint32_t>(text.size()));
            const std::size_t tail = rng.below(
                static_cast<std::uint32_t>(other.size()));
            out.push_back(text.substr(0, head) + other.substr(tail));
        }
    }
    return out;
}

TEST(ArtifactCheck, MutatedArtifactsNeverCrashTheChecker)
{
    const auto valid = validArtifacts();
    std::vector<std::string> texts;
    for (const auto &[flag, text] : valid)
        texts.push_back(text);

    std::size_t checked = 0;
    std::size_t rejected = 0;
    for (std::size_t kind = 0; kind < valid.size(); ++kind) {
        const ArtifactSpec &spec = *findArtifactSpec(valid[kind].first);
        for (const std::string &mutant :
             mutants(valid[kind].second, texts, 0xA57 + kind)) {
            ArtifactVerdict verdict;
            ASSERT_NO_THROW(verdict = checkArtifact(spec, mutant, "m"))
                << "kind '" << spec.flag << "'";
            for (const std::string &error : verdict.errors)
                EXPECT_GT(error.size(), std::string("m: ").size());
            ++checked;
            rejected += verdict.ok() ? 0 : 1;

            // The fuzzer's per-record entry point sees the same bytes.
            if (spec.layout == ArtifactSpec::Layout::Lines) {
                ASSERT_NO_THROW(checkRunRecord(
                    mutant.substr(0, mutant.find('\n'))));
            }
        }
    }
    EXPECT_GT(checked, 8u * 100u);
    // Nearly every mutant breaks something; a sweep that rejects
    // nothing would mean the mutator produced no change.
    EXPECT_GT(rejected, checked / 2);
}

// ----------------------------------------------------------------------
// The field table, the fuzzer's record check, the bundle reader.
// ----------------------------------------------------------------------

TEST(FieldTable, EachTypeAcceptsItsValuesOnly)
{
    const Json doc = parsed(
        R"({"any":null,"n":-1.5,"c":7,"cd":3.0,"neg":-1,"frac":0.5,)"
        R"("s":"","ns":"x","b":false,"o":{},"a":[],"na":[1],)"
        R"("big":1e30})");
    const auto ok = [&doc](const char *key, FieldType type) {
        const FieldSpec row[] = {{key, type}};
        return checkFields(doc, row).empty();
    };
    EXPECT_TRUE(ok("any", FieldType::Any));
    EXPECT_TRUE(ok("n", FieldType::Number));
    EXPECT_FALSE(ok("s", FieldType::Number));
    EXPECT_TRUE(ok("c", FieldType::Count));
    EXPECT_TRUE(ok("cd", FieldType::Count));
    EXPECT_FALSE(ok("neg", FieldType::Count));
    EXPECT_FALSE(ok("frac", FieldType::Count));
    EXPECT_FALSE(ok("big", FieldType::Count));
    EXPECT_FALSE(ok("ns", FieldType::Count));
    EXPECT_TRUE(ok("s", FieldType::String));
    EXPECT_FALSE(ok("s", FieldType::NonEmptyString));
    EXPECT_TRUE(ok("ns", FieldType::NonEmptyString));
    EXPECT_TRUE(ok("b", FieldType::Bool));
    EXPECT_FALSE(ok("c", FieldType::Bool));
    EXPECT_TRUE(ok("o", FieldType::Object));
    EXPECT_FALSE(ok("a", FieldType::Object));
    EXPECT_TRUE(ok("a", FieldType::Array));
    EXPECT_FALSE(ok("a", FieldType::NonEmptyArray));
    EXPECT_TRUE(ok("na", FieldType::NonEmptyArray));
    EXPECT_FALSE(ok("missing", FieldType::Any));

    const FieldSpec row[] = {{"c", FieldType::Count}};
    EXPECT_EQ(checkFields(Json(1), row), "not an object");
    EXPECT_EQ(checkFields(parsed(R"({"c":"7"})"), row),
              "field 'c' is not a non-negative integer");
    EXPECT_EQ(checkFields(parsed("{}"), row), "missing field 'c'");

    // Out-of-range doubles clamp instead of converting.
    EXPECT_EQ(doc.find("big")->counter(), ~Count{0});
    EXPECT_EQ(doc.find("n")->counter(), 0u);
}

TEST(JsonParse, BoundsNestingDepth)
{
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    Json json;
    std::string error;
    EXPECT_TRUE(Json::parse(nested(256), json, &error)) << error;
    EXPECT_FALSE(Json::parse(nested(257), json, &error));
    EXPECT_NE(error.find("nesting deeper than 256"), std::string::npos);
    // Empty containers do not nest: a long flat list of them is fine.
    std::string flat = "[";
    for (int i = 0; i < 1000; ++i)
        flat += i == 0 ? "{}" : ",[]";
    EXPECT_TRUE(Json::parse(flat + "]", json, &error)) << error;
}

TEST(RunRecordCheck, IsTheJsonlRecordCheck)
{
    const std::string line = splitLines(artifacts().traced).at(0);
    EXPECT_EQ(checkRunRecord(line), "");
    EXPECT_NE(checkRunRecord(editLine(line, 0, set("protection_mode",
                                                   Json("bogus"))))
                  .find("is not a registered mode"),
              std::string::npos);
    EXPECT_NE(checkRunRecord(editLine(line, 0, in("forensics",
                                                  in("ttr_slices",
                                                     erase("histogram")))))
                  .find("forensics: ttr_slices: missing field"),
              std::string::npos);
}

TEST(ReproBundleReader, AcceptsWhatJsonlCheckAccepts)
{
    const std::string path = ::testing::TempDir() + "artifact_bundle.json";
    const auto write = [&path](const std::string &text) {
        std::ofstream(path) << text << "\n";
    };

    write(artifacts().repro);
    FuzzCase fuzz_case;
    std::string error;
    ASSERT_TRUE(readReproBundle(path, fuzz_case, &error)) << error;
    EXPECT_TRUE(fuzz_case == randomFuzzCase(3));

    write(editDoc(artifacts().repro, in("case", set("stages", Json(2.5)))));
    EXPECT_FALSE(readReproBundle(path, fuzz_case, &error));
    EXPECT_NE(error.find(path + ": invalid bundle: fuzz case: field "
                                "'stages'"),
              std::string::npos)
        << error;
    EXPECT_FALSE(checkArtifactFile(*findArtifactSpec("--repro"), path).ok());

    std::remove(path.c_str());
    EXPECT_FALSE(readReproBundle(path, fuzz_case, &error));
    EXPECT_EQ(error, path + ": cannot open");
}

} // namespace
} // namespace commguard::sim
