#include "sim/artifact_check.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/metrics.hh"
#include "common/telemetry.hh"
#include "sim/fuzz.hh"
#include "sim/protection.hh"
#include "sim/service_driver.hh"

namespace commguard::sim
{

/** Cross-record rules of one JSON-lines artifact, fed its records in
 *  file order. */
class LineInvariants
{
  public:
    LineInvariants() = default;
    virtual ~LineInvariants() = default;
    LineInvariants(const LineInvariants &) = delete;
    LineInvariants &operator=(const LineInvariants &) = delete;

    /** Rules for line @p line, whose spec fields hold; "" if met. */
    virtual std::string record(const Json &record, std::size_t line) = 0;

    /** Rules for the stream as a whole, after its last record. */
    virtual std::string finish() { return ""; }

    /** The stdout summary over @p lines records, @p bad rejected. */
    virtual std::string summary(std::size_t lines, std::size_t bad) const = 0;
};

namespace
{

using Type = FieldType;

/** One diagnostic from strings and numbers. */
template <typename... Parts>
std::string
cat(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

std::string
plural(std::size_t n, const char *one, const char *many)
{
    return cat(n, " ", n == 1 ? one : many);
}

/** nullptr when @p value has @p type, else the type's phrase. */
const char *
mismatch(const Json &value, FieldType type)
{
    switch (type) {
      case Type::Any: return nullptr;
      case Type::Number: return value.isNumber() ? nullptr : "a number";
      case Type::Count:
        return value.isCount() ? nullptr : "a non-negative integer";
      case Type::String: return value.isString() ? nullptr : "a string";
      case Type::NonEmptyString:
        return value.isString() && !value.str().empty()
                   ? nullptr : "a non-empty string";
      case Type::Bool: return value.isBool() ? nullptr : "a boolean";
      case Type::Object: return value.isObject() ? nullptr : "an object";
      case Type::Array: return value.isArray() ? nullptr : "an array";
      case Type::NonEmptyArray:
        return value.isArray() && !value.arr().empty()
                   ? nullptr : "a non-empty array";
    }
    return "a known type";
}

/** "" when @p value is a count, else "<what> is not a ...". */
std::string
checkCount(const Json &value, const std::string &what)
{
    const char *phrase = mismatch(value, Type::Count);
    return phrase == nullptr ? "" : what + " is not " + phrase;
}

/** Parse @p text as one object with the spec's version and fields. */
std::string
checkObject(const ArtifactSpec &spec, const std::string &text, Json &out,
            const char *what)
{
    std::string error;
    if (!Json::parse(text, out, &error))
        return "parse error: " + error;
    if (!out.isObject())
        return cat(what, " is not an object");

    const Json *version = &out;
    const std::string_view path = spec.versionKey;
    for (std::size_t start = 0; version != nullptr;) {
        const std::size_t dot = path.find('.', start);
        version = version->find(std::string(path.substr(start, dot - start)));
        if (dot == std::string_view::npos)
            break;
        start = dot + 1;
    }
    if (version == nullptr || !version->isCount() ||
        version->counter() != static_cast<Count>(spec.version)) {
        return cat("bad or missing ", path, " (expected ", spec.version,
                   version != nullptr ? ", got " + version->dump() : "",
                   ")");
    }
    return checkFields(out, spec.fields);
}

// Run records (default mode, --forensics).

/** The identifying descriptor fields of run and telemetry records. */
constexpr FieldSpec kDescriptorFields[] = {
    {"app", Type::Any},  {"protection_mode", Type::Any},
    {"inject_errors", Type::Any}, {"mtbe", Type::Any},
    {"seed", Type::Any}, {"frame_scale", Type::Any}};

constexpr FieldSpec kRunFields[] = {
    {"counters", Type::Object}, {"gauges", Type::Object}};

/** Every object member of the forensics section is a distribution. */
constexpr FieldSpec kForensicsFields[] = {
    {"errors_injected", Type::Number}, {"queue_corruptions", Type::Number},
    {"repaired", Type::Number},        {"unrepaired", Type::Number},
    {"repair_episodes", Type::Number}, {"eoc_pads", Type::Number},
    {"events_dropped", Type::Number},  {"ttr_slices", Type::Object},
    {"items_padded", Type::Object},    {"items_discarded", Type::Object},
    {"conservation_errors", Type::Array}};

constexpr FieldSpec kDistributionFields[] = {
    {"count", Type::Number}, {"max", Type::Number},
    {"mean", Type::Number},  {"histogram", Type::Array}};

/** Descriptor fields plus a mode the protection registry knows. */
std::string
checkDescriptor(const Json &record)
{
    if (std::string why = checkFields(record, kDescriptorFields);
        !why.empty())
        return why;
    const Json &mode = *record.find("protection_mode");
    streamit::ProtectionMode parsed{};
    if (!mode.isString() ||
        !protection::tryParseProtectionMode(mode.str(), &parsed)) {
        return cat("protection_mode ", mode.dump(),
                   " is not a registered mode (registered: ",
                   protection::ProtectionRegistry::instance().nameList(),
                   ")");
    }
    return "";
}

std::string
checkForensics(const Json &forensics)
{
    if (std::string why = checkFields(forensics, kForensicsFields);
        !why.empty())
        return "forensics: " + why;
    for (const FieldSpec &field : kForensicsFields) {
        if (field.type != Type::Object)
            continue;
        const Json &dist = *forensics.find(field.key);
        if (std::string why = checkFields(dist, kDistributionFields);
            !why.empty())
            return cat("forensics: ", field.key, ": ", why);
        for (const Json &bin : dist.find("histogram")->arr()) {
            if (!bin.isArray() || bin.arr().size() != 2)
                return cat("forensics: ", field.key,
                           " histogram bin is not [value, count]");
        }
    }
    const Json &errors = *forensics.find("conservation_errors");
    if (!errors.arr().empty())
        return "forensics: conservation violated: " + errors.dump();
    return "";
}

class RunRecords final : public LineInvariants
{
  public:
    explicit RunRecords(bool require_forensics)
        : _requireForensics(require_forensics)
    {
    }

    std::string
    record(const Json &record, std::size_t) override
    {
        if (std::string why = checkDescriptor(record); !why.empty())
            return why;
        metrics::MetricSnapshot snapshot;
        try {
            snapshot = metrics::snapshotFromJson(record);
        } catch (const std::exception &e) {
            return cat("snapshot rejected: ", e.what());
        }
        // Re-serializing the parsed snapshot must reproduce the record's
        // bytes. Compare canonical text, not Json values: non-finite
        // gauges parse as tagged strings but re-encode from doubles.
        const Json reencoded = metrics::snapshotToJson(snapshot);
        for (const char *key : {"counters", "gauges"}) {
            if (reencoded.find(key)->dump() != record.find(key)->dump())
                return "snapshot does not round-trip canonically";
        }
        const Json *forensics = record.find("forensics");
        if (forensics != nullptr)
            return checkForensics(*forensics);
        return _requireForensics
                   ? "missing forensics section (was the sweep traced?)"
                   : "";
    }

    std::string
    summary(std::size_t lines, std::size_t bad) const override
    {
        return cat(plural(lines, "record", "records"), " checked, ", bad,
                   " invalid");
    }

  private:
    bool _requireForensics;
};

// Perfetto traces (--trace).

constexpr FieldSpec kTraceFields[] = {
    {"traceEvents", Type::Array}, {"commguard", Type::Object}};

constexpr FieldSpec kTraceSidecarFields[] = {
    {"event_counts", Type::Object}, {"dropped", Type::Count}};

constexpr FieldSpec kTraceEventFields[] = {
    {"ph", Type::String}, {"name", Type::String}};

std::string
checkTrace(const Json &doc, std::string &)
{
    const Json &sidecar = *doc.find("commguard");
    if (std::string why = checkFields(sidecar, kTraceSidecarFields);
        !why.empty())
        return "commguard: " + why;

    // Tally the stream: instant events per kind name, counter events
    // as queueDepth samples.
    std::map<std::string, Count> tallied;
    Count depth_samples = 0;
    for (const Json &event : doc.find("traceEvents")->arr()) {
        if (std::string why = checkFields(event, kTraceEventFields);
            !why.empty())
            return "traceEvents entry: " + why;
        const std::string &ph = event.find("ph")->str();
        if (ph == "i")
            ++tallied[event.find("name")->str()];
        else if (ph == "C")
            ++depth_samples;
    }

    // Retained records never exceed the exact counts; with no drops
    // they must match exactly.
    const Json &counts = *sidecar.find("event_counts");
    const bool exact = sidecar.find("dropped")->counter() == 0;
    for (const auto &[kind, declared] : counts.obj()) {
        if (std::string why =
                checkCount(declared, "event_counts['" + kind + "']");
            !why.empty())
            return why;
        const Count seen =
            kind == "queueDepth" ? depth_samples : tallied[kind];
        if (seen > declared.counter() ||
            (exact && seen != declared.counter())) {
            return cat("event '", kind, "': stream has ", seen,
                       ", event_counts says ", declared.counter(),
                       exact ? " (no drops)" : "");
        }
    }
    for (const auto &[kind, seen] : tallied) {
        if (counts.find(kind) == nullptr)
            return cat("stream event '", kind,
                       "' missing from event_counts");
    }
    return "";
}

// Scenario catalogue (--scenarios).

constexpr FieldSpec kScenarioListFields[] = {
    {"scenarios", Type::NonEmptyArray}};

constexpr FieldSpec kScenarioFields[] = {
    {"name", Type::NonEmptyString},
    {"description", Type::NonEmptyString},
    {"paper_ref", Type::NonEmptyString},
    {"tags", Type::NonEmptyArray}};

std::string
checkScenarioList(const Json &doc, std::string &summary)
{
    const Json::Array &scenarios = doc.find("scenarios")->arr();
    std::string previous;
    for (std::size_t index = 0; index < scenarios.size(); ++index) {
        const Json &entry = scenarios[index];
        if (std::string why = checkFields(entry, kScenarioFields);
            !why.empty())
            return cat("scenario ", index, ": ", why);
        for (const Json &tag : entry.find("tags")->arr()) {
            if (!tag.isString() || tag.str().empty())
                return cat("scenario ", index,
                           ": tag is not a non-empty string");
        }
        const std::string &name = entry.find("name")->str();
        if (!previous.empty() && name <= previous)
            return cat("names not sorted/unique: '", name, "' after '",
                       previous, "'");
        previous = name;
    }
    summary = plural(scenarios.size(), "scenario entry", "scenario entries") +
              " checked, catalogue valid";
    return "";
}

// Fuzz repro bundles (--repro).

std::string
checkReproBundle(const Json &doc, std::string &)
{
    FuzzCase fuzz_case;
    std::string error;
    if (!reproBundleFromJson(doc, fuzz_case, &error))
        return "invalid bundle: " + error;
    // The case must survive its own canonical round-trip, so replay
    // tools see exactly what the fuzzer saw.
    FuzzCase reparsed;
    if (!fuzzCaseFromJson(fuzzCaseJson(fuzz_case), reparsed, &error) ||
        !(reparsed == fuzz_case))
        return "case does not round-trip canonically";
    return "";
}

// BENCH documents (--bench).

constexpr FieldSpec kBenchFields[] = {
    {"bench", Type::NonEmptyString}, {"data", Type::Object}};

constexpr FieldSpec kBenchDataFields[] = {
    {"headers", Type::NonEmptyArray}, {"rows", Type::Array}};

std::string
checkBenchDocument(const Json &doc, std::string &)
{
    const Json &data = *doc.find("data");
    if (std::string why = checkFields(data, kBenchDataFields); !why.empty())
        return "data: " + why;
    const Json::Array &headers = data.find("headers")->arr();
    const Json::Array &rows = data.find("rows")->arr();
    for (std::size_t index = 0; index < rows.size(); ++index) {
        if (!rows[index].isArray())
            return cat("row ", index, ": not an array");
        if (rows[index].arr().size() != headers.size())
            return cat("row ", index, ": ", rows[index].arr().size(),
                       " cells, headers declare ", headers.size());
    }

    // Duplicate-run detection: a table keyed by run descriptors must
    // name each configuration once — a repeat means a sweep merge
    // double-counted a run (e.g. a sharded sweep re-admitting a
    // reassigned shard). Engages only on tables carrying the full
    // descriptor key ("app", "mtbe", "seed"); summary tables keyed
    // otherwise are exempt.
    static const std::set<std::string> kKeyColumns = {
        "app",  "mode",        "protection_mode", "mtbe",
        "seed", "frame_scale", "inject_errors"};
    std::vector<std::size_t> key_columns;
    std::set<std::string> keyed;
    for (std::size_t h = 0; h < headers.size(); ++h) {
        if (!headers[h].isString())
            return cat("header ", h, " is not a string");
        if (kKeyColumns.count(headers[h].str()) > 0) {
            key_columns.push_back(h);
            keyed.insert(headers[h].str());
        }
    }
    if (keyed.count("app") == 0 || keyed.count("mtbe") == 0 ||
        keyed.count("seed") == 0)
        return "";
    std::set<std::string> seen;
    for (std::size_t index = 0; index < rows.size(); ++index) {
        std::string key;
        for (std::size_t column : key_columns)
            key += rows[index].arr()[column].dump() + "\x1f";
        if (!seen.insert(key).second)
            return cat("row ", index,
                       " duplicates an earlier run configuration: ",
                       rows[index].dump());
    }
    return "";
}

// Telemetry streams (--telemetry).

constexpr FieldSpec kTelemetryFields[] = {
    {"run_index", Type::Count}, {"sample", Type::Count},
    {"slice", Type::Count},     {"cycles", Type::Count},
    {"final", Type::Bool},      {"deltas", Type::Object}};

constexpr FieldSpec kTelemetryFinalFields[] = {
    {"samples_taken", Type::Count}, {"samples_dropped", Type::Count},
    {"cumulative", Type::Object}};

/** Runs stream contiguously, so the state of the run whose records
 *  are streaming past suffices, plus the set of finished runs. */
class TelemetryRuns final : public LineInvariants
{
  public:
    std::string
    record(const Json &record, std::size_t) override
    {
        if (std::string why = checkDescriptor(record); !why.empty())
            return why;
        const Count run = record.find("run_index")->counter();
        const Count sample = record.find("sample")->counter();
        const Count slice = record.find("slice")->counter();
        const Count cycles = record.find("cycles")->counter();

        if (!_active || run != _run) {
            // A new run begins; the previous one must have been closed
            // by its final record, and run indices never interleave.
            if (_active)
                return cat("run ", _run, " has no final record before run ",
                           run, " starts");
            if (_finished.count(run) > 0)
                return cat("run ", run, " reappears after its final record "
                           "(records must be contiguous per run)");
            _active = true;
            _run = run;
            _records = 0;
            _nextSample = sample;
            _deltaSums.clear();
        } else if (slice <= _lastSlice) {
            return cat("slice ", slice, " does not increase over ",
                       _lastSlice);
        } else if (cycles < _lastCycles) {
            return cat("cycles ", cycles, " decreases below ", _lastCycles);
        }
        if (sample != _nextSample)
            return cat("sample index ", sample,
                       " is not consecutive (expected ", _nextSample, ")");
        ++_nextSample;
        ++_records;
        _lastSlice = slice;
        _lastCycles = cycles;

        for (const auto &[name, delta] : record.find("deltas")->obj()) {
            if (std::string why = checkCount(delta, "deltas['" + name + "']");
                !why.empty())
                return why;
            if (delta.counter() == 0)
                return cat("deltas['", name, "'] is zero (deltas are sparse)");
            _deltaSums[name] += delta.counter();
        }
        if (!record.find("final")->boolean())
            return "";
        _finished.insert(run);
        return finishRun(record);
    }

    std::string
    finish() override
    {
        return _active ? cat("run ", _run,
                             " is missing its final record at EOF")
                       : "";
    }

    std::string
    summary(std::size_t lines, std::size_t bad) const override
    {
        return cat(plural(lines, "telemetry record", "telemetry records"),
                   " over ", plural(_finished.size(), "run", "runs"),
                   " checked, ", bad, " invalid");
    }

  private:
    /** The final record reconciles: sample accounting and — when
     *  nothing was folded out of the ring — conservation of every
     *  counter (streamed delta sums == final cumulative totals). */
    std::string
    finishRun(const Json &record)
    {
        _active = false;
        if (std::string why = checkFields(record, kTelemetryFinalFields);
            !why.empty())
            return "final record: " + why;
        const Count taken = record.find("samples_taken")->counter();
        const Count dropped = record.find("samples_dropped")->counter();
        if (taken != dropped + _records)
            return cat("samples_taken ", taken, " != dropped ", dropped,
                       " + ", _records, " streamed records");
        if (dropped != 0)
            return "";

        const Json &cumulative = *record.find("cumulative");
        for (const auto &[name, total] : cumulative.obj()) {
            if (std::string why =
                    checkCount(total, "cumulative['" + name + "']");
                !why.empty())
                return why;
            const auto it = _deltaSums.find(name);
            const Count summed = it == _deltaSums.end() ? 0 : it->second;
            if (summed != total.counter())
                return cat("conservation violated for '", name,
                           "': deltas sum to ", summed, ", cumulative says ",
                           total.dump());
        }
        for (const auto &[name, summed] : _deltaSums) {
            if (summed != 0 && cumulative.find(name) == nullptr)
                return cat("counter '", name, "' has streamed deltas (",
                           summed, ") but no cumulative entry");
        }
        return "";
    }

    bool _active = false;
    Count _run = 0;
    Count _records = 0;
    Count _nextSample = 0;
    Count _lastSlice = 0;
    Count _lastCycles = 0;
    std::map<std::string, Count> _deltaSums;
    std::set<Count> _finished;
};

// Service streams (--service).

constexpr FieldSpec kServiceFields[] = {{"type", Type::String}};

constexpr FieldSpec kServiceMetaFields[] = {{"total_frames", Type::Count}};

constexpr FieldSpec kServiceEventFields[] = {{"kind", Type::String}};

constexpr FieldSpec kServiceSnapshotFields[] = {
    {"index", Type::Count},           {"slice", Type::Count},
    {"frames_admitted", Type::Count}, {"frames_completed", Type::Count},
    {"deltas", Type::Object},         {"forensics", Type::Object},
    {"ring", Type::Object}};

constexpr FieldSpec kServiceSummaryFields[] = {
    {"completed", Type::Bool},  {"frames_completed", Type::Count},
    {"snapshots", Type::Count}, {"events_applied", Type::Count}};

constexpr std::pair<std::string_view, FieldTable> kServiceRecordTypes[] = {
    {"meta", kServiceMetaFields},
    {"event", kServiceEventFields},
    {"snapshot", kServiceSnapshotFields},
    {"summary", kServiceSummaryFields}};

/** One service run per file: meta, then events and snapshots, then
 *  exactly one summary. */
class ServiceStream final : public LineInvariants
{
  public:
    std::string
    record(const Json &record, std::size_t line) override
    {
        if (_sawSummary)
            return "record after the summary (summary must be last)";
        const std::string &type = record.find("type")->str();
        const auto *kind = std::find_if(
            std::begin(kServiceRecordTypes), std::end(kServiceRecordTypes),
            [&type](const auto &entry) { return entry.first == type; });
        if (kind == std::end(kServiceRecordTypes))
            return "unknown record type " + record.find("type")->dump();
        if (std::string why = checkFields(record, kind->second); !why.empty())
            return type + ": " + why;
        const auto count = [&record](const char *key) {
            return record.find(key)->counter();
        };

        if (type == "meta") {
            if (_sawMeta)
                return "second meta record";
            if (line != 1)
                return "meta record is not the first line";
            if (count("total_frames") == 0)
                return "meta lacks a positive total_frames";
            _sawMeta = true;
            _totalFrames = count("total_frames");
            return "";
        }
        if (!_sawMeta)
            return "stream does not begin with a meta record";

        if (type == "event") {
            const std::string &event = record.find("kind")->str();
            if (event != "mtbe_degrade" && event != "remap")
                return "event kind is not mtbe_degrade/remap";
            ++_events;
            return "";
        }

        if (type == "snapshot") {
            const Count admitted = count("frames_admitted");
            if (count("index") != _snapshots)
                return cat("snapshot index ", count("index"),
                           " is not consecutive (expected ", _snapshots, ")");
            if (_snapshots > 0 && count("slice") < _lastSlice)
                return cat("snapshot slice ", count("slice"),
                           " decreases below ", _lastSlice);
            if (admitted < _lastAdmitted)
                return cat("frames_admitted ", admitted, " decreases");
            if (admitted > _totalFrames)
                return cat("frames_admitted ", admitted,
                           " exceeds total_frames");
            if (count("frames_completed") > admitted)
                return cat("frames_completed ", count("frames_completed"),
                           " exceeds frames_admitted");
            ++_snapshots;
            _lastSlice = count("slice");
            _lastAdmitted = admitted;
            return "";
        }

        if (record.find("completed")->boolean() &&
            count("frames_completed") != _totalFrames)
            return cat("summary claims completed but frames_completed ",
                       count("frames_completed"), " != total_frames ",
                       _totalFrames);
        if (count("snapshots") != _snapshots)
            return cat("summary snapshots ", count("snapshots"), " != ",
                       _snapshots, " snapshot records in the stream");
        if (count("events_applied") != _events)
            return cat("summary events_applied ", count("events_applied"),
                       " != ", _events, " event records in the stream");
        _sawSummary = true;
        return "";
    }

    std::string
    finish() override
    {
        return _sawSummary ? "" : "has no summary record";
    }

    std::string
    summary(std::size_t lines, std::size_t bad) const override
    {
        return cat(plural(lines, "service record", "service records"),
                   " checked (", _snapshots, " snapshots, ", _events,
                   " events), ", bad, " invalid");
    }

  private:
    bool _sawMeta = false;
    bool _sawSummary = false;
    Count _totalFrames = 0;
    Count _snapshots = 0;  //!< Snapshot records so far.
    Count _lastSlice = 0;
    Count _lastAdmitted = 0;
    Count _events = 0;     //!< Event records so far.
};

// The artifact table.

template <typename Invariants, auto... args>
std::unique_ptr<LineInvariants>
make()
{
    return std::make_unique<Invariants>(args...);
}

using Layout = ArtifactSpec::Layout;
constexpr int kRunVersion = metrics::kSchemaVersion;

const ArtifactSpec kArtifactSpecs[] = {
    {"", Layout::Lines, false, "record", "schema_version", kRunVersion,
     kRunFields, nullptr, make<RunRecords, false>},
    {"--forensics", Layout::Lines, false, "record", "schema_version",
     kRunVersion, kRunFields, nullptr, make<RunRecords, true>},
    {"--trace", Layout::Document, true, "trace file",
     "commguard.schema_version", kRunVersion, kTraceFields, checkTrace,
     nullptr},
    {"--scenarios", Layout::Document, false, "scenario list",
     "schema_version", kRunVersion, kScenarioListFields, checkScenarioList,
     nullptr},
    {"--repro", Layout::Document, true, "repro bundle", "schema_version",
     kRunVersion, {}, checkReproBundle, nullptr},
    {"--bench", Layout::Document, true, "bench document", "schema_version",
     kRunVersion, kBenchFields, checkBenchDocument, nullptr},
    {"--telemetry", Layout::Lines, false, "telemetry record",
     "telemetry_schema_version", telemetry::kTelemetrySchemaVersion,
     kTelemetryFields, nullptr, make<TelemetryRuns>},
    {"--service", Layout::Lines, false, "service record",
     "service_schema_version", kServiceSchemaVersion, kServiceFields,
     nullptr, make<ServiceStream>},
};

/** One record of a Lines artifact: object, version, fields, hook. */
std::string
checkRecord(const ArtifactSpec &spec, const std::string &line,
            std::size_t number, LineInvariants &invariants)
{
    Json record;
    const std::string why = checkObject(spec, line, record, "record");
    return why.empty() ? invariants.record(record, number) : why;
}

} // namespace

std::string
checkFields(const Json &object, FieldTable fields)
{
    if (!object.isObject())
        return "not an object";
    for (const FieldSpec &field : fields) {
        const Json *value = object.find(field.key);
        if (value == nullptr)
            return cat("missing field '", field.key, "'");
        if (const char *phrase = mismatch(*value, field.type))
            return cat("field '", field.key, "' is not ", phrase);
    }
    return "";
}

std::span<const ArtifactSpec>
artifactSpecs()
{
    return kArtifactSpecs;
}

const ArtifactSpec *
findArtifactSpec(std::string_view flag)
{
    for (const ArtifactSpec &spec : kArtifactSpecs) {
        if (flag == spec.flag)
            return &spec;
    }
    return nullptr;
}

ArtifactVerdict
checkArtifact(const ArtifactSpec &spec, const std::string &text,
              const std::string &name)
{
    ArtifactVerdict verdict;
    if (spec.layout == Layout::Document) {
        Json doc;
        std::string why = checkObject(spec, text, doc, "document");
        if (why.empty())
            why = spec.document(doc, verdict.summary);
        if (!why.empty())
            verdict = {{name + ": " + why}, ""};
        return verdict;
    }

    const std::unique_ptr<LineInvariants> invariants = spec.lines();
    std::istringstream in(text);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const std::string why = checkRecord(spec, line, ++lines, *invariants);
        if (!why.empty())
            verdict.errors.push_back(cat("line ", lines, ": ", why));
    }
    if (lines == 0)
        return {{cat(name, ": contains no ", spec.noun, "s")}, ""};
    if (const std::string why = invariants->finish(); !why.empty())
        verdict.errors.push_back(name + ": " + why);
    verdict.summary = invariants->summary(lines, verdict.errors.size());
    return verdict;
}

ArtifactVerdict
checkArtifactFile(const ArtifactSpec &spec, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return {{path + ": cannot open"}, ""};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return checkArtifact(spec, buffer.str(), path);
}

std::string
checkRunRecord(const std::string &line)
{
    RunRecords invariants(/*require_forensics=*/false);
    return checkRecord(*findArtifactSpec(""), line, 1, invariants);
}

} // namespace commguard::sim
