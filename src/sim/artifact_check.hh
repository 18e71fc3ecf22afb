/**
 * @file
 * One validator for every machine-readable artifact the toolchain
 * writes: what a valid artifact is, spelled once. `jsonl_check` is its
 * command line; cg_fuzz checks every run record with it.
 *
 * Each kind is one ArtifactSpec row: its flag, its layout (one JSON
 * document, or JSON lines), its version field, a typed field table
 * checked before any accessor reads a value, and a hook for the rules
 * that span fields or records. Beyond its table, each kind requires:
 *
 *  - run records (default; `--forensics`), CG_JSONL output: a
 *    protection_mode the registry knows; a snapshot that
 *    metrics::snapshotFromJson() accepts and that re-serializes to the
 *    same canonical counters/gauges text; a "forensics" section
 *    (traced runs; required under --forensics) with three
 *    distributions of [value, count] histogram bins and an empty
 *    conservation_errors array.
 *  - `--trace`, CG_TRACE_EVENTS Perfetto documents: instant events per
 *    name, and counter events as queueDepth, never exceed the
 *    event_counts sidecar and equal it when nothing was dropped; every
 *    streamed instant name appears in event_counts.
 *  - `--scenarios`, the `cg_bench list --json` catalogue: non-empty
 *    string tags; names sorted and unique.
 *  - `--repro`, fuzz repro bundles (docs/FUZZING.md):
 *    reproBundleFromJson() accepts the bundle, and the embedded case
 *    survives its canonical round trip.
 *  - `--bench`, BENCH_<name>.json: string headers; rows as wide as the
 *    headers; a table keyed by run descriptor (headers app, mtbe and
 *    seed) never repeats a configuration, since a duplicate row means a
 *    sweep merge double-counted a run.
 *  - `--telemetry`, CG_TELEMETRY_OUT streams (docs/TELEMETRY.md): a
 *    registered mode; records contiguous per run, consecutive sample
 *    indices, increasing slices, non-decreasing cycles, sparse non-zero
 *    deltas; one final record per run whose samples_taken is
 *    samples_dropped plus the streamed records and, with nothing
 *    dropped, whose cumulative totals equal the delta sums.
 *  - `--service`, `cg_bench serve-run` streams (docs/SERVICE.md): a
 *    meta record first with a positive total_frames; events of kind
 *    mtbe_degrade or remap; snapshots with consecutive indices,
 *    non-decreasing slices and admissions, admissions within
 *    total_frames and completions within admissions; one summary,
 *    last, whose snapshot and event counts match the stream and which
 *    claims completion only with every frame completed.
 *
 * Counts (versions, indices, frame and event counts) must be
 * non-negative integers: a string, a fraction or a negative value is
 * rejected, never truncated. Bad input of any shape is rejected with a
 * diagnostic; it never aborts the checker.
 */

#ifndef COMMGUARD_SIM_ARTIFACT_CHECK_HH
#define COMMGUARD_SIM_ARTIFACT_CHECK_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"

namespace commguard::sim
{

/** What a field-table row demands of its value. */
enum class FieldType : std::uint8_t
{
    Any,
    Number,
    Count,  //!< Non-negative integer (Json::isCount()).
    String,
    NonEmptyString,
    Bool,
    Object,
    Array,
    NonEmptyArray,
};

struct FieldSpec
{
    const char *key;
    FieldType type;
};

using FieldTable = std::span<const FieldSpec>;

/** "" when every row of @p fields is a member of @p object with the
 *  demanded type, else the diagnostic of the first violation. */
std::string checkFields(const Json &object, FieldTable fields);

/** Cross-record rules of one JSON-lines artifact (artifact_check.cc). */
class LineInvariants;

/** One artifact kind (file comment). */
struct ArtifactSpec
{
    enum class Layout : std::uint8_t { Document, Lines };

    const char *flag;        //!< jsonl_check flag; "" for run records.
    Layout layout;
    bool multiFile;          //!< Takes several files (documents only).
    const char *noun;        //!< Summary noun: "trace file", "record".
    const char *versionKey;  //!< Dotted path of the version field.
    int version;             //!< The only accepted version.
    FieldTable fields;       //!< Checked on the document / each record.

    /** Document layout: the cross-field rules, "" when they hold. May
     *  set @p summary, the kind's own stdout line. */
    std::string (*document)(const Json &doc, std::string &summary);

    /** Lines layout: fresh cross-record state for one file. */
    std::unique_ptr<LineInvariants> (*lines)();
};

/** Every artifact kind, in jsonl_check's usage order. */
std::span<const ArtifactSpec> artifactSpecs();

/** The kind behind @p flag ("" for run records); nullptr if none. */
const ArtifactSpec *findArtifactSpec(std::string_view flag);

struct ArtifactVerdict
{
    /** Diagnostics, ready to print: "line N: ..." for a record,
     *  "<name>: ..." for a document or the file as a whole. */
    std::vector<std::string> errors;

    /** The kind's own stdout summary line ("" when it prints none). */
    std::string summary;

    bool ok() const { return errors.empty(); }
};

/** Check @p text as one @p spec artifact called @p name. */
ArtifactVerdict checkArtifact(const ArtifactSpec &spec,
                              const std::string &text,
                              const std::string &name);

/** checkArtifact() on the contents of @p path. */
ArtifactVerdict checkArtifactFile(const ArtifactSpec &spec,
                                  const std::string &path);

/** The run-record check on one CG_JSONL line: "" or the diagnostic. */
std::string checkRunRecord(const std::string &line);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_ARTIFACT_CHECK_HH
