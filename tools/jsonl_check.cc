/**
 * @file
 * Schema self-checks for the machine-readable run artifacts: a thin
 * command line over sim/artifact_check.hh, which holds every rule.
 *
 * Usage:
 *   jsonl_check [--forensics] <runs.jsonl>   run records (CG_JSONL)
 *   jsonl_check --trace <trace.json>...      Perfetto traces
 *   jsonl_check --scenarios <list.json>      `cg_bench list --json`
 *   jsonl_check --repro <bundle.json>...     fuzz repro bundles
 *   jsonl_check --bench <bench.json>...      BENCH_<name>.json
 *   jsonl_check --telemetry <runs.jsonl>     CG_TELEMETRY_OUT streams
 *   jsonl_check --service <service.jsonl>    `cg_bench serve-run` streams
 *
 * Exit status 0 iff everything validates, 1 if anything is invalid or
 * unreadable, 2 on a usage error. Used by the `schema_check` build
 * target and scripts/check.sh.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/artifact_check.hh"

using namespace commguard;

namespace
{

int
usage()
{
    for (const sim::ArtifactSpec &spec : sim::artifactSpecs()) {
        std::fprintf(stderr, "%s jsonl_check %s%s<file>%s\n",
                     *spec.flag == '\0' ? "usage:" : "      ", spec.flag,
                     *spec.flag == '\0' ? "" : " ",
                     spec.multiFile ? "..." : "");
    }
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string flag;
    if (!args.empty() && args.front().starts_with("--")) {
        flag = args.front();
        args.erase(args.begin());
    } else if (args.size() == 2 && args.back() == "--forensics") {
        flag = args.back();
        args.pop_back();
    }
    const sim::ArtifactSpec *spec = sim::findArtifactSpec(flag);
    if (spec == nullptr || args.empty() ||
        (!spec->multiFile && args.size() != 1))
        return usage();

    std::size_t bad = 0;
    for (const std::string &path : args) {
        const sim::ArtifactVerdict verdict =
            sim::checkArtifactFile(*spec, path);
        for (const std::string &error : verdict.errors)
            std::fprintf(stderr, "%s\n", error.c_str());
        if (!verdict.summary.empty())
            std::printf("%s\n", verdict.summary.c_str());
        bad += verdict.ok() ? 0 : 1;
    }
    if (spec->multiFile) {
        std::printf("%zu %s%s checked, %zu invalid\n", args.size(),
                    spec->noun, args.size() == 1 ? "" : "s", bad);
    }
    return bad == 0 ? 0 : 1;
}
