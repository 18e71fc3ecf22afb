/**
 * @file
 * Benchmark driver entry point:
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --out <dir>
 *                    --python <exe> --reference <script>
 *
 * Runs one workload on one host worker thread and prints, as the last
 * line of stdout, {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. The line before it carries the output digest and the
 * exact simulation results, which must not depend on the trace mode.
 * Spans of the traced mode go to <dir>/spans_<workload>_<seed>.jsonl.
 */

#include <sched.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "bench.hh"
#include "common/json.hh"
#include "sim/env_options.hh"

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload "
                 "<figure_sweep|protection_sweep|service_stream|"
                 "cache_replay> --seed <n> --seconds <s> --trace <0|1> "
                 "--out <dir> --python <exe> --reference <script>\n";
    return 2;
}

bool
parseUnsigned(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.size() > 18 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::stoull(text);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1)
        return usage("every flag takes one value");
    for (const char *flag :
         {"--workload", "--seed", "--seconds", "--trace", "--out",
          "--python", "--reference"})
        if (args.count(flag) == 0)
            return usage(std::string("missing ") + flag);

    Context ctx;
    ctx.workload = args["--workload"];
    std::uint64_t seconds = 0;
    std::uint64_t trace = 0;
    if (!parseUnsigned(args["--seed"], &ctx.seed))
        return usage("--seed must be a non-negative integer");
    if (!parseUnsigned(args["--seconds"], &seconds) || seconds == 0 ||
        seconds > 120)
        return usage("--seconds must be an integer in 1..120");
    if (!parseUnsigned(args["--trace"], &trace) || trace > 1)
        return usage("--trace must be 0 or 1");
    ctx.seconds = static_cast<double>(seconds);
    ctx.trace = trace == 1;
    ctx.outDir = args["--out"];

    // Each workload with its reference elasticity, fitted on traces of
    // its units against the reference (README.md, "Noise").
    const std::map<std::string,
                   std::pair<std::function<void(Context &)>, double>>
        workloads = {
            {"figure_sweep", {runFigureSweep, 0.7}},
            {"protection_sweep", {runProtectionSweep, 0.9}},
            {"service_stream", {runServiceStream, 0.9}},
            {"cache_replay", {runCacheReplay, 0.5}},
        };
    const auto workload = workloads.find(ctx.workload);
    if (workload == workloads.end())
        return usage("unknown workload '" + ctx.workload + "'");
    ctx.referenceElasticity = workload->second.second;

    std::error_code ec;
    std::filesystem::create_directories(ctx.outDir + "/cache", ec);
    if (ec)
        return usage("cannot create " + ctx.outDir + ": " + ec.message());

    // One host worker thread; only the knobs this workload needs, set
    // before the library parses the environment for the first time.
    setenv("CG_JOBS", "1", 1);
    if (ctx.workload == "protection_sweep")
        setenv("CG_JSONL", (ctx.outDir + "/protection_sweep.jsonl").c_str(),
               1);
    if (ctx.workload == "cache_replay") {
        commguard::sim::allowEnvKey("CG_CACHE_DIR");
        setenv("CG_CACHE_DIR", (ctx.outDir + "/cache").c_str(), 1);
    }

    // Pin to the CPU we start on, before the reference co-process is
    // forked so that it inherits the mask: on a shared host each CPU
    // drifts on its own, and the reference only tracks the speed of the
    // CPU it runs on. The two processes take turns, so they never
    // compete for it.
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    // A dead reference co-process must fail a measurement, not kill us.
    std::signal(SIGPIPE, SIG_IGN);
    HostReference host(args["--python"], args["--reference"]);
    ctx.host = &host;
    if (host.measure() <= 0.0)
        return usage("the host reference co-process does not answer");

    if (ctx.trace) {
        for (const auto &[name, unit] : perLayerMetrics())
            ctx.set(name, 0.0, unit);
        runProbes(ctx);
    }
    workload->second.first(ctx);
    if (ctx.trace)
        ctx.set("host.reference_ms", 1e3 * median(ctx.references), "ms");

    commguard::Json metrics = commguard::Json::object();
    for (const auto &[name, metric] : ctx.metrics) {
        commguard::Json value = commguard::Json::object();
        value["value"] = commguard::Json(metric.value);
        value["unit"] = commguard::Json(metric.unit);
        metrics[name] = value;
    }
    commguard::Json exacts = commguard::Json::object();
    for (const auto &[name, value] : ctx.exacts) {
        exacts[name] = commguard::Json(value);
        if (ctx.trace)
            metrics[name]["value"] = commguard::Json(value);
    }

    if (ctx.trace) {
        const std::string path = ctx.outDir + "/spans_" + ctx.workload +
                                  "_" + std::to_string(ctx.seed) + ".jsonl";
        if (!ctx.spans.write(path))
            ctx.unit(false, "write spans to " + path);
    }

    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(ctx.outputs.value()));
    commguard::Json info = commguard::Json::object();
    info["digest"] = commguard::Json(digest);
    info["exact"] = exacts;
    std::cout << "perfbench " << info.dump() << "\n";

    commguard::Json result = commguard::Json::object();
    result["correct"] = commguard::Json(ctx.failed == 0);
    result["attempted"] = commguard::Json(ctx.attempted);
    result["failed"] = commguard::Json(ctx.failed);
    result["metrics"] = metrics;
    std::cout << result.dump() << std::endl;
    return 0;
}
