/**
 * @file
 * The two batch-sweep workloads: figure_sweep (Fig. 8: CommGuard on all
 * six apps at a low, a middle and a high MTBE) and protection_sweep
 * (the pareto shape without CommGuard, JSONL records on). Both go
 * through sim::SweepRunner at one host job; the traced mode repeats
 * every unit through the decomposed public path (load, run, quality,
 * snapshot, record) with a span around each call.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "apps/app.hh"
#include "bench.hh"
#include "sim/experiment_config.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"

namespace perfbench
{

using namespace commguard;
using streamit::ProtectionMode;

namespace
{

struct SweepSpec
{
    std::vector<std::string> apps;
    std::vector<ProtectionMode> modes;
    std::vector<double> mtbes;
    /** Mode of the error-free control run made for every app. */
    ProtectionMode controlMode = ProtectionMode::CommGuard;
    /** Per-run JSONL records are on (CG_JSONL, set by main). */
    bool records = false;
};

struct Config
{
    std::size_t app = 0;
    ProtectionMode mode = ProtectionMode::CommGuard;
    double mtbe = 0.0;
};

/** What one set-up builds; every repeat builds it from scratch. */
struct SweepState
{
    std::vector<apps::App> apps;
    std::unique_ptr<sim::SweepRunner> runner;
    sim::RunScratch scratch;
    double buildSeconds = 0.0;
    /** Nominal seconds of the whole set-up. */
    double setupSeconds = 0.0;
    /** First digest seen per (configuration, seed replica). */
    std::map<std::pair<std::size_t, int>, std::uint64_t> reference;
};

std::string
describe(const SweepState &state, const Config &config, int replica)
{
    char text[160];
    std::snprintf(text, sizeof(text), "%s/%s mtbe=%.0f replica=%d",
                  state.apps[config.app].name.c_str(),
                  streamit::protectionModeName(config.mode), config.mtbe,
                  replica);
    return text;
}

sim::RunDescriptor
descriptorFor(const Context &ctx, const SweepState &state,
              const Config &config, int replica)
{
    return sim::ExperimentConfig::app(state.apps[config.app])
        .mode(config.mode)
        .mtbe(config.mtbe)
        .seedIndex(ctx.seedBase() + replica)
        .descriptor();
}

/** Check a unit against the first digest of its (config, replica). */
bool
matchesReference(SweepState &state, std::size_t config, int replica,
                 std::uint64_t digest)
{
    const auto [it, inserted] =
        state.reference.try_emplace({config, replica}, digest);
    return inserted || it->second == digest;
}

/**
 * The error-free oracle of tests/apps_test.cc: the SNR apps match their
 * host models bit for bit (+inf dB); jpeg and mp3 are scored against
 * the original media, and their VM decode lands within 0.35 dB of the
 * host decoder's baseline.
 */
bool
errorFreeQualityOk(const apps::App &app, const sim::RunOutcome &outcome)
{
    if (std::isinf(app.errorFreeQualityDb))
        return outcome.qualityDb == app.errorFreeQualityDb;
    return std::fabs(outcome.qualityDb - app.errorFreeQualityDb) <= 0.35;
}

/**
 * Set-up: build the apps, warm up every (app, mode) graph once at the
 * middle MTBE (this fills the runner's LoaderScratch and RecyclePool),
 * then make one error-free control run per app, which must reproduce
 * App::errorFreeQualityDb exactly.
 */
std::unique_ptr<SweepState>
setUp(Context &ctx, const SweepSpec &spec,
      const std::vector<Config> &configs)
{
    auto state = std::make_unique<SweepState>();
    // Each step is its own interval, so host drift within the set-up is
    // tracked step by step.
    NominalClock clock(ctx);
    const double start = nowSeconds();
    for (const std::string &name : spec.apps)
        state->apps.push_back(apps::makeAppByName(name));
    state->buildSeconds = nowSeconds() - start;
    state->runner = std::make_unique<sim::SweepRunner>(
        1, sim::SweepRunner::Caching::Off);
    state->setupSeconds += clock.lap();

    const double warm_mtbe = spec.mtbes[spec.mtbes.size() / 2];
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (configs[c].mtbe != warm_mtbe)
            continue;
        state->runner->enqueue(descriptorFor(ctx, *state, configs[c], 0));
        const sim::RunOutcome outcome = state->runner->runAll().at(0);
        state->setupSeconds += clock.lap();
        const bool ok = outcome.completed &&
                        matchesReference(*state, c, 0,
                                         outcomeDigest(outcome));
        ctx.unit(ok, "warm-up " + describe(*state, configs[c], 0));
    }

    for (const apps::App &app : state->apps) {
        const sim::RunOutcome outcome = sim::runOnce(
            app, sim::sweepOptions(spec.controlMode, false, warm_mtbe,
                                   ctx.seedBase()));
        state->setupSeconds += clock.lap();
        ctx.unit(outcome.completed && errorFreeQualityOk(app, outcome),
                 "error-free control " + app.name + ": " +
                     std::to_string(outcome.qualityDb) + " dB against " +
                     std::to_string(app.errorFreeQualityDb));
    }
    return state;
}

/** Per-configuration samples of one measured quantity. */
using Samples = std::vector<std::vector<double>>;

/** Sum over configurations of each one's median. */
double
sumOfMedians(const Samples &samples)
{
    double sum = 0.0;
    for (const std::vector<double> &s : samples)
        sum += median(s);
    return sum;
}

void
runSweep(Context &ctx, const SweepSpec &spec)
{
    std::vector<Config> configs;
    for (double mtbe : spec.mtbes)
        for (std::size_t a = 0; a < spec.apps.size(); ++a)
            for (ProtectionMode mode : spec.modes)
                configs.push_back(Config{a, mode, mtbe});
    const std::size_t n = configs.size();
    const char *jsonl = std::getenv("CG_JSONL");

    std::vector<double> setup_seconds;
    std::vector<double> build_seconds;
    std::unique_ptr<SweepState> state;
    const double setup_started = nowSeconds();
    for (int repeat = 0; ctx.moreSetUps(repeat, setup_started); ++repeat) {
        state.reset();
        state = setUp(ctx, spec, configs);
        setup_seconds.push_back(state->setupSeconds);
        build_seconds.push_back(state->buildSeconds);
        if (jsonl != nullptr)
            std::remove(jsonl);
    }

    // Seed replicas differ in work (abft by up to a fifth), so a unit's
    // time is taken per simulated instruction, and a configuration's
    // median per-instruction time is scaled by its mean work over the
    // replicas of the first kSeedReplicas passes.
    Samples per_inst(n), traced_per_inst(n);
    std::vector<double> insts(n, 0.0);
    std::map<std::string, Samples> layers;
    double loss_sum = 0.0;
    Count loss_runs = 0;
    std::vector<double> qualities;
    std::map<std::string, double> counts;
    double record_bytes_sum = 0.0;
    Count records = 0;

    NominalClock clock(ctx);
    const double started = nowSeconds();
    for (int pass = 0; ctx.morePasses(pass, started); ++pass) {
        const int replica = pass % kSeedReplicas;
        // Interleave: each pass starts one configuration later, so no
        // configuration always runs right after the same neighbour.
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t c = (k + static_cast<std::size_t>(pass)) % n;
            const sim::RunDescriptor descriptor =
                descriptorFor(ctx, *state, configs[c], replica);
            state->runner->enqueue(descriptor);
            clock.start();
            const sim::RunOutcome outcome = state->runner->runAll().at(0);
            const double seconds = clock.lap();
            const double unit_insts = std::max<double>(
                1.0, static_cast<double>(outcome.totalInstructions()));
            per_inst[c].push_back(seconds / unit_insts);
            if (pass < kSeedReplicas)
                insts[c] += unit_insts / kSeedReplicas;

            std::uint64_t digest = outcomeDigest(outcome);
            bool ok = outcome.completed &&
                      matchesReference(*state, c, replica, digest);
            if (ctx.trace) {
                clock.start();
                const TracedRun traced = tracedRun(
                    ctx, state->scratch, descriptor, spec.records);
                traced_per_inst[c].push_back(clock.lap() / unit_insts);
                for (const auto &[name, seconds] : traced.spanSeconds) {
                    Samples &samples = layers[name];
                    samples.resize(n);
                    samples[c].push_back(seconds);
                }
                const std::uint64_t traced_digest =
                    outcomeDigest(traced.outcome);
                ok = ok && traced_digest == digest;
                digest = traced_digest;
                if (pass < kSeedReplicas && spec.records) {
                    record_bytes_sum += traced.recordBytes;
                    ++records;
                }
            }
            ctx.unit(ok, describe(*state, configs[c], replica));

            if (pass < kSeedReplicas) {
                ctx.outputs.add(digest);
                loss_sum += outcome.dataLossRatio();
                ++loss_runs;
                if (std::isfinite(outcome.qualityDb))
                    qualities.push_back(outcome.qualityDb);
                addCounts(counts, snapshotCounts(outcome.snapshot));
            }
        }
        if (jsonl != nullptr)
            std::remove(jsonl);
    }

    const auto pass_seconds = [&](const Samples &samples) {
        double sum = 0.0;
        for (std::size_t c = 0; c < n; ++c)
            sum += median(samples[c]) * insts[c];
        return sum;
    };
    const double sweep_s = pass_seconds(per_inst);
    double sweep_insts = 0.0;
    for (double config_insts : insts)
        sweep_insts += config_insts;
    ctx.exact("data_loss_ppm",
              1e6 * loss_sum / static_cast<double>(loss_runs));
    ctx.exact("quality_db", median(qualities));
    if (!ctx.trace) {
        double frames = 0.0;
        for (const Config &config : configs)
            frames += static_cast<double>(
                state->apps[config.app].steadyIterations);
        setEndToEnd(ctx, median(setup_seconds), sweep_s, sweep_insts,
                    frames);
        return;
    }

    const auto layer_ms = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : 1e3 * sumOfMedians(it->second);
    };
    const double unit_ms = layer_ms("unit");
    const double run_ms = layer_ms("machine.run");
    ctx.set("apps.build_ms", 1e3 * median(build_seconds), "ms");
    ctx.set("streamit.load_ms", layer_ms("streamit.load"), "ms");
    ctx.set("streamit.load_share", layer_ms("streamit.load") / unit_ms,
            "ratio");
    ctx.set("machine.run_ms", run_ms, "ms");
    ctx.set("machine.ns_per_inst", run_ms * 1e6 / sweep_insts, "ns");
    for (ProtectionMode mode : spec.modes) {
        double mode_ms = 0.0;
        double mode_insts = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            if (configs[c].mode != mode)
                continue;
            mode_ms += 1e3 * median(layers["machine.run"][c]);
            mode_insts += insts[c];
        }
        ctx.set(std::string("machine.ns_per_inst.") +
                    streamit::protectionModeName(mode),
                mode_ms * 1e6 / mode_insts, "ns");
    }
    ctx.set("media.quality_ms", layer_ms("media.quality"), "ms");
    ctx.set("metrics.snapshot_ms", layer_ms("metrics.snapshot"), "ms");
    ctx.set("sim.record_ms", layer_ms("sim.record"), "ms");
    ctx.set("sim.record_kb",
            records > 0 ? record_bytes_sum / static_cast<double>(records) /
                              1024.0
                        : 0.0,
            "KiB");
    setLedger(ctx, counts, run_ms);
    // Traced sim_mips below untraced, over the same units.
    ctx.set("trace.overhead_pct",
            100.0 * (1.0 - sweep_s / pass_seconds(traced_per_inst)), "%");
}

} // namespace

void
runFigureSweep(Context &ctx)
{
    SweepSpec spec;
    spec.apps = apps::allAppNames();
    spec.modes = {ProtectionMode::CommGuard};
    spec.mtbes = {64'000, 512'000, 8'192'000};
    spec.controlMode = ProtectionMode::CommGuard;
    runSweep(ctx, spec);
}

void
runProtectionSweep(Context &ctx)
{
    SweepSpec spec;
    spec.apps = {"complex-fir", "fft", "jpeg"};
    spec.modes = {ProtectionMode::Raw, ProtectionMode::ReliableQueue,
                  ProtectionMode::Replicate, ProtectionMode::Abft};
    spec.mtbes = {256'000};
    spec.controlMode = ProtectionMode::ReliableQueue;
    spec.records = true;
    runSweep(ctx, spec);
}

} // namespace perfbench
