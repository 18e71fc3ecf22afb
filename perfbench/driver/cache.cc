/**
 * @file
 * cache_replay: set-up fills a CG_CACHE_DIR result cache from a small
 * cold sweep (the write path); every timed unit is a warm
 * SweepRunner::runAll over the same descriptors, each run a hit served
 * by ResultCache lookup and sim::outcomeFromRecord (the read path). It
 * simulates nothing, so interpreter and ECC changes should not move
 * it. Shards are left out: they spawn processes.
 */

#include <cmath>
#include <filesystem>
#include <memory>

#include "apps/app.hh"
#include "bench.hh"
#include "common/json.hh"
#include "sim/experiment_config.hh"
#include "sim/result_cache.hh"
#include "sim/run_codec.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"

namespace perfbench
{

using namespace commguard;
using streamit::ProtectionMode;

namespace
{

struct CacheState
{
    std::vector<apps::App> apps;
    std::vector<sim::RunDescriptor> descriptors;
    std::unique_ptr<sim::SweepRunner> runner;
    /** Cold outcomes, digested, per descriptor. */
    std::vector<std::uint64_t> cold;
    std::vector<sim::RunOutcome> coldOutcomes;
    double buildSeconds = 0.0;
    /** Nominal seconds of the whole set-up. */
    double setupSeconds = 0.0;
};

/** Delete every entry so the next fill starts cold. */
void
emptyDirectory(const std::string &directory)
{
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(directory, ec))
        std::filesystem::remove(entry.path(), ec);
}

std::unique_ptr<CacheState>
setUp(Context &ctx)
{
    auto state = std::make_unique<CacheState>();
    NominalClock clock(ctx);
    const double start = nowSeconds();
    for (const std::string &name : apps::allAppNames())
        state->apps.push_back(apps::makeAppByName(name));
    state->buildSeconds = nowSeconds() - start;
    for (const apps::App &app : state->apps)
        for (ProtectionMode mode :
             {ProtectionMode::CommGuard, ProtectionMode::ReliableQueue})
            state->descriptors.push_back(sim::ExperimentConfig::app(app)
                                             .mode(mode)
                                             .mtbe(512'000)
                                             .seedIndex(ctx.seedBase())
                                             .descriptor());
    state->runner = std::make_unique<sim::SweepRunner>(
        1, sim::SweepRunner::Caching::Auto);
    state->setupSeconds += clock.lap();

    // The cold fill, one miss per runAll so each is its own interval.
    for (const sim::RunDescriptor &descriptor : state->descriptors) {
        const Count stores = sim::ResultCache::stats().stores.load();
        state->runner->enqueue(descriptor);
        clock.start();
        sim::RunOutcome outcome = state->runner->runAll().at(0);
        state->setupSeconds += clock.lap();
        const bool stored =
            sim::ResultCache::stats().stores.load() - stores == 1;
        ctx.unit(outcome.completed && stored, "cold fill run");
        state->cold.push_back(outcomeDigest(outcome));
        state->coldOutcomes.push_back(std::move(outcome));
    }
    return state;
}

} // namespace

void
runCacheReplay(Context &ctx)
{
    sim::ResultCache *cache = sim::ResultCache::process();
    if (cache == nullptr) {
        ctx.unit(false, "CG_CACHE_DIR is not set");
        return;
    }

    std::vector<double> setup_seconds;
    std::vector<double> build_seconds;
    std::unique_ptr<CacheState> state;
    const double setup_started = nowSeconds();
    for (int repeat = 0; ctx.moreSetUps(repeat, setup_started); ++repeat) {
        state.reset();
        emptyDirectory(cache->directory());
        state = setUp(ctx);
        setup_seconds.push_back(state->setupSeconds);
        build_seconds.push_back(state->buildSeconds);
    }
    const std::size_t n = state->descriptors.size();

    // The traced mode also times the write path, per entry: store()
    // rewrites each entry with the bytes the cold fill wrote.
    std::vector<std::vector<double>> store(n), lookup(n), decode(n);
    double entry_bytes = 0.0;
    if (ctx.trace) {
        for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
            for (std::size_t i = 0; i < n; ++i) {
                sim::ExecutedRun run;
                run.outcome = state->coldOutcomes[i];
                run.recordLine = sim::runRecordJson(state->descriptors[i],
                                                    run.outcome)
                                     .dump();
                const long span =
                    ctx.spans.begin("sim.cache_store", -1, ctx.nextUnit++);
                cache->store(state->descriptors[i], run);
                ctx.spans.end(span);
                store[i].push_back(ctx.spans.seconds(span));
            }
        }
        for (const sim::RunDescriptor &descriptor : state->descriptors)
            entry_bytes += static_cast<double>(std::filesystem::file_size(
                cache->directory() + "/" +
                sim::ResultCache::keyFor(descriptor) + ".json"));
    }

    std::vector<double> times, traced_times;
    double pass_insts = 0.0, pass_frames = 0.0, loss_sum = 0.0;
    std::vector<double> qualities;
    sim::ResultCacheStats &stats = sim::ResultCache::stats();
    const Count hits_before = stats.hits.load();
    const Count misses_before = stats.misses.load();
    NominalClock clock(ctx);
    const double started = nowSeconds();
    for (int pass = 0; ctx.morePasses(pass, started); ++pass) {
        const Count hits = stats.hits.load();
        for (const sim::RunDescriptor &descriptor : state->descriptors)
            state->runner->enqueue(descriptor);
        clock.start();
        const std::vector<sim::RunOutcome> outcomes =
            state->runner->runAll();
        times.push_back(clock.lap());
        bool ok = stats.hits.load() - hits == n;
        for (std::size_t i = 0; i < n; ++i)
            ok = ok && outcomeDigest(outcomes[i]) == state->cold[i];

        if (pass == 0) {
            for (std::size_t i = 0; i < n; ++i) {
                const sim::RunOutcome &outcome = outcomes[i];
                pass_insts +=
                    static_cast<double>(outcome.totalInstructions());
                pass_frames += static_cast<double>(
                    state->descriptors[i].app->steadyIterations);
                loss_sum += outcome.dataLossRatio();
                if (std::isfinite(outcome.qualityDb))
                    qualities.push_back(outcome.qualityDb);
            }
        }
        if (pass < kSeedReplicas)
            for (std::size_t i = 0; i < n; ++i)
                ctx.outputs.add(state->cold[i]);

        if (ctx.trace) {
            const long unit = ctx.nextUnit++;
            clock.start();
            const long root = ctx.spans.begin("cache.pass", -1, unit);
            std::vector<sim::ExecutedRun> runs(n);
            for (std::size_t i = 0; i < n; ++i) {
                const long span =
                    ctx.spans.begin("sim.cache_lookup", root, unit);
                ok = cache->lookup(state->descriptors[i], &runs[i]) && ok;
                ctx.spans.end(span);
                lookup[i].push_back(ctx.spans.seconds(span));
            }
            ctx.spans.end(root);
            traced_times.push_back(clock.lap());
            // The record-decoding share of a hit, timed on its own.
            for (std::size_t i = 0; i < n; ++i) {
                const long span = ctx.spans.begin("sim.decode", -1, unit);
                Json record;
                ok = Json::parse(runs[i].recordLine, record) && ok;
                const sim::RunOutcome decoded = sim::outcomeFromRecord(
                    record, runs[i].outcome.output);
                ctx.spans.end(span);
                decode[i].push_back(ctx.spans.seconds(span));
                ok = ok && outcomeDigest(decoded) == state->cold[i];
            }
            clock.lap();
        }
        ctx.unit(ok, "warm replay pass " + std::to_string(pass));
    }

    ctx.exact("data_loss_ppm",
              1e6 * loss_sum / static_cast<double>(n));
    ctx.exact("quality_db", median(qualities));
    const double pass_s = median(times);
    if (!ctx.trace) {
        setEndToEnd(ctx, median(setup_seconds), pass_s, pass_insts,
                    pass_frames);
        return;
    }

    const auto sum_ms = [](const std::vector<std::vector<double>> &s) {
        double sum = 0.0;
        for (const std::vector<double> &samples : s)
            sum += 1e3 * median(samples);
        return sum;
    };
    const Count hits = stats.hits.load() - hits_before;
    const Count lookups = hits + stats.misses.load() - misses_before;
    ctx.set("apps.build_ms", 1e3 * median(build_seconds), "ms");
    ctx.set("sim.cache_store_ms", sum_ms(store), "ms");
    ctx.set("sim.cache_lookup_ms", sum_ms(lookup), "ms");
    ctx.set("sim.decode_ms", sum_ms(decode), "ms");
    ctx.set("sim.cache_entry_kb",
            entry_bytes / static_cast<double>(n) / 1024.0, "KiB");
    ctx.set("sim.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(hits) /
                              static_cast<double>(lookups)
                        : 0.0,
            "ratio");
    ctx.set("trace.overhead_pct",
            100.0 * (1.0 - pass_s / median(traced_times)), "%");
}

} // namespace perfbench
