/**
 * @file
 * service_stream: repeated sim::ServiceDriver sessions of fft under
 * CommGuard. Each session pushes bursty open-loop arrivals (virtual
 * time) through one long-lived machine, degrades one core's MTBE a
 * quarter of the way in and live-remaps the graph at the halfway mark.
 * It bypasses the per-run loader, SweepRunner, quality and JSONL
 * export, so changes there should not move it.
 */

#include <memory>

#include "apps/app.hh"
#include "bench.hh"
#include "sim/experiment_config.hh"
#include "sim/service_driver.hh"
#include "sim/sweep_runner.hh"

namespace perfbench
{

using namespace commguard;
using streamit::ProtectionMode;

namespace
{

constexpr Count kSessionFrames = 3'000;
constexpr double kSessionMtbe = 128'000;

struct ServiceState
{
    std::unique_ptr<apps::App> app;
    double buildSeconds = 0.0;
    std::uint64_t checksum = 0;
    std::string summary;
};

sim::ServiceConfig
sessionConfig(const Context &ctx, const apps::App &app)
{
    sim::ServiceConfig config;
    config.app = &app;
    config.load = sim::sweepOptions(ProtectionMode::CommGuard, true,
                                    kSessionMtbe, ctx.seedBase());
    config.totalFrames = kSessionFrames;
    config.arrivalSeed = 11 + ctx.seed;
    config.meanBurstFrames = 32;
    config.meanGapSlices = 8;
    config.maxBacklogFrames = 256;
    config.snapshotEveryFrames = kSessionFrames / 4;
    config.events.push_back({sim::ServiceEvent::Kind::MtbeDegrade,
                             kSessionFrames / 4, 1, 8.0, 0});
    config.events.push_back(
        {sim::ServiceEvent::Kind::Remap, kSessionFrames / 2, 0, 0, 1});
    return config;
}

/** A session must drain every admitted frame and repeat its bytes. */
bool
sessionOk(const sim::ServiceOutcome &outcome, const ServiceState &state)
{
    return outcome.completed && outcome.framesAdmitted == kSessionFrames &&
           outcome.framesCompleted == outcome.framesAdmitted &&
           outcome.outputChecksum == state.checksum &&
           outcome.summary.dump() == state.summary;
}

} // namespace

void
runServiceStream(Context &ctx)
{
    std::vector<double> setup_seconds;
    std::vector<double> build_seconds;
    std::unique_ptr<ServiceState> state;
    const double setup_started = nowSeconds();
    for (int repeat = 0; ctx.moreSetUps(repeat, setup_started); ++repeat) {
        state = std::make_unique<ServiceState>();
        NominalClock clock(ctx);
        const double start = nowSeconds();
        state->app = std::make_unique<apps::App>(apps::makeAppByName("fft"));
        state->buildSeconds = nowSeconds() - start;
        double setup = clock.lap();
        // Warm-up session: the reference every timed session repeats.
        const sim::ServiceOutcome warm =
            sim::ServiceDriver(sessionConfig(ctx, *state->app)).run();
        setup += clock.lap();
        setup_seconds.push_back(setup);
        state->checksum = warm.outputChecksum;
        state->summary = warm.summary.dump();
        build_seconds.push_back(state->buildSeconds);
        ctx.unit(warm.completed &&
                     warm.framesCompleted == warm.framesAdmitted &&
                     warm.framesAdmitted == kSessionFrames,
                 "warm-up session");
    }

    // The traced mode also runs the same app, mode, MTBE and seed as a
    // batch run: the machine's own ns per instruction, against which
    // the session's shows the service driver's overhead.
    const sim::RunDescriptor batch =
        sim::ExperimentConfig::app(*state->app)
            .mode(ProtectionMode::CommGuard)
            .mtbe(kSessionMtbe)
            .seedIndex(ctx.seedBase())
            .descriptor();
    sim::RunScratch scratch;

    std::vector<double> times, traced_times, batch_run, insts;
    double batch_insts = 0.0;
    std::map<std::string, double> counts;
    NominalClock clock(ctx);
    const double started = nowSeconds();
    for (int pass = 0; ctx.morePasses(pass, started); ++pass) {
        const sim::ServiceConfig config = sessionConfig(ctx, *state->app);
        clock.start();
        const sim::ServiceOutcome outcome = sim::ServiceDriver(config).run();
        times.push_back(clock.lap());
        insts.push_back(static_cast<double>(outcome.totalInstructions));
        bool ok = sessionOk(outcome, *state);
        if (pass < kSeedReplicas) {
            ctx.outputs.add(outcome.outputChecksum);
            ctx.outputs.add(outcome.summary.dump());
        }

        if (ctx.trace) {
            const long unit = ctx.nextUnit++;
            clock.start();
            const long span =
                ctx.spans.begin("sim.service_session", -1, unit);
            const sim::ServiceOutcome again =
                sim::ServiceDriver(config).run();
            ctx.spans.end(span);
            traced_times.push_back(clock.lap());
            ok = ok && sessionOk(again, *state);

            const TracedRun run = tracedRun(ctx, scratch, batch, false);
            batch_run.push_back(run.spanSeconds.at("machine.run"));
            batch_insts =
                static_cast<double>(run.outcome.totalInstructions());
            ok = ok && run.outcome.completed;
            clock.lap();
            if (pass < kSeedReplicas)
                addCounts(counts, snapshotCounts(run.outcome.snapshot));
        }
        ctx.unit(ok, "service session " + std::to_string(pass));
    }

    const double session_s = median(times);
    const double session_insts = median(insts);
    if (!ctx.trace) {
        setEndToEnd(ctx, median(setup_seconds), session_s, session_insts,
                    static_cast<double>(kSessionFrames));
        return;
    }

    const double traced_s = median(traced_times);
    const double run_ms = 1e3 * median(batch_run);
    ctx.set("apps.build_ms", 1e3 * median(build_seconds), "ms");
    ctx.set("sim.service_session_ms", 1e3 * traced_s, "ms");
    ctx.set("sim.service_ns_per_inst", traced_s * 1e9 / session_insts,
            "ns");
    ctx.set("machine.run_ms", run_ms, "ms");
    ctx.set("machine.ns_per_inst", run_ms * 1e6 / batch_insts, "ns");
    ctx.set("machine.ns_per_inst.commguard", run_ms * 1e6 / batch_insts,
            "ns");
    setLedger(ctx, counts, run_ms);
    ctx.set("trace.overhead_pct", 100.0 * (1.0 - session_s / traced_s),
            "%");
}

} // namespace perfbench
