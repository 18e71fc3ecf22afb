#include "bench.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "commguard/alignment_manager.hh"
#include "commguard/header_inserter.hh"
#include "common/ecc.hh"
#include "common/json.hh"
#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/ring_queue.hh"
#include "queue/working_set_queue.hh"
#include "sim/run_export.hh"

namespace perfbench
{

using namespace commguard;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Digest::add(const void *bytes, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
        _hash ^= p[i];
        _hash *= 1099511628211ull;
    }
}

std::uint64_t
outcomeDigest(const sim::RunOutcome &outcome)
{
    Digest digest;
    digest.add(outcome.output.data(),
               outcome.output.size() * sizeof(Word));
    digest.add(metrics::snapshotToJson(outcome.snapshot).dump());
    return digest.value();
}

long
SpanLog::begin(const std::string &name, long parent, long unit)
{
    _spans.push_back(Span{name, nowSeconds(), 0.0, parent, unit});
    return static_cast<long>(_spans.size()) - 1;
}

void
SpanLog::end(long span)
{
    _spans[static_cast<std::size_t>(span)].end = nowSeconds();
}

double
SpanLog::seconds(long span) const
{
    const Span &s = _spans[static_cast<std::size_t>(span)];
    return s.end - s.start;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const double origin = _spans.empty() ? 0.0 : _spans.front().start;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        Json record = Json::object();
        record["id"] = Json(static_cast<std::int64_t>(i));
        record["name"] = Json(s.name);
        record["parent"] = Json(static_cast<std::int64_t>(s.parent));
        record["unit"] = Json(static_cast<std::int64_t>(s.unit));
        record["start_us"] = Json((s.start - origin) * 1e6);
        record["end_us"] = Json((s.end - origin) * 1e6);
        out << record.dump() << '\n';
    }
    return static_cast<bool>(out);
}

HostReference::HostReference(const std::string &python,
                             const std::string &script)
{
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0)
        return;
    if (pipe(from_child) != 0) {
        close(to_child[0]);
        close(to_child[1]);
        return;
    }
    std::fflush(nullptr);
    _pid = fork();
    if (_pid == 0) {
        dup2(to_child[0], STDIN_FILENO);
        dup2(from_child[1], STDOUT_FILENO);
        close(to_child[0]);
        close(to_child[1]);
        close(from_child[0]);
        close(from_child[1]);
        execlp(python.c_str(), python.c_str(), script.c_str(),
               static_cast<char *>(nullptr));
        _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    if (_pid < 0) {
        close(to_child[1]);
        close(from_child[0]);
        return;
    }
    _to = fdopen(to_child[1], "w");
    _from = fdopen(from_child[0], "r");
}

HostReference::~HostReference()
{
    if (_to != nullptr)
        std::fclose(_to);
    if (_from != nullptr)
        std::fclose(_from);
    if (_pid > 0) {
        int status = 0;
        waitpid(_pid, &status, 0);
    }
}

double
HostReference::measure()
{
    double seconds = 0.0;
    if (_to == nullptr || _from == nullptr ||
        std::fputs("run\n", _to) < 0 || std::fflush(_to) != 0 ||
        std::fscanf(_from, "%lf", &seconds) != 1)
        return 0.0;
    return seconds;
}

double
Context::reference()
{
    const long span = trace ? spans.begin("host.reference", -1, -1) : -1;
    const double seconds = host != nullptr ? host->measure() : 0.0;
    if (span >= 0)
        spans.end(span);
    if (seconds <= 0.0) {
        unit(false, "host reference measurement");
        return kNominalReferenceSeconds;
    }
    references.push_back(seconds);
    return seconds;
}

NominalClock::NominalClock(Context &ctx)
    : _ctx(ctx), _before(ctx.reference()), _start(nowSeconds())
{
}

double
NominalClock::lap()
{
    const double seconds = nowSeconds() - _start;
    const double after = _ctx.reference();
    const double ratio = kNominalReferenceSeconds / (0.5 * (_before + after));
    const double nominal_seconds =
        seconds * std::pow(ratio, _ctx.referenceElasticity);
    _before = after;
    _start = nowSeconds();
    return nominal_seconds;
}

void
Context::unit(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: FAILED unit: " << what << "\n";
    }
}

bool
Context::morePasses(int passes_done, double started) const
{
    // A fixed minimum keeps the exact metrics a function of the seed;
    // the cap keeps a slow host inside the per-run time limit.
    constexpr double kHardCapSeconds = 150.0;
    const double elapsed = nowSeconds() - started;
    if (elapsed > kHardCapSeconds)
        return false;
    return passes_done < kSeedReplicas || elapsed < seconds;
}

bool
Context::moreSetUps(int repeats_done, double started) const
{
    // A set-up of well under a second is too short to time steadily
    // three times; repeat it for kSetupSeconds instead, within a cap.
    constexpr int kMaxSetupRepeats = 15;
    return repeats_done < kSetupRepeats ||
           (repeats_done < kMaxSetupRepeats &&
            nowSeconds() - started < kSetupSeconds);
}

void
setEndToEnd(Context &ctx, double setup_s, double pass_s,
            double pass_insts, double pass_frames)
{
    ctx.set("setup_s", setup_s, "s");
    ctx.set("sweep_s", pass_s, "s");
    ctx.set("sim_mips", pass_insts / pass_s / 1e6, "Minst/s");
    ctx.set("frames_per_s", pass_frames / pass_s, "frames/s");
    ctx.set("peak_rss_mb", peakRssMb(), "MiB");
}

TracedRun
tracedRun(Context &ctx, sim::RunScratch &scratch,
          const sim::RunDescriptor &descriptor, bool record)
{
    const apps::App &app = *descriptor.app;
    const long unit = ctx.nextUnit++;
    SpanLog &spans = ctx.spans;
    TracedRun traced;
    const long root = spans.begin("unit", -1, unit);
    const auto timed = [&](const char *name, auto &&call) {
        const long span = spans.begin(name, root, unit);
        call();
        spans.end(span);
        traced.spanSeconds[name] = spans.seconds(span);
    };

    sim::RunOutcome &outcome = traced.outcome;
    {
        // As in a one-run SweepRunner batch: program caches start
        // empty, buffer freelists stay warm.
        scratch.beginBatch();
        streamit::LoadedApp loaded;
        timed("streamit.load", [&] {
            loaded = streamit::loadGraph(app.graph, app.input,
                                         app.steadyIterations,
                                         descriptor.options,
                                         &scratch.loader);
        });
        MachineRunResult result;
        timed("machine.run", [&] { result = loaded.run(); });
        timed("media.quality", [&] {
            outcome.completed = result.completed;
            outcome.output = loaded.collector->takeItems();
            outcome.qualityDb = app.quality(outcome.output);
        });
        timed("metrics.snapshot", [&] {
            outcome.snapshot = loaded.machine->metrics().snapshot();
            outcome.snapshot.setCounter("run/completed",
                                        result.completed ? 1 : 0);
            outcome.snapshot.setCounter("run/outputItems",
                                        outcome.output.size());
            outcome.snapshot.setGauge("run/qualityDb", outcome.qualityDb);
        });
    }
    if (record) {
        timed("sim.record", [&] {
            traced.recordBytes = static_cast<double>(
                sim::runRecordJson(descriptor, outcome).dump().size());
        });
    }
    spans.end(root);
    traced.spanSeconds["unit"] = spans.seconds(root);
    return traced;
}

namespace
{

/** Median ns per op over several timed loops of @p body(iterations). */
template <typename Body>
double
nsPerOp(Count iterations, Body body)
{
    constexpr int kLoops = 7;
    std::vector<double> samples;
    for (int loop = 0; loop < kLoops; ++loop) {
        const double start = nowSeconds();
        body(iterations);
        samples.push_back((nowSeconds() - start) * 1e9 /
                          static_cast<double>(iterations));
    }
    return median(samples);
}

/** Keeps probe results observable so loops are not folded away. */
volatile std::uint64_t probeSink = 0;

double
aluNsPerInst()
{
    // ALU-only loop on a one-core machine: the interpreter with no
    // communication layer at all (as in micro_machine).
    isa::Assembler a("alu");
    a.forDown(isa::R30, 50'000, [&] {
        a.addi(isa::R1, isa::R1, 3);
        a.xor_(isa::R2, isa::R1, isa::R2);
        a.slli(isa::R3, isa::R1, 2);
        a.add(isa::R2, isa::R2, isa::R3);
    });
    const isa::Program program = a.finalize();
    std::vector<double> samples;
    for (int loop = 0; loop < 7; ++loop) {
        Multicore machine;
        Core &core = machine.addCore("c");
        core.setProgram(program);
        std::vector<QueueBase *> none;
        CommBackend &backend =
            machine.addBackend(std::make_unique<RawBackend>(none, none));
        machine.addRuntime(core, backend, 1);
        const double start = nowSeconds();
        machine.run();
        const double elapsed = nowSeconds() - start;
        samples.push_back(
            elapsed * 1e9 /
            static_cast<double>(Count{core.counters().committedInsts}));
    }
    return median(samples);
}

} // namespace

void
runProbes(Context &ctx)
{
    const long probe = ctx.spans.begin("probes", -1, ctx.nextUnit++);

    ctx.set("common.ecc_encode_ns", nsPerOp(20'000, [](Count n) {
                std::uint64_t acc = 0;
                for (Count i = 0; i < n; ++i)
                    acc ^= eccEncode(static_cast<Word>(i * 2654435761u));
                probeSink = acc;
            }),
            "ns");

    std::vector<EccWord> codes;
    for (Word i = 0; i < 1024; ++i)
        codes.push_back(eccEncode(i * 2654435761u));
    ctx.set("common.ecc_decode_ns", nsPerOp(20'000, [&](Count n) {
                std::uint64_t acc = 0;
                for (Count i = 0; i < n; ++i)
                    acc += eccDecode(codes[i % codes.size()]).data;
                probeSink = acc;
            }),
            "ns");

    ctx.set("queue.ring_push_pop_ns", nsPerOp(200'000, [](Count n) {
                RingQueue queue("probe", 1024);
                QueueWord out;
                for (Count i = 0; i < n; ++i) {
                    queue.tryPush(makeItem(static_cast<Word>(i)));
                    queue.tryPop(out);
                }
                probeSink = out.value;
            }),
            "ns");

    ctx.set("commguard.hi_insert_ns", nsPerOp(20'000, [](Count n) {
                CgCounters counters;
                WorkingSetQueue queue("probe", 1024);
                QueueManager qm(queue, counters);
                HeaderInserter hi({&qm}, counters);
                QueueWord sink;
                for (Count i = 0; i < n; ++i) {
                    hi.insert(static_cast<FrameId>(i + 1));
                    queue.tryPop(sink);
                }
                probeSink = sink.value;
            }),
            "ns");

    ctx.set("commguard.am_pop_ns", nsPerOp(100'000, [](Count n) {
                CgCounters counters;
                WorkingSetQueue queue("probe", 1024);
                QueueManager qm(queue, counters);
                AlignmentManager am(counters);
                Word acc = 0;
                for (Count i = 0; i < n; ++i) {
                    queue.tryPush(makeItem(static_cast<Word>(i)));
                    acc += am.onPop(qm, 0).value;
                }
                probeSink = acc;
            }),
            "ns");

    // Headers are encoded up front: the ECC encode is its own probe.
    constexpr Count kCrossings = 20'000;
    std::vector<QueueWord> headers;
    for (Count i = 0; i < kCrossings; ++i)
        headers.push_back(makeHeader(static_cast<FrameId>(i + 1)));
    ctx.set("commguard.am_crossing_ns", nsPerOp(kCrossings, [&](Count n) {
                CgCounters counters;
                WorkingSetQueue queue("probe", 1024);
                QueueManager qm(queue, counters);
                AlignmentManager am(counters);
                Word acc = 0;
                for (Count i = 0; i < n; ++i) {
                    const FrameId fc = static_cast<FrameId>(i + 1);
                    queue.tryPush(headers[i]);
                    queue.tryPush(makeItem(1));
                    am.onNewFrameComputation(fc);
                    acc += am.onPop(qm, fc).value;
                }
                probeSink = acc;
            }),
            "ns");

    ctx.set("machine.alu_ns_per_inst", aluNsPerInst(), "ns");
    ctx.spans.end(probe);
}

std::map<std::string, double>
snapshotCounts(const metrics::MetricSnapshot &snapshot)
{
    const auto total = [&](const char *leaf) {
        return static_cast<double>(snapshot.total(leaf));
    };
    return {
        {"count.insts", total("committedInsts")},
        {"count.ecc_ops", total("eccChecks") + total("eccComputes") +
                              total("worksetEccOps")},
        {"count.queue_ops", total("pushes") + total("pops")},
        {"count.headers", total("headerStores")},
        {"count.am_ops", total("dataLoads") + total("headerLoads")},
        {"count.am_crossings", total("headerLoads")},
        {"count.replays", total("replays")},
        {"count.abft_blocks", total("checksumBlocks")},
        {"count.errors", total("errorsInjected")},
        {"count.watchdog_trips", total("scopeWatchdogTrips")},
        {"count.pad_discard_items",
         total("paddedItems") + total("discardedItems")},
    };
}

void
addCounts(std::map<std::string, double> &sum,
          const std::map<std::string, double> &more)
{
    for (const auto &[name, value] : more)
        sum[name] += value;
}

void
setLedger(Context &ctx, const std::map<std::string, double> &counts,
          double run_ms_per_pass)
{
    const auto count = [&](const char *name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };
    for (const auto &[name, value] : counts)
        if (name != "count.am_crossings")
            ctx.set(name, value, "count");
    const double insts = count("count.insts");
    ctx.set("ratio.ecc_ops_per_kinst",
            insts > 0 ? 1000.0 * count("count.ecc_ops") / insts : 0.0,
            "ratio");
    ctx.set("ratio.queue_ops_per_kinst",
            insts > 0 ? 1000.0 * count("count.queue_ops") / insts : 0.0,
            "ratio");

    // Layer ledger: op counts x calibrated ns/op, per pass. A queue op
    // is half a push/pop pair. Header ECC is charged inside the HI
    // (encode) and AM-crossing (decode) probes, so count.ecc_ops adds
    // no separate term; ECC with no counter of its own (abft's
    // checksums) stays in the unexplained remainder.
    const auto ns = [&](const char *name) {
        return ctx.metrics.at(name).value;
    };
    const double crossings = count("count.am_crossings");
    const double predicted_ns =
        insts * ns("machine.alu_ns_per_inst") +
        0.5 * count("count.queue_ops") * ns("queue.ring_push_pop_ns") +
        count("count.headers") * ns("commguard.hi_insert_ns") +
        (count("count.am_ops") - crossings) * ns("commguard.am_pop_ns") +
        crossings * ns("commguard.am_crossing_ns");
    const double predicted_ms = predicted_ns / 1e6 / kSeedReplicas;
    ctx.set("ledger.predicted_ms", predicted_ms, "ms");
    ctx.set("ledger.unexplained_pct",
            run_ms_per_pass > 0
                ? 100.0 * (run_ms_per_pass - predicted_ms) /
                      run_ms_per_pass
                : 0.0,
            "%");
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        {
            {"apps.build_ms", "ms"},
            {"streamit.load_ms", "ms"},
            {"streamit.load_share", "ratio"},
            {"machine.run_ms", "ms"},
            {"machine.ns_per_inst", "ns"},
            {"machine.ns_per_inst.raw", "ns"},
            {"machine.ns_per_inst.reliable-queue", "ns"},
            {"machine.ns_per_inst.commguard", "ns"},
            {"machine.ns_per_inst.replicate", "ns"},
            {"machine.ns_per_inst.abft", "ns"},
            {"media.quality_ms", "ms"},
            {"metrics.snapshot_ms", "ms"},
            {"sim.record_ms", "ms"},
            {"sim.record_kb", "KiB"},
            {"sim.cache_lookup_ms", "ms"},
            {"sim.decode_ms", "ms"},
            {"sim.cache_entry_kb", "KiB"},
            {"sim.cache_hit_ratio", "ratio"},
            {"sim.cache_store_ms", "ms"},
            {"sim.service_session_ms", "ms"},
            {"sim.service_ns_per_inst", "ns"},
            {"common.ecc_encode_ns", "ns"},
            {"common.ecc_decode_ns", "ns"},
            {"commguard.hi_insert_ns", "ns"},
            {"commguard.am_pop_ns", "ns"},
            {"commguard.am_crossing_ns", "ns"},
            {"queue.ring_push_pop_ns", "ns"},
            {"machine.alu_ns_per_inst", "ns"},
            {"count.insts", "count"},
            {"count.ecc_ops", "count"},
            {"count.queue_ops", "count"},
            {"count.headers", "count"},
            {"count.am_ops", "count"},
            {"count.replays", "count"},
            {"count.abft_blocks", "count"},
            {"count.errors", "count"},
            {"count.watchdog_trips", "count"},
            {"count.pad_discard_items", "count"},
            {"ratio.ecc_ops_per_kinst", "ratio"},
            {"ratio.queue_ops_per_kinst", "ratio"},
            {"ledger.predicted_ms", "ms"},
            {"ledger.unexplained_pct", "%"},
            {"trace.overhead_pct", "%"},
            {"host.reference_ms", "ms"},
            {"data_loss_ppm", "ppm"},
            {"quality_db", "dB"},
        };
    return names;
}

} // namespace perfbench
