/**
 * @file
 * Shared pieces of the benchmark driver: the run context (arguments,
 * failure accounting, metric sink), the in-memory span log of the
 * traced mode, run digests and the order statistics every workload
 * reports.
 *
 * The driver is a client of the repository's libraries: it times calls
 * into their public functions from outside and never reaches into the
 * program. See perfbench/README.md for the workloads and metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/experiment.hh"
#include "sim/run_executor.hh"

namespace perfbench
{

using commguard::Count;
using commguard::Word;

/** Monotonic host seconds. */
double nowSeconds();

/** Median of @p values (0 for an empty set). */
double median(std::vector<double> values);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** FNV-1a 64 accumulator for output and snapshot digests. */
class Digest
{
  public:
    void add(const void *bytes, std::size_t size);
    void add(const std::string &text) { add(text.data(), text.size()); }
    void add(std::uint64_t value) { add(&value, sizeof(value)); }
    std::uint64_t value() const { return _hash; }

  private:
    std::uint64_t _hash = 1469598103934665603ull;
};

/** Digest of a run: its output stream plus its full metric snapshot. */
std::uint64_t outcomeDigest(const commguard::sim::RunOutcome &outcome);

/**
 * One traced interval: a layer call made by the driver. Spans of one
 * unit share its id; parent is the index of the enclosing span, or -1.
 */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long unit = 0;
};

/** Spans kept in memory and written out once, at exit. */
class SpanLog
{
  public:
    long begin(const std::string &name, long parent, long unit);
    void end(long span);
    /** Duration of span @p span in seconds. */
    double seconds(long span) const;
    /** Write one JSON object per span to @p path. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> _spans;
};

/**
 * The host-speed reference: a co-process running perfbench/reference.py
 * that, on request, runs a fixed piece of CPython work and reports its
 * duration. Host speed on a shared machine drifts by more than 1.5x
 * within seconds; the reference, measured right before and right after
 * each timed interval, tracks that drift from code the repository
 * cannot change (README.md, "Noise").
 */
class HostReference
{
  public:
    HostReference(const std::string &python, const std::string &script);
    /** Closes the co-process's input and waits for it to exit. */
    ~HostReference();
    HostReference(const HostReference &) = delete;
    HostReference &operator=(const HostReference &) = delete;

    /** Seconds of one reference run; 0 if the co-process failed. */
    double measure();

  private:
    pid_t _pid = -1;
    std::FILE *_to = nullptr;
    std::FILE *_from = nullptr;
};

/**
 * Reported timings are "nominal seconds": the measured interval scaled
 * by kNominalReferenceSeconds over the mean of the reference durations
 * measured just before and just after it, raised to the workload's
 * reference elasticity.
 */
constexpr double kNominalReferenceSeconds = 0.015;

/** A named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Number of seed replicas every sweep configuration runs with. */
constexpr int kSeedReplicas = 4;

/**
 * Set-up is repeated at least this many times, and a short one until
 * kSetupSeconds have passed; setup_s is the median of the repeats.
 */
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 5.0;

/** Per-invocation state shared by every workload. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory (inside the checkout) for spans and scratch files. */
    std::string outDir;

    /** Host-speed reference; every timed interval sits between two. */
    HostReference *host = nullptr;
    /**
     * How strongly this workload's units follow the reference: a slow
     * phase that stretches the reference by a factor S stretches the
     * units by about S to this power (README.md, "Noise").
     */
    double referenceElasticity = 1.0;
    /** Every reference duration measured, for host.reference_ms. */
    std::vector<double> references;

    Count attempted = 0;
    Count failed = 0;
    std::map<std::string, Metric> metrics;
    SpanLog spans;
    long nextUnit = 0;

    /** Digest over every unit of the first kSeedReplicas passes, in
     *  submission order; equal for the traced and untraced modes. */
    Digest outputs;

    /**
     * Simulation results that are a pure function of the seed
     * (data_loss_ppm, quality_db). Printed in both modes so runs can
     * be checked to repeat them exactly; traced runs also report them
     * as per-layer metrics.
     */
    std::map<std::string, double> exacts;

    /** First seed index of this workload seed's replica block. */
    int seedBase() const
    {
        return static_cast<int>(seed % 1'000'000) * kSeedReplicas;
    }

    /**
     * Measure the host reference once. A failed measurement counts as
     * a failed unit and returns the nominal duration.
     */
    double reference();

    /** Count one attempted unit; @p ok false counts it failed. */
    void unit(bool ok, const std::string &what);

    void set(const std::string &name, double value,
             const std::string &unit_name)
    {
        metrics[name] = Metric{value, unit_name};
    }

    void exact(const std::string &name, double value)
    {
        exacts[name] = value;
    }

    /** Whether the timed phase should start another pass. */
    bool morePasses(int passes_done, double started) const;

    /** Whether the set-up should be repeated once more. */
    bool moreSetUps(int repeats_done, double started) const;
};

/**
 * Times consecutive intervals in nominal seconds. Every interval sits
 * between two host-reference measurements, each shared with the
 * neighbouring interval; the reference runs are never inside one.
 */
class NominalClock
{
  public:
    /** Measures the first reference and starts the first interval. */
    explicit NominalClock(Context &ctx);

    /** Nominal seconds of the interval now ending; starts the next. */
    double lap();

    /**
     * Start the next interval now, dropping the time since the last
     * lap; the reference measured at that lap still opens it.
     */
    void start() { _start = nowSeconds(); }

  private:
    Context &_ctx;
    double _before = 0.0;
    double _start = 0.0;
};

/**
 * The end-to-end metrics every workload reports (tracing off), from
 * the median set-up time and one pass over its configuration list:
 * the sum over configurations of the median unit time, and the
 * simulated instructions and frames those units deliver.
 */
void setEndToEnd(Context &ctx, double setup_s, double pass_s,
                 double pass_insts, double pass_frames);

/** A run made through the decomposed public path, with its spans. */
struct TracedRun
{
    commguard::sim::RunOutcome outcome;
    /** Seconds per span name ("unit" is the enclosing span). */
    std::map<std::string, double> spanSeconds;
    /** Size of the JSONL record, when one was made. */
    double recordBytes = 0.0;
};

/**
 * One run through the decomposed public path, each call in a span:
 * loadGraph, LoadedApp::run, App::quality, metrics().snapshot() and,
 * with @p record, sim::runRecordJson. Mirrors sim::runOnce, so the
 * outcome is bitwise the untraced one.
 */
TracedRun tracedRun(Context &ctx, commguard::sim::RunScratch &scratch,
                    const commguard::sim::RunDescriptor &descriptor,
                    bool record);

/**
 * Calibration probes: host ns per operation of single layers, each
 * measured by calling the public function in a loop (median of
 * several loops). Sets the common.*, commguard.*, queue.* and
 * machine.alu_ns_per_inst metrics.
 */
void runProbes(Context &ctx);

/**
 * Set the per-layer ledger metrics from a workload's op counts (summed
 * over kSeedReplicas passes) and its measured per-pass machine.run_ms:
 * count.*, ratio.*, ledger.predicted_ms and ledger.unexplained_pct.
 * Needs runProbes() first.
 */
void setLedger(Context &ctx, const std::map<std::string, double> &counts,
               double run_ms_per_pass);

/** Op counts the ledger reads from one run's snapshot. */
std::map<std::string, double>
snapshotCounts(const commguard::metrics::MetricSnapshot &snapshot);

/** Add @p more into @p sum key by key. */
void addCounts(std::map<std::string, double> &sum,
               const std::map<std::string, double> &more);

/** Names of every per-layer metric, so traced runs emit the full set. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

void runFigureSweep(Context &ctx);
void runProtectionSweep(Context &ctx);
void runServiceStream(Context &ctx);
void runCacheReplay(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
