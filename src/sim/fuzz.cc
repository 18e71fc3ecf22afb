#include "sim/fuzz.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "apps/random_graph_app.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "sim/artifact_check.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{

FuzzCase
randomFuzzCase(std::uint64_t case_seed)
{
    // Decorrelate neighboring seeds; the Rng's splitmix seeding does
    // the heavy lifting, the odd multiplier keeps seed 0 nontrivial.
    Rng rng(case_seed * 0x9E3779B97F4A7C15ull + 0x243F6A8885A308D3ull);

    FuzzCase fuzz_case;
    fuzz_case.caseSeed = case_seed;
    fuzz_case.graphSeed = rng.next64();
    fuzz_case.stages = 2 + static_cast<int>(rng.below(4));
    fuzz_case.maxGranularity = 1 + static_cast<int>(rng.below(6));
    fuzz_case.allowSplitJoin = rng.below(4) != 0;

    // Every registered protection mode is a fuzz axis point: a new
    // backend joins the invariant sweep by registering itself.
    const std::vector<streamit::ProtectionMode> modes =
        protection::ProtectionRegistry::instance().modes();
    fuzz_case.mode = modes[rng.below(modes.size())];
    fuzz_case.injectErrors = rng.below(4) != 0;

    static constexpr double mtbes[] = {8'000.0, 32'000.0, 128'000.0,
                                       1'024'000.0};
    fuzz_case.mtbe = mtbes[rng.below(4)];

    static constexpr Count frame_scales[] = {1, 2, 4};
    fuzz_case.frameScale = frame_scales[rng.below(3)];

    // Deliberately includes non-power-of-two points: swept capacities
    // must be enforced exactly (the RingQueue rounding bug's axis).
    static constexpr std::size_t capacities[] = {48, 96, 256, 1'000,
                                                 1u << 12};
    fuzz_case.queueCapacityWords = capacities[rng.below(5)];

    fuzz_case.iterations = 4 + rng.below(13);
    fuzz_case.jobs = 2 + rng.below(3);
    fuzz_case.sweepSeeds = 1 + static_cast<int>(rng.below(2));
    return fuzz_case;
}

Json
fuzzCaseJson(const FuzzCase &fuzz_case)
{
    Json json = Json::object();
    json["case_seed"] = Json(Count{fuzz_case.caseSeed});
    json["graph_seed"] = Json(Count{fuzz_case.graphSeed});
    json["stages"] = Json(fuzz_case.stages);
    json["max_granularity"] = Json(fuzz_case.maxGranularity);
    json["allow_split_join"] = Json(fuzz_case.allowSplitJoin);
    json["mode"] =
        Json(streamit::protectionModeName(fuzz_case.mode));
    json["inject_errors"] = Json(fuzz_case.injectErrors);
    json["mtbe"] = Json(fuzz_case.mtbe);
    json["frame_scale"] = Json(fuzz_case.frameScale);
    json["queue_capacity_words"] =
        Json(Count{fuzz_case.queueCapacityWords});
    json["iterations"] = Json(fuzz_case.iterations);
    json["jobs"] = Json(static_cast<int>(fuzz_case.jobs));
    json["sweep_seeds"] = Json(fuzz_case.sweepSeeds);
    json["break_invariant"] = Json(fuzz_case.breakInvariant);
    return json;
}

bool
fuzzCaseFromJson(const Json &json, FuzzCase &out, std::string *error)
{
    static constexpr FieldSpec kFields[] = {
        {"case_seed", FieldType::Count},
        {"graph_seed", FieldType::Count},
        {"stages", FieldType::Count},
        {"max_granularity", FieldType::Count},
        {"frame_scale", FieldType::Count},
        {"queue_capacity_words", FieldType::Count},
        {"iterations", FieldType::Count},
        {"jobs", FieldType::Count},
        {"sweep_seeds", FieldType::Count},
        {"mtbe", FieldType::Number},
        {"allow_split_join", FieldType::Bool},
        {"inject_errors", FieldType::Bool},
        {"mode", FieldType::String},
        {"break_invariant", FieldType::String},
    };
    const auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    if (const std::string why = checkFields(json, kFields); !why.empty())
        return fail("fuzz case: " + why);

    // Positive axes; those narrower than 64 bits must fit, or the case
    // would replay a different (truncated) configuration.
    constexpr Count kInt = std::numeric_limits<int>::max();
    constexpr std::pair<const char *, Count> kAxes[] = {
        {"stages", kInt},
        {"max_granularity", kInt},
        {"frame_scale", ~Count{0}},
        {"queue_capacity_words", ~Count{0}},
        {"iterations", ~Count{0}},
        {"jobs", std::numeric_limits<unsigned>::max()},
        {"sweep_seeds", kInt},
    };
    const auto count = [&json](const char *key) {
        return json.find(key)->counter();
    };
    for (const auto &[key, limit] : kAxes) {
        if (count(key) < 1 || count(key) > limit)
            return fail(std::string("'") + key +
                        "' must be a positive number");
    }
    FuzzCase parsed;
    parsed.caseSeed = count("case_seed");
    parsed.graphSeed = count("graph_seed");
    parsed.stages = static_cast<int>(count("stages"));
    parsed.maxGranularity = static_cast<int>(count("max_granularity"));
    parsed.frameScale = count("frame_scale");
    parsed.queueCapacityWords = count("queue_capacity_words");
    parsed.iterations = count("iterations");
    parsed.jobs = static_cast<unsigned>(count("jobs"));
    parsed.sweepSeeds = static_cast<int>(count("sweep_seeds"));
    parsed.mtbe = json.find("mtbe")->number();
    if (!(parsed.mtbe > 0.0))
        return fail("'mtbe' must be a positive number");
    parsed.allowSplitJoin = json.find("allow_split_join")->boolean();
    parsed.injectErrors = json.find("inject_errors")->boolean();
    if (!protection::tryParseProtectionMode(json.find("mode")->str(),
                                            &parsed.mode))
        return fail("'mode' is not a known protection mode name");
    parsed.breakInvariant = json.find("break_invariant")->str();

    out = parsed;
    return true;
}

FuzzVerdict
checkFuzzCase(const FuzzCase &fuzz_case)
{
    FuzzVerdict verdict;

    apps::RandomGraphOptions graph_options;
    graph_options.stages = fuzz_case.stages;
    graph_options.maxGranularity = fuzz_case.maxGranularity;
    graph_options.allowSplitJoin = fuzz_case.allowSplitJoin;

    Count expected_items = 0;
    const apps::App app = apps::makeRandomGraphApp(
        fuzz_case.graphSeed, graph_options, fuzz_case.iterations,
        &expected_items);

    std::vector<RunDescriptor> descriptors;
    for (int seed = 0; seed < fuzz_case.sweepSeeds; ++seed) {
        streamit::LoadOptions options =
            sweepOptions(fuzz_case.mode, fuzz_case.injectErrors,
                         fuzz_case.mtbe, seed, fuzz_case.frameScale);
        options.queueCapacityWords = fuzz_case.queueCapacityWords;
        // The conservation invariant needs the event trace.
        options.machine.traceEvents = true;
        descriptors.push_back({&app, options});
    }

    const auto run_batch = [&](unsigned jobs) {
        // Caching off: the whole point is comparing two *executions*
        // (jobs=1 vs jobs=N); a cache would serve the second batch
        // from the first and the comparison would test nothing.
        SweepRunner runner(jobs, SweepRunner::Caching::Off);
        runner.setProgress([](std::size_t, std::size_t) {});
        for (const RunDescriptor &descriptor : descriptors)
            runner.enqueue(descriptor);
        return runner.runAll();
    };
    std::vector<RunOutcome> base = run_batch(1);
    std::vector<RunOutcome> threaded = run_batch(fuzz_case.jobs);
    verdict.runs = base.size() + threaded.size();

    // Test hooks: deliberately corrupt one checked artifact so the
    // failure→shrink→repro-bundle path itself stays tested.
    if (fuzz_case.breakInvariant == "counter") {
        // Both batches equally: conservation breaks, determinism
        // stays intact, isolating the one invariant.
        for (std::vector<RunOutcome> *batch : {&base, &threaded}) {
            for (RunOutcome &outcome : *batch)
                outcome.snapshot.setCounter("node/fuzz-hook/invocations",
                                            1);
        }
    } else if (fuzz_case.breakInvariant == "determinism") {
        for (RunOutcome &outcome : threaded) {
            outcome.snapshot.setCounter(
                "run/outputItems",
                outcome.snapshot.get("run/outputItems") + 1);
        }
    }

    for (std::size_t i = 0; i < base.size(); ++i) {
        const std::string run = "run " + std::to_string(i);

        // Progress: the paper's liveness requirement.
        if (!base[i].completed)
            verdict.failures.push_back("progress: " + run +
                                       " did not complete");

        // Exactness: error-free runs forward every expected item.
        if (!fuzz_case.injectErrors &&
            base[i].output.size() != expected_items) {
            verdict.failures.push_back(
                "exactness: " + run + " forwarded " +
                std::to_string(base[i].output.size()) +
                " items, expected " + std::to_string(expected_items));
        }

        // Determinism: jobs=1 vs jobs=N, bitwise.
        const bool quality_equal =
            std::memcmp(&base[i].qualityDb, &threaded[i].qualityDb,
                        sizeof(double)) == 0;
        if (!quality_equal || base[i].completed != threaded[i].completed ||
            !(base[i].snapshot == threaded[i].snapshot) ||
            base[i].output != threaded[i].output) {
            verdict.failures.push_back(
                "determinism: " + run + " differs between jobs=1 and "
                "jobs=" + std::to_string(fuzz_case.jobs));
        }

        // Determinism of the export: byte-identical JSONL records.
        const Json base_record = runRecordJson(descriptors[i], base[i]);
        const Json threaded_record =
            runRecordJson(descriptors[i], threaded[i]);
        if (base_record.dump() != threaded_record.dump()) {
            verdict.failures.push_back(
                "determinism: " + run +
                " JSONL record differs between job counts");
        }

        // Conservation: trace event counts must match the counters.
        const std::pair<const char *, const RunOutcome *> views[] = {
            {"jobs=1", &base[i]}, {"jobs=N", &threaded[i]}};
        for (const auto &[label, outcome] : views) {
            if (outcome->eventTrace == nullptr) {
                verdict.failures.push_back("conservation: " + run + " (" +
                                           label + ") has no event trace");
                continue;
            }
            for (const std::string &message : traceConservationErrors(
                     *outcome->eventTrace, outcome->snapshot)) {
                verdict.failures.push_back("conservation: " + run +
                                           " (" + label + "): " + message);
            }
        }

        // Schema: the record passes the jsonl_check run-record check.
        // Its embedded conservation verdict is the conservation
        // invariant above, reported there once.
        Json checked = base_record;
        if (checked.find("forensics") != nullptr)
            checked["forensics"]["conservation_errors"] = Json::array();
        if (fuzz_case.breakInvariant == "schema")
            checked["schema_version"] =
                Json(metrics::kSchemaVersion + 1000);
        if (const std::string why = checkRunRecord(checked.dump());
            !why.empty())
            verdict.failures.push_back("schema: " + run + ": " + why);
    }
    return verdict;
}

FuzzCase
shrinkFuzzCase(const FuzzCase &failing, int max_checks)
{
    FuzzCase best = failing;
    int checks = 0;

    const auto try_adopt = [&](FuzzCase candidate) -> bool {
        if (candidate == best || checks >= max_checks)
            return false;
        ++checks;
        if (checkFuzzCase(candidate).ok())
            return false;
        best = std::move(candidate);
        return true;
    };

    bool changed = true;
    while (changed && checks < max_checks) {
        changed = false;

        {
            FuzzCase candidate = best;
            candidate.sweepSeeds = 1;
            changed |= try_adopt(candidate);
        }
        for (const int stages : {2, best.stages / 2}) {
            if (stages < 2 || stages >= best.stages)
                continue;
            FuzzCase candidate = best;
            candidate.stages = stages;
            if (try_adopt(candidate)) {
                changed = true;
                break;
            }
        }
        {
            FuzzCase candidate = best;
            candidate.allowSplitJoin = false;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.maxGranularity = 1;
            changed |= try_adopt(candidate);
        }
        for (const Count iterations :
             {Count{1}, best.iterations / 2}) {
            if (iterations < 1 || iterations >= best.iterations)
                continue;
            FuzzCase candidate = best;
            candidate.iterations = iterations;
            if (try_adopt(candidate)) {
                changed = true;
                break;
            }
        }
        {
            FuzzCase candidate = best;
            candidate.frameScale = 1;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.queueCapacityWords = 1u << 12;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.injectErrors = false;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.mode = streamit::ProtectionMode::Raw;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.jobs = 2;
            changed |= try_adopt(candidate);
        }
    }
    return best;
}

Json
reproBundleJson(const FuzzCase &fuzz_case,
                const std::vector<std::string> &failures)
{
    Json bundle = Json::object();
    bundle["schema_version"] = Json(metrics::kSchemaVersion);
    bundle["kind"] = Json("fuzz_repro");
    bundle["case"] = fuzzCaseJson(fuzz_case);
    Json list = Json::array();
    for (const std::string &failure : failures)
        list.push(Json(failure));
    bundle["failures"] = list;
    return bundle;
}

bool
reproBundleFromJson(const Json &json, FuzzCase &out, std::string *error)
{
    static constexpr FieldSpec kFields[] = {
        {"schema_version", FieldType::Count},
        {"kind", FieldType::String},
        {"failures", FieldType::Array},
        {"case", FieldType::Any},
    };
    const auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    if (const std::string why = checkFields(json, kFields); !why.empty())
        return fail("bundle: " + why);
    if (json.find("schema_version")->counter() !=
        static_cast<Count>(metrics::kSchemaVersion))
        return fail("bad or missing schema_version");
    if (json.find("kind")->str() != "fuzz_repro")
        return fail("bundle kind is not 'fuzz_repro'");
    for (const Json &failure : json.find("failures")->arr()) {
        if (!failure.isString())
            return fail("failures entries must be strings");
    }
    return fuzzCaseFromJson(*json.find("case"), out, error);
}

bool
readReproBundle(const std::string &path, FuzzCase &out,
                std::string *error)
{
    // What replay accepts is exactly what `jsonl_check --repro` does.
    const ArtifactVerdict verdict =
        checkArtifactFile(*findArtifactSpec("--repro"), path);
    if (!verdict.ok()) {
        if (error != nullptr)
            *error = verdict.errors.front();
        return false;
    }
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    Json bundle;
    return Json::parse(text.str(), bundle, error) &&
           reproBundleFromJson(bundle, out, error);
}

void
writeReproBundle(const std::string &path, const FuzzCase &fuzz_case,
                 const std::vector<std::string> &failures)
{
    std::ofstream out(path);
    if (!out)
        fatal("fuzz: cannot write repro bundle '" + path + "'");
    reproBundleJson(fuzz_case, failures).write(out);
    out << '\n';
    if (!out.good())
        fatal("fuzz: I/O error writing repro bundle '" + path + "'");
}

// ----------------------------------------------------------------------
// FuzzWatchdog.
// ----------------------------------------------------------------------

FuzzWatchdog::FuzzWatchdog()
{
    _monitor = std::thread([this] { monitorLoop(); });
}

FuzzWatchdog::~FuzzWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
        ++_generation;
    }
    _changed.notify_all();
    _monitor.join();
}

void
FuzzWatchdog::arm(double budget_seconds, std::string context)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(budget_seconds));
        _context = std::move(context);
        _armed = true;
        ++_generation;
    }
    _changed.notify_all();
}

void
FuzzWatchdog::disarm()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _armed = false;
        ++_generation;
    }
    _changed.notify_all();
}

void
FuzzWatchdog::monitorLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        if (_stopping)
            return;
        if (!_armed) {
            _changed.wait(lock);
            continue;
        }
        const std::uint64_t generation = _generation;
        const bool state_changed = _changed.wait_until(
            lock, _deadline,
            [&] { return _stopping || _generation != generation; });
        if (state_changed)
            continue;
        // Deadline passed with the same case still armed: the case is
        // hung. Print the repro context and kill the process hard —
        // destructors may themselves be wedged.
        std::fprintf(stderr,
                     "[fuzz] watchdog: case exceeded its wall-clock "
                     "budget (likely deadlock or livelock)\n%s\n",
                     _context.c_str());
        std::fflush(stderr);
        std::_Exit(kFuzzWatchdogExitCode);
    }
}

} // namespace commguard::sim
