#include "sim/run_codec.hh"

#include <utility>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/artifact_check.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"

namespace commguard::sim
{

namespace
{

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

} // namespace

Json
descriptorJson(const RunDescriptor &descriptor)
{
    const apps::App &app = *descriptor.app;
    if (app.spec.empty())
        fatal("descriptorJson: app '" + app.name +
              "' carries no spec (gate on runShippable() first)");
    Json app_spec;
    std::string error;
    if (!Json::parse(app.spec, app_spec, &error))
        fatal("descriptorJson: unparseable App::spec '" + app.spec +
              "': " + error);

    const streamit::LoadOptions &o = descriptor.options;
    const MachineConfig &m = o.machine;

    Json per_node = Json::array();
    for (Count scale : o.perNodeFrameScale)
        per_node.push(Json(scale));

    Json per_core = Json::array();
    for (double m_core : o.perCoreMtbe)
        per_core.push(Json(m_core));

    Json timing = Json::object();
    timing["frame_flush_cycles"] = Json(Count{m.timing.frameFlushCycles});
    timing["mem_extra_cycles"] = Json(Count{m.timing.memExtraCycles});
    timing["queue_op_cycles"] = Json(Count{m.timing.queueOpCycles});

    Json ppu = Json::object();
    ppu["default_scope_budget"] = Json(m.ppu.defaultScopeBudget);
    ppu["enforce_nested_scopes"] = Json(m.ppu.enforceNestedScopes);
    ppu["max_scope_budget"] = Json(m.ppu.maxScopeBudget);
    ppu["max_scope_depth"] =
        Json(static_cast<std::int64_t>(m.ppu.maxScopeDepth));
    ppu["watchdog_multiplier"] = Json(m.ppu.watchdogMultiplier);

    Json machine = Json::object();
    machine["global_watchdog_insts"] = Json(m.globalWatchdogInsts);
    machine["ppu"] = std::move(ppu);
    machine["slice_instructions"] = Json(m.sliceInstructions);
    machine["timeout_rounds"] = Json(m.timeoutRounds);
    machine["timing"] = std::move(timing);

    Json json = Json::object();
    addDescriptorFields(json, descriptor);
    json["app_spec"] = std::move(app_spec);
    json["flip_all_registers"] = Json(o.flipAllRegisters);
    json["frame_aligned_output"] = Json(o.frameAlignedOutput);
    json["guard_source_edge"] = Json(o.guardSourceEdge);
    json["machine"] = std::move(machine);
    json["per_core_mtbe"] = std::move(per_core);
    json["per_node_frame_scale"] = std::move(per_node);
    json["queue_capacity_words"] = Json(Count{o.queueCapacityWords});
    json["replicas"] = Json(static_cast<std::int64_t>(o.replicas));
    return json;
}

const apps::App &
AppCache::fromSpec(const std::string &spec)
{
    auto it = _bySpec.find(spec);
    if (it == _bySpec.end())
        it = _bySpec.emplace(spec, apps::makeAppFromSpec(spec)).first;
    return it->second;
}

bool
descriptorFromJson(const Json &json, AppCache &apps,
                   RunDescriptor *out, std::string *error)
{
    // A wire descriptor with a missing or mistyped field is a protocol
    // error, reported through the (false, *error) channel.
    static constexpr FieldSpec kFields[] = {
        {"app_spec", FieldType::Object},
        {"app", FieldType::String},
        {"protection_mode", FieldType::String},
        {"inject_errors", FieldType::Bool},
        {"mtbe", FieldType::Number},
        {"seed", FieldType::Count},
        {"flip_all_registers", FieldType::Bool},
        {"frame_scale", FieldType::Count},
        {"guard_source_edge", FieldType::Bool},
        {"frame_aligned_output", FieldType::Bool},
        {"per_core_mtbe", FieldType::Array},
        {"per_node_frame_scale", FieldType::Array},
        {"replicas", FieldType::Number},
        {"queue_capacity_words", FieldType::Count},
        {"machine", FieldType::Object},
    };
    static constexpr FieldSpec kMachineFields[] = {
        {"slice_instructions", FieldType::Count},
        {"timeout_rounds", FieldType::Count},
        {"global_watchdog_insts", FieldType::Count},
        {"timing", FieldType::Object},
        {"ppu", FieldType::Object},
    };
    static constexpr FieldSpec kTimingFields[] = {
        {"mem_extra_cycles", FieldType::Count},
        {"queue_op_cycles", FieldType::Count},
        {"frame_flush_cycles", FieldType::Count},
    };
    static constexpr FieldSpec kPpuFields[] = {
        {"watchdog_multiplier", FieldType::Count},
        {"default_scope_budget", FieldType::Count},
        {"max_scope_budget", FieldType::Count},
        {"enforce_nested_scopes", FieldType::Bool},
        {"max_scope_depth", FieldType::Number},
    };
    const auto fail = [error](const std::string &why) {
        *error = why;
        return false;
    };
    const auto at = [](const Json &object, const char *key) -> const Json & {
        return *object.find(key);
    };

    std::string why = checkFields(json, kFields);
    if (why.empty())
        why = checkFields(at(json, "machine"), kMachineFields);
    if (why.empty())
        why = checkFields(at(at(json, "machine"), "timing"), kTimingFields);
    if (why.empty())
        why = checkFields(at(at(json, "machine"), "ppu"), kPpuFields);
    if (!why.empty())
        return fail("descriptor: " + why);
    const Json &machine = at(json, "machine");

    const apps::App &app = apps.fromSpec(at(json, "app_spec").dump());
    if (at(json, "app").str() != app.name)
        return fail("descriptor app '" + at(json, "app").str() +
                    "' does not match spec-built app '" + app.name + "'");

    streamit::LoadOptions o;
    const std::string &mode_name = at(json, "protection_mode").str();
    if (!protection::tryParseProtectionMode(mode_name, &o.mode))
        return fail("unknown protection mode '" + mode_name + "'");
    o.injectErrors = at(json, "inject_errors").boolean();
    o.mtbe = at(json, "mtbe").number();
    o.seed = at(json, "seed").counter();
    o.flipAllRegisters = at(json, "flip_all_registers").boolean();
    o.frameScale = at(json, "frame_scale").counter();
    o.guardSourceEdge = at(json, "guard_source_edge").boolean();
    o.frameAlignedOutput = at(json, "frame_aligned_output").boolean();
    o.perCoreMtbe.clear();
    for (const Json &m_core : at(json, "per_core_mtbe").arr()) {
        if (!m_core.isNumber())
            return fail("per_core_mtbe entry is not a number");
        o.perCoreMtbe.push_back(m_core.number());
    }
    o.perNodeFrameScale.clear();
    for (const Json &scale : at(json, "per_node_frame_scale").arr()) {
        if (!scale.isCount())
            return fail("per_node_frame_scale entry is not a count");
        o.perNodeFrameScale.push_back(scale.counter());
    }
    o.replicas = static_cast<int>(at(json, "replicas").number());
    o.queueCapacityWords =
        static_cast<std::size_t>(at(json, "queue_capacity_words").counter());

    MachineConfig &m = o.machine;
    m.sliceInstructions = at(machine, "slice_instructions").counter();
    m.timeoutRounds = at(machine, "timeout_rounds").counter();
    m.globalWatchdogInsts = at(machine, "global_watchdog_insts").counter();
    const Json &timing = at(machine, "timing");
    m.timing.memExtraCycles = at(timing, "mem_extra_cycles").counter();
    m.timing.queueOpCycles = at(timing, "queue_op_cycles").counter();
    m.timing.frameFlushCycles = at(timing, "frame_flush_cycles").counter();
    const Json &ppu = at(machine, "ppu");
    m.ppu.watchdogMultiplier = at(ppu, "watchdog_multiplier").counter();
    m.ppu.defaultScopeBudget = at(ppu, "default_scope_budget").counter();
    m.ppu.maxScopeBudget = at(ppu, "max_scope_budget").counter();
    m.ppu.enforceNestedScopes = at(ppu, "enforce_nested_scopes").boolean();
    m.ppu.maxScopeDepth = static_cast<int>(at(ppu, "max_scope_depth").number());

    out->app = &app;
    out->options = std::move(o);
    return true;
}

bool
runShippable(const RunDescriptor &descriptor)
{
    return !descriptor.app->spec.empty() &&
           !descriptor.options.machine.traceEvents &&
           descriptor.options.machine.telemetrySlices == 0;
}

std::string
encodeWords(const std::vector<Word> &words)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    hex.reserve(words.size() * 8);
    for (Word word : words)
        for (int shift = 28; shift >= 0; shift -= 4)
            hex.push_back(digits[(word >> shift) & 0xF]);
    return hex;
}

bool
decodeWords(const std::string &hex, std::vector<Word> *out)
{
    if (hex.size() % 8 != 0)
        return false;
    out->clear();
    out->reserve(hex.size() / 8);
    for (std::size_t i = 0; i < hex.size(); i += 8) {
        Word word = 0;
        for (std::size_t j = 0; j < 8; ++j) {
            const int nibble = hexNibble(hex[i + j]);
            if (nibble < 0)
                return false;
            word = (word << 4) | static_cast<Word>(nibble);
        }
        out->push_back(word);
    }
    return true;
}

RunOutcome
outcomeFromRecord(const Json &record, std::vector<Word> output)
{
    RunOutcome outcome;
    outcome.snapshot = metrics::snapshotFromJson(record);
    outcome.completed = outcome.snapshot.get("run/completed") != 0;
    outcome.qualityDb = outcome.snapshot.gauge("run/qualityDb");
    outcome.output = std::move(output);
    return outcome;
}

const std::string &
buildStamp()
{
    // __DATE__/__TIME__ of the sim library build: every binary linking
    // cg_sim (cg_bench, cg_tests, ...) shares one stamp, so a serve
    // process accepts workers spawned from any same-build binary.
    static const std::string stamp = __DATE__ " " __TIME__;
    return stamp;
}

} // namespace commguard::sim
