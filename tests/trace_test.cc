/**
 * @file
 * Tests for a core's event tracer hook: injected errors reach the
 * trace, and an untraced core runs without one.
 */

#include <gtest/gtest.h>

#include <memory>

#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"

namespace commguard
{
namespace
{

using namespace isa;

Program
tinyProgram()
{
    Assembler a("tiny");
    a.li(R1, 42);
    a.addi(R2, R1, 1);
    return a.finalize();
}

struct Harness
{
    Multicore machine;
    Core *core = nullptr;

    explicit Harness(Program program, Count frames = 1)
    {
        core = &machine.addCore("t");
        core->setProgram(std::move(program));
        CommBackend &backend = machine.addBackend(
            std::make_unique<RawBackend>(
                std::vector<QueueBase *>{},
                std::vector<QueueBase *>{}));
        machine.addRuntime(*core, backend, frames);
    }
};

TEST(Trace, RecordsInjectedErrors)
{
    Assembler a("spin");
    a.forDown(R1, 5000, [&] { a.addi(R2, R2, 1); });
    Harness h(a.finalize());

    ErrorInjector::Config config;
    config.enabled = true;
    config.mtbe = 500;
    config.seed = 4;
    h.core->configureInjector(config);

    h.machine.enableEventTrace();
    ASSERT_TRUE(h.machine.run().completed);

    const Count traced =
        h.machine.eventTrace()->count(trace::EventKind::ErrorInjected);
    EXPECT_GT(traced, 5u);
    EXPECT_EQ(traced, h.core->injector().errorsInjected());
}

TEST(Trace, NullSinkIsDefaultAndFree)
{
    Harness h(tinyProgram());
    // No tracer attached: simply runs.
    EXPECT_EQ(h.core->eventTracer(), nullptr);
    ASSERT_TRUE(h.machine.run().completed);
    EXPECT_EQ(h.core->counters().committedInsts, 3u);
}

} // namespace
} // namespace commguard
