/**
 * @file
 * Frame-lifecycle event tracing of a simulated core.
 *
 * An EventTracer renders a core's invocation boundaries, queue
 * activity, CommGuard frame-lifecycle actions and injected errors
 * into one trace::EventTrace track (docs/TRACING.md). The core and
 * its backend call it directly through one null-guarded pointer, so
 * tracing is off by default and costs one pointer test per observed
 * event when enabled. Instruction-level inspection uses
 * isa::disassemble on the loaded programs instead.
 */

#ifndef COMMGUARD_MACHINE_TRACE_HH
#define COMMGUARD_MACHINE_TRACE_HH

#include <cstddef>
#include <cstdint>

#include "common/event_trace.hh"
#include "common/types.hh"
#include "isa/inst.hh"

namespace commguard
{

class Core;
class QueueBase;

/**
 * Binary event tracer: one per traced core, writing that core's
 * track. Instruction commits are deliberately not recorded (they would
 * drown the ring). Timestamps are the observed core's cycle clock;
 * the shared seq stamp provides cross-track order.
 */
class EventTracer
{
  public:
    EventTracer(trace::EventTrace &trace, trace::EventBuffer &track)
        : _trace(trace), _track(track)
    {}

    /** A new frame-computation invocation began. */
    void onInvocationStart(const Core &core);

    /** The injector flipped @p bit of @p reg. */
    void onErrorInjected(const Core &core, isa::Reg reg, int bit);

    // ------------------------------------------------------------------
    // Queue activity (emitted by the core's interpreter).
    // ------------------------------------------------------------------

    /** A push on output @p port committed. */
    void onQueuePush(const Core &core, int port);

    /** A pop on input @p port committed. */
    void onQueuePop(const Core &core, int port);

    /** A queue op on @p port blocked (first blocked attempt only). */
    void onQueueBlock(const Core &core, int port, bool is_pop);

    /** The blocked op on @p port resumed (success or timeout). */
    void onQueueUnblock(const Core &core, int port, bool is_pop);

    /** A software-queue routine's state was corrupted (QME). */
    void onQueueCorrupt(const Core &core, const QueueBase &queue);

    /** Post-operation depth sample of @p queue. */
    void onQueueDepth(const Core &core, const QueueBase &queue,
                      std::size_t depth);

    /** A QM timeout force-resolved the blocked pop on @p port. */
    void onPopTimeout(const Core &core, int port);

    /** A QM timeout force-resolved the blocked push on @p port. */
    void onPushTimeout(const Core &core, int port);

    /** The PPU watchdog force-completed a scope (@p nested level). */
    void onWatchdogTrip(const Core &core, bool nested);

    // ------------------------------------------------------------------
    // CommGuard frame lifecycle (emitted by the backend).
    // ------------------------------------------------------------------

    /** The HI stored frame header @p frame into @p queue. */
    void onHeaderInsert(const Core &core, int port,
                        const QueueBase &queue, FrameId frame);

    /** The HI gave up on a blocked header insertion (QM timeout). */
    void onHeaderDropped(const Core &core, int port);

    /**
     * The AM for input @p port moved @p from -> @p to (AmState codes).
     * Intermediate states inside one AM evaluation are compressed to
     * the before/after pair. @p info is the frame id driving the move
     * (the pending header when entering the padding state).
     */
    void onAmTransition(const Core &core, int port, std::uint8_t from,
                        std::uint8_t to, Word info);

    /** The AM padded one pop response on @p port. */
    void onAmPad(const Core &core, int port);

    /** The AM discarded one queued item on @p port. */
    void onAmDiscardItem(const Core &core, int port);

    /** The AM discarded one queued header on @p port. */
    void onAmDiscardHeader(const Core &core, int port);

  private:
    trace::EventTrace &_trace;
    trace::EventBuffer &_track;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_TRACE_HH
