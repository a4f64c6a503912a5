/**
 * @file
 * The Observer handle the simulation models carry.
 *
 * An Observer bundles an optional StatsRegistry, an optional
 * CostAccountant, an optional fault-lineage LineageLedger, and any
 * number of TraceSinks.  It is the one measurement hookup: models,
 * campaign engines and the sharded-campaign driver (obs/shard_run.hh)
 * all take an `Observer *` (nullptr = fully disabled).  The null check
 * is the only cost on the hot path, and producers pre-resolve their
 * Counters at construction so enabled operation stays allocation- and
 * lookup-free per event.
 */

#ifndef AIECC_OBS_OBSERVER_HH
#define AIECC_OBS_OBSERVER_HH

#include <vector>

#include "obs/cost.hh"
#include "obs/lineage.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace aiecc
{
namespace obs
{

/** Aggregation point for one measurement context (sinks not owned). */
class Observer
{
  public:
    Observer() = default;
    explicit Observer(StatsRegistry *registry) : reg(registry) {}

    void setStats(StatsRegistry *registry) { reg = registry; }
    StatsRegistry *stats() const { return reg; }

    /**
     * Attach per-access cost attribution (nullptr = accounting off).
     * Producers test the pointer per event, exactly like stats.
     */
    void setCost(CostAccountant *accountant) { costAcct = accountant; }
    CostAccountant *cost() const { return costAcct; }

    /**
     * Attach a fault-lineage ledger (nullptr = lineage off).  Campaign
     * engines open and resolve one record per injected fault in it
     * (DESIGN.md §10).
     */
    void setLineage(LineageLedger *ledger) { ledgerPtr = ledger; }
    LineageLedger *lineage() const { return ledgerPtr; }

    void addSink(TraceSink *sink)
    {
        if (sink)
            sinkList.push_back(sink);
    }
    const std::vector<TraceSink *> &sinks() const { return sinkList; }

    /** True if at least one sink wants events. */
    bool tracing() const { return !sinkList.empty(); }

    /**
     * Lineage context: while nonzero, every emitted event that does
     * not already carry a fault ID is stamped with this one, so
     * producers deep in the stack (recovery episodes, controller
     * retries) attribute to the fault under test without threading an
     * ID parameter through every call.  Campaigns set it around each
     * trial; 0 clears it.
     */
    void setFaultContext(uint64_t faultId) { faultCtx = faultId; }

    /**
     * Hand @p event to every sink, stamping the lineage context into
     * it first when it carries no fault ID of its own.  Events are
     * plain values (obs/trace.hh): building one costs no allocation,
     * and no text exists until a JSONL sink writes the line.
     */
    void
    emit(TraceEvent event) const
    {
        if (faultCtx && !event.faultId)
            event.faultId = faultCtx;
        for (TraceSink *sink : sinkList)
            sink->record(event);
    }

    void
    flush() const
    {
        for (TraceSink *sink : sinkList)
            sink->flush();
    }

  private:
    StatsRegistry *reg = nullptr;
    CostAccountant *costAcct = nullptr;
    LineageLedger *ledgerPtr = nullptr;
    std::vector<TraceSink *> sinkList;
    uint64_t faultCtx = 0;
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_OBSERVER_HH
