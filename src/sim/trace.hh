/**
 * @file
 * Execution tracing: per-rank activity spans for timeline analysis.
 *
 * A Trace attached to a Machine (Machine::attachTrace) is one
 * consumer of the machine's probe: it records one span per software
 * activity (send issue, receive completion, CPU busy time) with
 * start/end simulated times, byte counts, and peers.  Traces export
 * to the Chrome trace-event JSON format (load in chrome://tracing or
 * Perfetto to see the ladder diagrams of a collective) or to CSV, and
 * summarize into per-rank compute / communication totals — the sort
 * of breakdown Fig. 4 of the paper presents as stacked bars.
 *
 * A Trace always records; a machine without one attached pays
 * nothing for tracing.
 */

#ifndef CCSIM_SIM_TRACE_HH
#define CCSIM_SIM_TRACE_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/units.hh"

namespace ccsim::sim {

/** What a span represents. */
enum class SpanKind
{
    Compute, //!< CPU busy (software overheads, arithmetic)
    Send,    //!< send issue, call to local completion
    Recv,    //!< receive, call to completion
};

/** Printable span kind. */
std::string spanKindName(SpanKind k);

/** One recorded activity interval. */
struct Span
{
    int rank = 0;
    SpanKind kind = SpanKind::Compute;
    Time start = 0;
    Time end = 0;
    Bytes bytes = 0;
    int peer = -1;     //!< other endpoint (-1: none)
    std::string label; //!< optional phase/collective name

    Time duration() const { return end - start; }
};

/** One sampled counter value (Chrome trace "C" event). */
struct CounterSample
{
    Time when = 0;
    std::string name;
    double value = 0.0;
};

/** Per-rank activity totals. */
struct RankSummary
{
    Time compute = 0;
    Time send = 0;
    Time recv = 0;
    int spans = 0;

    Time comm() const { return send + recv; }
};

/** Span collector with export and summary. */
class Trace
{
  public:
    /** Record a span.  Spans with an empty label inherit the
     *  recording rank's current phase label. */
    void record(const Span &s);

    /**
     * Set the phase label stamped onto subsequent spans of @p rank
     * (the replay engine labels each action — "alltoall", "halo
     * exchange" — so timelines read at collective granularity in
     * Perfetto).  An empty @p label clears it.
     */
    void setPhase(int rank, std::string label);

    /** All recorded spans, in recording order. */
    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Sample a named counter at simulated time @p when.  The machine
     * probe samples network totals at collective boundaries when
     * metrics are on too, so timelines show e.g.\ network bytes and
     * stall time climbing alongside the activity spans.
     */
    void recordCounter(Time when, const std::string &name, double value);

    /** All recorded counter samples, in recording order. */
    const std::vector<CounterSample> &counters() const
    {
        return counters_;
    }

    /** Drop all recorded spans, counters, and phase labels. */
    void
    clear()
    {
        spans_.clear();
        counters_.clear();
        phase_.clear();
    }

    /** Chrome trace-event JSON (complete "X" events; ts/dur in us;
     *  tid = rank; labelled spans use the label as the event name,
     *  with the kind preserved in args; counter samples become "C"
     *  events on pid 0). */
    void writeChromeJson(std::ostream &os) const;

    /** CSV: rank,kind,start_us,end_us,bytes,peer,label. */
    void writeCsv(std::ostream &os) const;

    /** Aggregate per-rank totals. */
    std::map<int, RankSummary> summarize() const;

  private:
    std::vector<Span> spans_;
    std::vector<CounterSample> counters_;
    std::vector<std::string> phase_; //!< per-rank current label
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_TRACE_HH
