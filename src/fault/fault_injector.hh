/**
 * @file
 * FaultInjector: one machine's live fault state, drawn
 * deterministically from a FaultSpec.
 *
 * Construction makes every *static* draw in a fixed order — first
 * each node's straggler factor, then each link's degraded /
 * black-holed state — from an Rng seeded by spec.seed, so two
 * machines built from the same spec suffer identical faults
 * regardless of when or on which thread they run.  *Dynamic*
 * per-message draws (drop, delay) come from a second stream derived
 * from the same seed; the single-threaded simulator consumes it in
 * deterministic event order.
 *
 * The injector is consulted from three places:
 *
 *  - net::Network scales each transfer's wire serialisation by the
 *    worst linkSlowdown() along its route (via a hook, so net does
 *    not depend on this library);
 *  - msg::Transport scales software overheads by cpuFactor() and,
 *    when the spec makes loss possible, runs its timeout/retransmit
 *    protocol against blackholedOnRoute() / drawDrop() /
 *    drawDelayPenalty();
 *  - the harness reads report() after a run.
 */

#ifndef CCSIM_FAULT_FAULT_INJECTOR_HH
#define CCSIM_FAULT_FAULT_INJECTOR_HH

#include <unordered_map>
#include <vector>

#include "fault/fault_report.hh"
#include "fault/fault_spec.hh"
#include "net/topology.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace ccsim::net {
class Network;
}

namespace ccsim::fault {

/** Per-machine fault state and RNG streams. */
class FaultInjector
{
  public:
    /** Draw the static fault assignment for @p nodes nodes and
     *  @p links links from @p spec (validated first). */
    FaultInjector(const FaultSpec &spec, int nodes, int links);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultSpec &spec() const { return spec_; }

    // ---- node faults ---------------------------------------------------

    /** Software-overhead multiplier of @p node (1.0 = healthy). */
    double cpuFactor(int node) const;

    /** Scale a CPU cost by cpuFactor (picosecond-rounded). */
    Time scaleCpu(int node, Time cost) const;

    /** Nodes assigned as stragglers. */
    int stragglers() const { return stragglers_; }

    // ---- link faults ---------------------------------------------------

    /** Serialisation multiplier of @p link at time @p t (>= 1). */
    double linkSlowdown(net::LinkId link, Time t) const;

    /** First black-holed link on the @p src -> @p dst route at time
     *  @p t, or -1.  Walks the route analytically (RouteCursor);
     *  cheap enough per retransmission that no route is stored. */
    net::LinkId blackholedOnRoute(const net::Topology &topo, int src,
                                  int dst, Time t) const;

    /** Links assigned as degraded. */
    int degradedLinks() const { return degraded_count_; }

    /** Static black-hole assignment of @p link (window ignored). */
    bool blackholed(net::LinkId link) const;

    /**
     * The cached fallback intermediate for (src, dst) under the
     * `degrade` policy: the lowest-numbered node w (w != src, dst)
     * whose two routes src -> w and w -> dst avoid every black-holed
     * link, or -1 when no such detour exists (src or dst is cut off).
     * The search walks candidate routes analytically (no routes are
     * materialized); the answer is computed once per pair and
     * memoised for the machine's lifetime (black-hole assignment is
     * static).
     */
    int fallbackVia(int src, int dst, net::Network &net);

    /** Distinct (src, dst) fallback searches performed (cache
     *  misses of the fallback memo). */
    std::uint64_t fallbacksComputed() const { return fallbacks_computed_; }

    // ---- dynamic message faults ----------------------------------------

    /** Bernoulli drop draw for one wire message. */
    bool drawDrop();

    /** Delay penalty for one delivered message (usually zero). */
    Time drawDelayPenalty();

    // ---- bookkeeping ---------------------------------------------------

    void recordDrop(int src, int dst, net::LinkId link, Time when,
                    Bytes bytes, int attempt);
    void recordDelay(int src, int dst, Time when, Bytes bytes);
    void recordRetransmit(int src, int dst, Time when, Bytes bytes,
                          int attempt);

    /** Record a delivery detoured around a black-holed link; the
     *  extra bytes are the second leg's payload (the price of
     *  store-and-forward at @p via). */
    void recordReroute(int src, int via, int dst, Time when,
                       Bytes bytes);

    /** Record a retry round beyond the base budget and the wait it
     *  absorbed. */
    void recordEscalation(int src, int dst, Time when, Bytes bytes,
                          int attempt, Time waited);

    /** Record an out-of-band backstop delivery (degrade policy only)
     *  and the final wait it absorbed. */
    void recordAbsorb(int src, int dst, net::LinkId link, Time when,
                      Bytes bytes, int attempts, Time waited);

    /** Record exhaustion and throw FaultError. */
    [[noreturn]] void failExhausted(int src, int dst, net::LinkId link,
                                    Time when, Bytes bytes,
                                    int attempts);

    const FaultReport &report() const { return report_; }

  private:
    void recordEvent(FaultEvent::Kind kind, int src, int dst,
                     net::LinkId link, Time when, Bytes bytes,
                     int attempt);

    /** True when the link-fault window covers @p t. */
    bool inWindow(Time t) const;

    FaultSpec spec_;
    std::vector<double> cpu_factor_;   // per node
    std::vector<bool> link_degraded_;  // per link
    std::vector<bool> link_blackholed_;
    int stragglers_ = 0;
    int degraded_count_ = 0;
    int blackholed_count_ = 0;

    Rng msg_rng_; //!< dynamic drop/delay stream
    FaultReport report_;

    /** Memoised fallback intermediates, keyed src * nodes + dst;
     *  -1 = no detour exists, absent = not yet searched. */
    std::unordered_map<std::size_t, int> fallback_cache_;
    std::uint64_t fallbacks_computed_ = 0;
};

} // namespace ccsim::fault

#endif // CCSIM_FAULT_FAULT_INJECTOR_HH
