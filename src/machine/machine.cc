#include "machine/machine.hh"

#include <cstdio>

#include "machine/config_io.hh"
#include "util/logging.hh"

namespace ccsim::machine {

Machine::Machine(MachineConfig config, int p)
    : Machine(std::make_shared<const MachineConfig>(std::move(config)),
              p)
{
}

Machine::Machine(ConfigHandle config, int p)
    : config_(std::move(config)), size_(p)
{
    if (!config_)
        fatal("Machine: null config handle");
    config_->validate();
    if (p < 1)
        fatal("Machine: need at least one node, got %d", p);
    network_ = std::make_unique<net::Network>(config_->makeTopology(p),
                                              config_->network);
    if (network_->topology().numLinkClasses() > 1) {
        // Hierarchical wiring: classes 1/2 are the intra-chip and
        // intra-node fabrics, parameterized by the config's
        // HierarchySpec (its defaults apply even when the hierarchy
        // came from a `hier:` topo spec rather than the struct).
        network_->setLinkClassParams(1, config_->hierarchy.chip);
        network_->setLinkClassParams(2, config_->hierarchy.node);
    }
    if (config_->fault.enabled()) {
        fault_ = std::make_unique<fault::FaultInjector>(
            config_->fault, p, network_->topology().numLinks());
        if (fault_->degradedLinks() > 0)
            network_->setLinkSlowdownHook(
                [fi = fault_.get()](net::LinkId l, Time t) {
                    return fi->linkSlowdown(l, t);
                });
    }
    fabric_ = std::make_unique<msg::Fabric>(sim_, *network_, p,
                                            config_->transport,
                                            fault_.get());
    if (config_->collect_metrics) {
        network_->setProbe(&makeProbe());
        fabric_->setProbe(probe_.get());
    }
    if (config_->hardware_barrier)
        hw_barrier_ = std::make_unique<HardwareBarrier>(
            sim_, p, config_->hardware_barrier_latency);
}

Probe &
Machine::makeProbe()
{
    if (!probe_)
        probe_ = std::make_unique<Probe>(
            network_->topology().numLinks(), config_->collect_metrics);
    return *probe_;
}

void
Machine::attachTrace(sim::Trace &trace)
{
    makeProbe().trace = &trace;
    fabric_->setProbe(probe_.get());
}

void
Machine::attachListener(CallListener &listener)
{
    makeProbe().listener = &listener;
}

int
Machine::contextFor(const std::vector<int> &global_ranks)
{
    if (global_ranks.empty())
        fatal("Machine::contextFor: empty rank list");
    for (int r : global_ranks)
        if (r < 0 || r >= size_)
            fatal("Machine::contextFor: rank %d outside machine of %d",
                  r, size_);
    auto [it, inserted] = context_registry_.try_emplace(
        global_ranks, static_cast<int>(context_registry_.size()) + 1);
    return it->second;
}

stats::MetricsSnapshot
Machine::metricsSnapshot()
{
    stats::MetricsSnapshot snap;
    if (!probe_ || !probe_->metrics)
        return snap;

    snap.horizon_us = toMicros(sim_.now());

    const stats::TransportMetrics &t = probe_->transport;
    snap.counters["msg.sends.eager"] = t.eager_sends.value();
    snap.counters["msg.sends.rdv"] = t.rdv_sends.value();
    snap.counters["msg.sends.self"] = t.self_sends.value();
    snap.counters["msg.sends.blt"] = t.blt_sends.value();
    snap.counters["msg.recvs"] = t.recvs.value();
    snap.gauges["msg.unexpected_queue"] = t.unexpected_hw.value();
    snap.gauges["msg.pending_rts_queue"] = t.pending_rts_hw.value();
    snap.gauges["msg.pending_recv_queue"] = t.pending_recv_hw.value();
    snap.gauges["msg.inject_backlog_us"] = t.inject_backlog_us.value();
    snap.histograms["msg.bytes_per_send"] =
        stats::HistogramSnapshot::of(t.msg_bytes);

    for (Coll op : kAllColls) {
        const stats::CollOpMetrics &c =
            probe_->coll[static_cast<std::size_t>(op)];
        if (c.calls.value() == 0)
            continue;
        std::string prefix = "coll." + collKey(op);
        snap.counters[prefix + ".calls"] = c.calls.value();
        snap.counters[prefix + ".stages"] = c.stages.value();
        snap.counters[prefix + ".msgs"] = c.msgs.value();
        snap.histograms[prefix + ".time_us"] =
            stats::HistogramSnapshot::of(c.time_us);
    }

    const stats::LinkMetrics &lm = probe_->links;
    snap.counters["net.messages"] = lm.transfers;
    snap.counters["net.payload_bytes"] =
        static_cast<std::uint64_t>(lm.payload_bytes);
    // A transfer is one route walk (routes are analytic; there is no
    // route cache to hit or miss).
    snap.counters["net.route.walks"] = lm.transfers;
    snap.counters["net.route.hops"] = lm.hops;

    // Completion-slot pool effectiveness.  The pools are the
    // fabric's, one per machine, and their counters derive only from
    // operation counts, so they stay deterministic run to run.
    const sim::PoolCounters pc = fabric_->poolCounters();
    snap.counters["msg.pool.reuses"] = pc.reuses;
    snap.counters["msg.pool.allocs"] = pc.allocs;

    snap.counters["sim.events"] = sim_.eventsFired();
    snap.counters["sim.tasks"] = sim_.tasksSpawned();
    snap.gauges["sim.event_queue_depth"] =
        static_cast<double>(sim_.queue().maxDepth());

    // The fault layer's counters, unified into the same snapshot so
    // one report answers "what did this run's faults cost".
    fault::FaultReport fr = faultReport();
    snap.counters["fault.drops"] = fr.drops;
    snap.counters["fault.delays"] = fr.delays;
    snap.counters["fault.retransmits"] = fr.retransmits;
    snap.counters["fault.exhausted"] = fr.exhausted;
    if (fr.degradation.any() || (fault_ && fault_->spec().policy !=
                                 fault::RecoveryPolicy::FailFast)) {
        snap.counters["fault.reroutes"] = fr.degradation.reroutes;
        snap.counters["fault.reroute_extra_bytes"] =
            static_cast<std::uint64_t>(fr.degradation.extra_bytes);
        snap.counters["fault.escalations"] = fr.degradation.escalations;
        snap.counters["fault.absorbed"] = fr.degradation.absorbed;
        snap.counters["fault.fallback_routes"] =
            fault_ ? fault_->fallbacksComputed() : 0;
        snap.gauges["fault.absorbed_delay_us"] =
            toMicros(fr.degradation.absorbed_delay);
    }

    snap.counters["net.stalled_transfers"] = lm.stalled_transfers;
    // Only touched pages are visited — per-link rows stay O(links
    // used) even on million-link fabrics.
    lm.load.forEach([&](std::size_t i, const stats::LinkLoad &k) {
        const Time stall = lm.stall.get(i);
        if (k.bytes == 0 && stall == 0)
            return;
        // Zero-padded ids keep the name-sorted link table in numeric
        // order.
        char label[16];
        std::snprintf(label, sizeof(label), "link%05zu", i);
        stats::LinkRow row;
        row.link = label;
        row.bytes = static_cast<std::uint64_t>(k.bytes);
        row.busy_us = toMicros(k.busy);
        row.stall_us = toMicros(stall);
        row.util =
            snap.horizon_us > 0.0 ? row.busy_us / snap.horizon_us : 0.0;
        snap.links.push_back(std::move(row));
    });

    return snap;
}

void
Machine::spawnAll(const std::function<sim::Task<void>(int)> &factory)
{
    for (int rank = 0; rank < size_; ++rank)
        sim_.spawn(factory(rank));
}

} // namespace ccsim::machine
