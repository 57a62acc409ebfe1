/**
 * @file
 * Ablation: hot links under total exchange — Paragon's 2-D mesh vs
 * SP2's omega network, through the metrics layer.
 *
 * The paper attributes Paragon's poor large-message total-exchange
 * scaling to link contention in the 2-D mesh: bisection traffic
 * funnels through the few middle columns, so a handful of links run
 * hot while the rest idle.  The omega network spreads the same
 * traffic across its stages.  This bench quantifies that with the
 * per-link counters: max-link utilization, the share of link busy
 * time lost to contention stalls, and the traffic carried by the
 * hottest link.
 *
 * Two panels:
 *
 *  1. stock machines — Paragon vs SP2 as calibrated.  SP2's links
 *     are 4x slower (40 vs 175 MB/s), so its links are *busier*
 *     even though they never contend; utilization alone does not
 *     separate wiring from link speed.
 *
 *  2. controlled wiring — the same machine (Paragon's parameters)
 *     wired as a 2-D mesh vs as SP2's omega.  With every other
 *     parameter equal, the mesh's hot links carry multiples of the
 *     omega's per-link traffic and its utilization pulls ahead as
 *     messages grow — the paper's contention argument, isolated.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

/** Stall share: contention wait as a fraction of link busy time. */
double
stallShare(const stats::MetricsSnapshot &snap)
{
    double busy = snap.totalLinkBusyUs();
    return busy > 0 ? snap.totalStallUs() / busy : 0.0;
}

/** Bytes carried by the hottest (highest-utilization) link. */
Bytes
hottestLinkBytes(const stats::MetricsSnapshot &snap)
{
    Bytes best = 0;
    double best_util = -1.0;
    for (const auto &row : snap.links)
        if (row.util > best_util) {
            best_util = row.util;
            best = static_cast<Bytes>(row.bytes);
        }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("ABLATION — hot links under total exchange",
                "Max-link utilization and contention-stall share on "
                "the Paragon mesh vs the SP2 omega network.");

    // The mesh's bisection squeeze needs a machine wide enough for
    // middle columns to matter, so even --quick keeps p = 64.
    std::vector<int> sizes =
        opts.quick ? std::vector<int>{64} : std::vector<int>{16, 64};
    std::vector<Bytes> lengths =
        opts.quick ? std::vector<Bytes>{1 * KiB, 16 * KiB}
                   : std::vector<Bytes>{1 * KiB, 16 * KiB, 64 * KiB};

    // The controlled pair: Paragon's node and link parameters, wired
    // two ways.  Only the topology differs.
    machine::MachineConfig mesh = machine::paragonConfig();
    mesh.name = "mesh2d (Paragon params)";
    machine::MachineConfig omega = machine::paragonConfig();
    omega.name = "omega (Paragon params)";
    omega.topology = "omega";

    harness::MeasureOptions mopt = harness::MeasureOptions::sweep();
    mopt.metrics = true;
    SweepSession sweep(opts, mopt);
    std::vector<machine::MachineConfig> stock = {
        machine::paragonConfig(), machine::sp2Config()};
    for (int p : sizes)
        for (Bytes m : lengths) {
            for (const auto &cfg : stock)
                sweep.add(cfg, p, machine::Coll::Alltoall, m);
            sweep.add(mesh, p, machine::Coll::Alltoall, m);
            sweep.add(omega, p, machine::Coll::Alltoall, m);
        }
    sweep.run();

    std::vector<std::vector<std::string>> csv_rows;
    auto report = [&](const char *title,
                      const std::vector<machine::MachineConfig> &cfgs) {
        std::printf("--- %s ---\n", title);
        TableWriter t;
        t.header({"machine", "p", "m", "time us", "max util %",
                  "stall %", "hottest link"});
        for (int p : sizes)
            for (Bytes m : lengths)
                for (const auto &cfg : cfgs) {
                    const auto &meas = sweep.get(
                        cfg, p, machine::Coll::Alltoall, m);
                    const auto &snap = meas.metrics;
                    t.row({cfg.name, std::to_string(p),
                           formatBytes(m), usCell(meas.us()),
                           formatF(100.0 * snap.maxLinkUtil(), 1),
                           formatF(100.0 * stallShare(snap), 1),
                           formatBytes(hottestLinkBytes(snap))});
                    csv_rows.push_back(
                        {cfg.name, std::to_string(p),
                         std::to_string(m), formatF(meas.us(), 3),
                         formatF(snap.maxLinkUtil(), 6),
                         formatF(stallShare(snap), 6),
                         std::to_string(hottestLinkBytes(snap))});
                }
        t.print(std::cout);
        std::printf("\n");
    };

    report("stock machines (calibrated link speeds)", stock);
    report("controlled wiring (identical parameters)", {mesh, omega});

    // The headline comparison at the largest point.
    int p = sizes.back();
    Bytes m = lengths.back();
    const auto &mm =
        sweep.get(mesh, p, machine::Coll::Alltoall, m).metrics;
    const auto &om =
        sweep.get(omega, p, machine::Coll::Alltoall, m).metrics;
    std::printf("at p = %d, m = %s (identical parameters):\n", p,
                formatBytes(m).c_str());
    std::printf("  mesh : max util %.1f%%, stall share %.1f%%\n",
                100.0 * mm.maxLinkUtil(), 100.0 * stallShare(mm));
    std::printf("  omega: max util %.1f%%, stall share %.1f%%\n",
                100.0 * om.maxLinkUtil(), 100.0 * stallShare(om));
    std::printf("  mesh hot-link utilization %s the omega's — the "
                "paper's contention bottleneck %s.\n",
                mm.maxLinkUtil() > om.maxLinkUtil() ? "exceeds"
                                                    : "trails",
                mm.maxLinkUtil() > om.maxLinkUtil() ? "reproduced"
                                                    : "NOT reproduced");

    maybeWriteCsv(opts, "ablation_hotlinks",
                  {"machine", "p", "m_bytes", "time_us", "max_util",
                   "stall_share", "hottest_link_bytes"},
                  csv_rows);
    std::fprintf(stderr, "%zu points in %.2f s\n",
                 sweep.stats().points, sweep.stats().wall_seconds);
    return 0;
}
