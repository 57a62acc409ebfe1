/**
 * @file
 * Ablation: do the 1997 algorithm choices survive faults?
 *
 * Every decision map in the paper — and every tuned table the
 * empirical tuner derives — assumes a clean machine.  This bench
 * re-runs the tuner on each paper machine under a realistic fault
 * regime (1% of links black-holed, 5% straggler nodes, recovery
 * policy "degrade", three fault universes averaged per candidate)
 * and compares the fault-conditioned winners against the clean ones
 * cell by cell.  Cells where the winner flips are exactly the places
 * a resilience-aware MPI should switch algorithms when the machine
 * starts degrading.
 *
 * The bench also doubles as the graceful-degradation acceptance
 * check: a 1% black-hole sweep over every collective on all three
 * machines must complete with ZERO FaultErrors under policy=degrade
 * (reroutes and absorbs instead of failures), and the run aborts if
 * no (machine, op) cell flips — losing that property would mean the
 * fault-conditioned tuner no longer measures anything the clean
 * tuner doesn't.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fault/fault_spec.hh"
#include "machine/config_io.hh"
#include "tuning/tuner.hh"
#include "util/error.hh"
#include "util/logging.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

/** The degraded regime every machine is re-tuned under. */
fault::FaultSpec
degradedRegime()
{
    return fault::parseFaultSpec(
        "blackhole=0.01,straggler=0.05,seed=42,policy=degrade");
}

/**
 * Acceptance sweep: every collective at one representative point,
 * under the degraded regime, on @p cfg.  Under policy=degrade this
 * must never raise FaultError — black holes reroute or absorb, and
 * stragglers stretch the makespan instead of killing the run.
 * Returns the summed DegradationReport for the table.
 */
fault::DegradationReport
zeroFailureSweep(machine::MachineConfig cfg,
                 const harness::MeasureOptions &mopt, int p, Bytes m)
{
    cfg.fault = degradedRegime();
    fault::DegradationReport total;
    for (machine::Coll op : machine::kAllColls) {
        try {
            auto meas = harness::measureCollective(
                cfg, p, op, op == machine::Coll::Barrier ? 0 : m,
                machine::Algo::Default, mopt);
            total.reroutes += meas.degradation.reroutes;
            total.extra_bytes += meas.degradation.extra_bytes;
            total.escalations += meas.degradation.escalations;
            total.absorbed += meas.degradation.absorbed;
            total.absorbed_delay += meas.degradation.absorbed_delay;
        } catch (const fault::FaultError &e) {
            fatal("degrade policy leaked a FaultError on %s %s: %s",
                  cfg.name.c_str(), machine::collKey(op).c_str(),
                  e.what());
        }
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("ABLATION — resilience-aware algorithm selection",
                "Re-tune each paper machine under 1% black-holed "
                "links + 5% stragglers (policy=degrade) and find the "
                "(op, p, m) cells where the clean-condition 1997 "
                "winner is no longer the right choice.");

    tuning::TuneGrid grid;
    grid.ops = {machine::Coll::Bcast, machine::Coll::Alltoall};
    grid.sizes = opts.quick ? std::vector<int>{8, 16}
                            : std::vector<int>{8, 16, 32};
    grid.lengths = opts.quick
                       ? std::vector<Bytes>{KiB, 16 * KiB, 64 * KiB}
                       : std::vector<Bytes>{256, KiB, 16 * KiB,
                                            64 * KiB};
    grid.options = harness::MeasureOptions::sweep();

    tuning::TuneGrid degraded_grid = grid;
    degraded_grid.options.ensemble = 3;

    const std::vector<machine::MachineConfig> machines = {
        machine::sp2Config(), machine::t3dConfig(),
        machine::paragonConfig()};

    std::vector<std::vector<std::string>> csv;
    int total_flips = 0;
    for (const auto &clean_cfg : machines) {
        machine::MachineConfig deg_cfg = clean_cfg;
        deg_cfg.fault = degradedRegime();

        tuning::TuneResult clean =
            tuning::tuneMachine(clean_cfg, grid, opts.jobs);
        tuning::TuneResult deg =
            tuning::tuneMachine(deg_cfg, degraded_grid, opts.jobs);
        if (clean.cells.size() != deg.cells.size())
            fatal("grid mismatch between clean and degraded tunes");

        std::printf("--- %s: clean winners vs degraded winners ---\n",
                    clean_cfg.name.c_str());
        TableWriter t;
        t.header({"op", "p", "m", "clean", "clean [us]", "degraded",
                  "degraded [us]", "flip"});
        int flips = 0;
        for (std::size_t i = 0; i < clean.cells.size(); ++i) {
            const auto &c = clean.cells[i];
            const auto &d = deg.cells[i];
            bool flip = c.best_algo != d.best_algo;
            flips += flip ? 1 : 0;
            t.row({machine::collKey(c.op), std::to_string(c.p),
                   formatBytes(c.m),
                   machine::algoName(c.best_algo),
                   usCell(toMicros(c.best_time)),
                   machine::algoName(d.best_algo),
                   usCell(toMicros(d.best_time)),
                   flip ? "FLIP" : "-"});
            csv.push_back({clean_cfg.name, machine::collKey(c.op),
                           std::to_string(c.p), std::to_string(c.m),
                           machine::algoName(c.best_algo),
                           machine::algoName(d.best_algo),
                           flip ? "1" : "0",
                           std::to_string(c.best_time),
                           std::to_string(d.best_time)});
        }
        t.print(std::cout);
        std::printf("  %d of %zu cells flip under the degraded "
                    "regime\n",
                    flips, clean.cells.size());
        total_flips += flips;

        fault::DegradationReport rep = zeroFailureSweep(
            clean_cfg, degraded_grid.options, opts.quick ? 16 : 32,
            16 * KiB);
        std::printf("  acceptance: all %zu collectives completed "
                    "with zero FaultErrors (%s)\n\n",
                    machine::kAllColls.size(), rep.str().c_str());
    }

    if (total_flips == 0)
        fatal("no (machine, op, p, m) cell flipped winners under "
              "faults — the fault-conditioned tuner is not "
              "conditioning on anything");
    std::printf("TOTAL: %d winner flips across %zu machines — the "
                "1997 decision maps are NOT fault-invariant.\n",
                total_flips, machines.size());

    maybeWriteCsv(opts, "ablation_resilience",
                  {"machine", "op", "p", "m", "clean_winner",
                   "fault_winner", "flip", "clean_ps", "fault_ps"},
                  csv);
    return 0;
}
