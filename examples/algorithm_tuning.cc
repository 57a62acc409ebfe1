/**
 * @file
 * Algorithm auto-tuning: derive a tuned-collectives selection table
 * for a simulated 1997 machine with the empirical tuner, then use it
 * through Algo::Auto.
 *
 * tuning::tuneMachine() measures every candidate algorithm (the
 * per-collective candidate sets come from tuning::candidateAlgos())
 * over a (p, m) grid, keeps the winners, and compresses them into a
 * tuning::SelectionTable — the same selection logic MPICH later
 * shipped as hard-coded switch points (e.g.\ Bruck below a size
 * threshold, pairwise above; binomial bcast for short,
 * scatter+allgather for long).  Attaching the table to the machine
 * makes every Algo::Auto call (the collective API's default) resolve
 * to the tuned winner.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "ccsim.hh"

using namespace ccsim;

int
main(int argc, char **argv)
{
    // Pick the machine model from the command line (default SP2).
    machine::MachineConfig cfg = machine::sp2Config();
    if (argc > 1) {
        std::string name = argv[1];
        if (name == "T3D")
            cfg = machine::t3dConfig();
        else if (name == "Paragon")
            cfg = machine::paragonConfig();
        else if (name != "SP2")
            fatal("unknown machine '%s' (SP2, T3D, Paragon)",
                  name.c_str());
    }

    tuning::TuneGrid grid;
    grid.sizes = {4, 16, 64};
    grid.lengths = {64, 4 * KiB, 64 * KiB};
    grid.options = harness::MeasureOptions::sweep();

    std::printf("Tuning the %s model over %zu sizes x %zu lengths\n\n",
                cfg.name.c_str(), grid.sizes.size(),
                grid.lengths.size());
    tuning::TuneResult res = tuning::tuneMachine(cfg, grid);

    // The tuned decision map, in its on-disk form (`ccsim tune` can
    // save the same document with --out and --selection reloads it).
    std::printf("--- tuned selection table ---\n");
    res.table.save(std::cout);

    // The headline: how much the machine's configured 1997 defaults
    // left on the table over the tuned grid.
    std::printf("\ntotal regret of the configured defaults: %.1f%%\n",
                res.totalRegret() * 100.0);
    const auto &worst = res.worstCell();
    std::printf("worst cell: %s p=%d m=%s (%s -> %s, %.1f%%)\n\n",
                machine::collName(worst.op).c_str(), worst.p,
                formatBytes(worst.m).c_str(),
                machine::algoName(worst.default_algo).c_str(),
                machine::algoName(worst.best_algo).c_str(),
                worst.regret() * 100.0);

    // Attach the table and let Algo::Auto do the choosing: the same
    // call now picks the tuned winner per (p, m).
    cfg.selection =
        std::make_shared<tuning::SelectionTable>(res.table);
    std::printf("--- bcast through Algo::Auto with the table "
                "attached ---\n");
    TableWriter t;
    t.header({"m \\ p", "4", "16", "64"});
    for (Bytes m : grid.lengths) {
        std::vector<std::string> row{formatBytes(m)};
        for (int p : grid.sizes) {
            auto meas = harness::measureCollective(
                cfg, p, machine::Coll::Bcast, m, machine::Algo::Auto,
                grid.options);
            row.push_back(machine::algoName(meas.algo) + " (" +
                          formatTime(meas.time()) + ")");
        }
        t.row(row);
    }
    t.print(std::cout);
    return 0;
}
