/**
 * @file
 * Machine shoot-out: the paper's conclusions as a program.
 *
 * Runs all seven collectives on all three machines for a short and a
 * long message and prints the per-operation machine ranking,
 * annotated with the claims from the paper's Section 9:
 *
 *  - "the T3D does uniformly best in all collective functions, with
 *    the only exception of trailing the Paragon in the scan";
 *  - "the SP2 outperforms the Paragon in any short messages less
 *    than 1 KB; the Paragon performs better than the SP2 in long
 *    messages, except the reduce operation".
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "ccsim.hh"

using namespace ccsim;

namespace {

std::string
ranking(const std::vector<std::pair<std::string, double>> &entries)
{
    auto sorted = entries;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    std::string out;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            out += " < ";
        out += sorted[i].first;
    }
    return out;
}

} // namespace

int
main()
{
    auto machines = machine::paperMachines();
    const auto mopt = harness::MeasureOptions::sweep();
    const int p = 32;

    std::printf("Machine shoot-out at p = %d (times in us; ranking "
                "fastest first)\n\n", p);

    for (Bytes m : {Bytes(16), Bytes(64 * KiB)}) {
        std::printf("=== message length m = %s ===\n",
                    formatBytes(m).c_str());
        TableWriter t;
        t.header({"operation", "SP2", "T3D", "Paragon", "ranking"});
        for (machine::Coll op : machine::kPaperColls) {
            Bytes mm = op == machine::Coll::Barrier ? 0 : m;
            std::vector<std::pair<std::string, double>> entries;
            std::vector<std::string> row{machine::collName(op)};
            for (const auto &cfg : machines) {
                auto meas = harness::measureCollective(
                    cfg, p, op, mm, machine::Algo::Default, mopt);
                entries.emplace_back(cfg.name, meas.us());
                row.push_back(formatF(meas.us(), 1));
            }
            row.push_back(ranking(entries));
            t.row(row);
        }
        t.print(std::cout);
        std::printf("\n");
    }

    std::printf(
        "Paper, Section 9: the T3D ranks highest overall (exception: "
        "scan, where\nthe Paragon leads); the SP2 beats the Paragon "
        "for short messages; the\nParagon beats the SP2 for long "
        "messages except reduce, where the SP2's\nstronger reduction "
        "arithmetic wins.\n");
    return 0;
}
