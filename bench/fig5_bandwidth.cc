/**
 * @file
 * Figure 5 reproduction: aggregated bandwidths R_inf(p) of six MPI
 * collectives on p in {16, 32, 64} nodes of each machine, in MB/s.
 *
 * R_inf(p) = f(m, p) / D(m, p) as m -> infinity (Section 3, Eq. 4).
 * The simulator estimate takes the finite-difference per-byte slope
 * between the two largest message lengths (16 KB and 64 KB) and
 * divides the aggregation factor F(p) by it; the paper column
 * evaluates the same limit on the Table 3 closed forms.
 *
 * Key spot check (abstract): 64-node total exchange reaches 1.745,
 * 0.879, and 0.818 GB/s on the T3D, Paragon, and SP2.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

const Bytes kSlopeLo = 16 * KiB;
const Bytes kSlopeHi = 64 * KiB;

/** Declare the two points the finite-difference slope needs. */
void
addSlopePoints(SweepSession &sweep, const machine::MachineConfig &cfg,
               int p, machine::Coll op)
{
    sweep.add(cfg, p, op, kSlopeLo);
    sweep.add(cfg, p, op, kSlopeHi);
}

/** Simulated per-byte slope (us/B) between 16 KB and 64 KB. */
double
simPerByteUs(const SweepSession &sweep,
             const machine::MachineConfig &cfg, int p, machine::Coll op)
{
    const auto &lo = sweep.get(cfg, p, op, kSlopeLo);
    const auto &hi = sweep.get(cfg, p, op, kSlopeHi);
    return (hi.us() - lo.us()) / static_cast<double>(kSlopeHi - kSlopeLo);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(opts.csv_dir.empty());

    printBanner("FIGURE 5 — Aggregated bandwidths R_inf(p) [MB/s]",
                "Six collectives, machine sizes 16 / 32 / 64.");

    const std::array<machine::Coll, 6> ops = {
        machine::Coll::Bcast,  machine::Coll::Alltoall,
        machine::Coll::Scatter, machine::Coll::Gather,
        machine::Coll::Scan,   machine::Coll::Reduce,
    };
    const char panel[] = {'a', 'b', 'c', 'd', 'e', 'f'};
    std::vector<int> sizes = opts.quick ? std::vector<int>{16}
                                        : std::vector<int>{16, 32, 64};

    auto machines = machine::paperMachines();

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (machine::Coll op : ops)
        for (int p : sizes)
            for (const auto &cfg : machines)
                addSlopePoints(sweep, cfg, p, op);
    for (const auto &cfg : machines) // abstract spot check
        addSlopePoints(sweep, cfg, 64, machine::Coll::Alltoall);
    sweep.run();

    std::vector<std::vector<std::string>> csv_rows;

    for (std::size_t oi = 0; oi < ops.size(); ++oi) {
        machine::Coll op = ops[oi];
        std::printf("--- Fig. 5%c: %s ---\n", panel[oi],
                    machine::collName(op).c_str());

        TableWriter t;
        t.header({"p", "SP2 sim", "SP2 paper", "T3D sim", "T3D paper",
                  "Paragon sim", "Paragon paper"});
        for (int p : sizes) {
            std::vector<std::string> row{std::to_string(p)};
            for (const auto &cfg : machines) {
                double slope = simPerByteUs(sweep, cfg, p, op);
                double r_sim =
                    slope > 0
                        ? model::aggregationFactor(op, p) / slope
                        : 0.0;
                row.push_back(formatF(r_sim, 1));
                if (model::paper::hasExpression(cfg.name, op)) {
                    double r_paper =
                        model::paper::expression(cfg.name, op)
                            .aggregatedBandwidthMBs(op, p);
                    row.push_back(formatF(r_paper, 1));
                } else {
                    row.push_back("-");
                }
                csv_rows.push_back({machine::collName(op), cfg.name,
                                    std::to_string(p),
                                    formatF(r_sim, 1)});
            }
            t.row(row);
        }
        t.print(std::cout);
        std::printf("\n");
    }

    std::printf("--- Abstract spot check: 64-node total exchange "
                "aggregated bandwidth ---\n");
    TableWriter t;
    t.header({"machine", "sim MB/s", "paper MB/s"});
    for (const auto &cfg : machines) {
        double slope =
            simPerByteUs(sweep, cfg, 64, machine::Coll::Alltoall);
        double r_sim =
            slope > 0 ? model::aggregationFactor(machine::Coll::Alltoall,
                                                 64) /
                            slope
                      : 0.0;
        t.row({cfg.name, formatF(r_sim, 0),
               formatF(model::paper::alltoallBandwidth64MBs(cfg.name),
                       0)});
    }
    t.print(std::cout);
    std::printf("\n");

    maybeWriteCsv(opts, "fig5_bandwidth",
                  {"op", "machine", "p", "r_inf_mbs"}, csv_rows);
    return 0;
}
