/**
 * @file
 * Table 3 reproduction: curve-fitted closed-form timing expressions
 * T(m, p) = T0(p) + D(m, p) for the seven collectives on the three
 * machines, derived from simulated measurements by the same
 * procedure the paper used (startup from short-message sweeps over
 * p, per-byte slope from long-message sweeps, growth family chosen
 * by best fit — O(log p) for barrier/broadcast/reduce/scan startup,
 * O(p) for gather/scatter/total exchange).
 *
 * Also reproduces the Section 8 worked example: the fitted T3D
 * total-exchange expression evaluated at m = 512 B, p = 64 should
 * give around 2.86 ms.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "model/fit.hh"

using namespace ccsim;
using namespace ccsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(opts.csv_dir.empty());

    printBanner("TABLE 3 — Fitted timing expressions T(m,p) "
                "[microseconds]",
                "Seven collectives x three machines; sim-fitted vs "
                "the paper's fits.");

    auto machines = machine::paperMachines();

    std::vector<Bytes> lengths = sweepLengths(opts.quick);
    std::vector<std::vector<std::string>> csv_rows;

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (machine::Coll op : machine::kPaperColls) {
        for (const auto &cfg : machines) {
            for (int p : sweepSizes(cfg.name, opts.quick)) {
                for (Bytes m : lengths) {
                    sweep.add(cfg, p, op,
                              op == machine::Coll::Barrier ? 0 : m);
                    if (op == machine::Coll::Barrier)
                        break;
                }
            }
        }
    }
    // Section 8 worked example rides along in the same batch.
    sweep.add(machine::t3dConfig(), 64, machine::Coll::Alltoall, 512);
    sweep.run();

    for (machine::Coll op : machine::kPaperColls) {
        std::printf("--- %s ---\n", machine::collName(op).c_str());
        TableWriter t;
        t.header({"machine", "fitted from simulation", "paper Table 3",
                  "rel RMS"});
        for (const auto &cfg : machines) {
            std::vector<model::Sample> samples;
            for (int p : sweepSizes(cfg.name, opts.quick)) {
                for (Bytes m : lengths) {
                    Bytes mm = op == machine::Coll::Barrier ? 0 : m;
                    const auto &meas = sweep.get(cfg, p, op, mm);
                    samples.push_back({mm, p, meas.us()});
                    if (op == machine::Coll::Barrier)
                        break; // barrier has no m sweep
                }
            }
            model::TimingExpression fit;
            if (op == machine::Coll::Barrier)
                fit = model::fitStartupAuto(samples);
            else
                fit = model::fitPaperStyleAuto(samples);
            double err = model::relRmsError(fit, samples);
            t.row({cfg.name, fit.str(),
                   model::paper::expression(cfg.name, op).str(),
                   formatF(err, 3)});
            csv_rows.push_back({machine::collName(op), cfg.name,
                                fit.str(), formatF(err, 3)});
        }
        t.print(std::cout);
        std::printf("\n");
    }

    // Section 8 worked example.
    {
        std::printf("--- Section 8 worked example: T3D total exchange, "
                    "m = 512 B, p = 64 ---\n");
        const auto &meas = sweep.get(machine::t3dConfig(), 64,
                                     machine::Coll::Alltoall, 512);
        double paper_us =
            model::paper::expression("T3D", machine::Coll::Alltoall)
                .evalUs(512, 64);
        std::printf("paper expression -> %.2f ms (text quotes 2.86 "
                    "ms); simulated -> %.2f ms\n\n",
                    paper_us / 1000.0, meas.us() / 1000.0);
    }

    maybeWriteCsv(opts, "table3_expressions",
                  {"op", "machine", "fitted", "rel_rms"}, csv_rows);
    return 0;
}
