/**
 * @file
 * Fault ablation: how fragile are the paper's fitted closed forms
 * T(m, p) = T0(p) + D(m, p) (Table 3) when the machine is not
 * pristine?
 *
 * Regenerates Fig. 3-style curves for barrier, broadcast, and total
 * exchange on the three machines under 0 / 1 / 5 % fault rates —
 * each rate assigns that fraction of nodes as 2x stragglers and the
 * same fraction of links as half-bandwidth degraded, drawn
 * deterministically from a fixed seed — then re-fits the paper-style
 * expressions and reports the drift of the fitted startup latency
 * T0(p) and aggregated bandwidth R_inf(p) against the fault-free
 * fit.
 *
 * The headline contrast the fault layer was built to expose: the
 * T3D's hardwired barrier tree ignores stragglers completely (its
 * drift stays zero), while the SP2/Paragon software dissemination
 * barriers inherit every straggler's slowdown in full.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "model/fit.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

const double kRates[] = {0.0, 0.01, 0.05};

/** The ablation's fault scenario at straggler/degrade rate @p rate. */
fault::FaultSpec
faultsAt(double rate)
{
    fault::FaultSpec f;
    f.seed = 42;
    f.straggler_rate = rate;
    f.straggler_factor = 2.0;
    f.link_degrade_rate = rate;
    f.link_degrade_factor = 0.5;
    return f;
}

std::string
rateTag(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "fault=%.2f", rate);
    return buf;
}

/** Drift percentage cell vs the fault-free value ("-" when the
 *  baseline is zero, e.g. R_inf of a barrier). */
std::string
driftCell(double value, double base)
{
    if (base == 0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%",
                  100.0 * (value - base) / base);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(opts.csv_dir.empty());

    printBanner("FAULT ABLATION — Table 3 fits under degraded "
                "machines",
                "Fitted T0(p) / R_inf(p) drift vs straggler + "
                "link-degradation rate.");

    auto machines = machine::paperMachines();
    const machine::Coll ops[] = {machine::Coll::Barrier,
                                 machine::Coll::Bcast,
                                 machine::Coll::Alltoall};
    std::vector<Bytes> lengths = sweepLengths(opts.quick);
    std::vector<std::vector<std::string>> csv_rows;

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (machine::Coll op : ops) {
        for (const auto &base : machines) {
            for (double rate : kRates) {
                machine::MachineConfig cfg = base;
                cfg.fault = faultsAt(rate);
                for (int p : sweepSizes(cfg.name, opts.quick)) {
                    for (Bytes m : lengths) {
                        sweep.add(cfg, p, op,
                                  op == machine::Coll::Barrier ? 0 : m,
                                  machine::Algo::Default,
                                  rateTag(rate));
                        if (op == machine::Coll::Barrier)
                            break;
                    }
                }
            }
        }
    }
    sweep.run();

    for (machine::Coll op : ops) {
        std::printf("--- %s ---\n", machine::collName(op).c_str());
        TableWriter t;
        t.header({"machine", "faults", "fitted T(m,p) [us]", "T0(p*)",
                  "dT0", "R_inf(p*)", "dR_inf"});
        for (const auto &base : machines) {
            std::vector<int> sizes = sweepSizes(base.name, opts.quick);
            int p_ref = sizes.back();
            double t0_clean = 0, rinf_clean = 0;
            for (double rate : kRates) {
                machine::MachineConfig cfg = base;
                cfg.fault = faultsAt(rate);
                std::vector<model::Sample> samples;
                for (int p : sizes) {
                    for (Bytes m : lengths) {
                        Bytes mm =
                            op == machine::Coll::Barrier ? 0 : m;
                        const auto &meas =
                            sweep.get(cfg, p, op, mm,
                                      machine::Algo::Default,
                                      rateTag(rate));
                        samples.push_back({mm, p, meas.us()});
                        if (op == machine::Coll::Barrier)
                            break; // barrier has no m sweep
                    }
                }
                model::TimingExpression fit =
                    op == machine::Coll::Barrier
                        ? model::fitStartupAuto(samples)
                        : model::fitPaperStyleAuto(samples);
                double t0 = fit.startupUs(p_ref);
                double rinf = fit.aggregatedBandwidthMBs(op, p_ref);
                if (rate == 0.0) {
                    t0_clean = t0;
                    rinf_clean = rinf;
                }
                t.row({cfg.name, rateTag(rate), fit.str(),
                       formatF(t0, 1), driftCell(t0, t0_clean),
                       rinf > 0 ? formatF(rinf, 1) : "-",
                       driftCell(rinf, rinf_clean)});
                csv_rows.push_back(
                    {machine::collName(op), cfg.name,
                     formatF(rate, 2), fit.str(), formatF(t0, 2),
                     formatF(rinf, 2), driftCell(t0, t0_clean),
                     driftCell(rinf, rinf_clean)});
            }
        }
        t.print(std::cout);
        std::printf("\n");
    }

    std::printf("p* = largest swept machine size per machine; drift "
                "is relative to the\nfault-free fit.  The T3D barrier "
                "row is the control: its hardwired AND\ntree never "
                "touches the straggling CPUs, so its drift stays "
                "0.0%%.\n");

    maybeWriteCsv(opts, "ablation_faults",
                  {"op", "machine", "rate", "fitted", "t0_ref_us",
                   "rinf_ref_mbs", "t0_drift", "rinf_drift"},
                  csv_rows);
    return 0;
}
