/**
 * @file
 * Figure 3 extrapolation: the paper's machine-size sweep pushed three
 * decades past its p = 64 frontier.
 *
 * The paper's central scaling story is O(p) vs O(log p) startup cost
 * across the SP2 omega, T3D torus, and Paragon mesh.  This bench
 * re-runs the barrier and broadcast sweeps on those fabrics plus two
 * extreme-scale ones — a fat tree (XGFT, D-mod-k routing) and a
 * dragonfly (minimal global routing), both carrying the SP2's
 * software stack so only the fabric changes — then:
 *
 *  1. fits the paper's closed form T0(p) = a g(p) + b to the
 *     simulated sizes and extrapolates it out to p = 2^20;
 *  2. anchors the extrapolation with one full simulation at
 *     p = 65536 (4096 under --quick) on the fat tree, which the
 *     analytic-routing network model handles in O(active links)
 *     memory;
 *  3. emits the crossover table: the smallest power-of-two p at
 *     which each 1997 fabric's closed form falls behind the fat
 *     tree and the dragonfly.
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "model/fit.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

struct Fabric
{
    std::string label;
    machine::MachineConfig cfg;
};

/** Simulated sizes the closed forms are fitted on (powers of two so
 *  the SP2 omega accepts every point). */
std::vector<int>
fitSizes(bool quick)
{
    if (quick)
        return {4, 8, 16, 32};
    return {4, 8, 16, 32, 64, 128, 256};
}

std::string
cell(double us)
{
    char buf[32];
    if (us >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.3g s", us / 1e6);
    else if (us >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.4g ms", us / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.4g us", us);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(opts.csv_dir.empty());

    printBanner("FIGURE 3 EXTRAPOLATION — startup scaling to p = 2^20",
                "Closed forms fitted on simulation; fat-tree and "
                "dragonfly vs the 1997 fabrics; full-sim anchor at "
                "extreme scale.");

    std::vector<Fabric> fabrics;
    fabrics.push_back({"SP2", machine::sp2Config()});
    fabrics.push_back({"T3D", machine::t3dConfig()});
    fabrics.push_back({"Paragon", machine::paragonConfig()});
    {
        machine::MachineConfig ft = machine::sp2Config();
        ft.name = "FatTree";
        ft.topo_spec = "fattree";
        fabrics.push_back({"FatTree", ft});

        machine::MachineConfig df = machine::sp2Config();
        df.name = "Dragonfly";
        df.topo_spec = "dragonfly";
        fabrics.push_back({"Dragonfly", df});
    }

    const machine::Coll ops[] = {machine::Coll::Barrier,
                                 machine::Coll::Bcast};
    const Bytes bcast_m = 16; // the paper's short-message series

    // ---- 1. simulate the fit range ------------------------------
    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (const Fabric &f : fabrics)
        for (machine::Coll op : ops)
            for (int p : fitSizes(opts.quick))
                sweep.add(f.cfg, p,  op,
                          op == machine::Coll::Barrier ? 0 : bcast_m);
    sweep.run();

    // ---- 2. fit + extrapolate the closed forms ------------------
    const int max_k = 20;
    // closed[f][op] = fitted startup expression
    std::vector<std::vector<model::TimingExpression>> closed;
    for (const Fabric &f : fabrics) {
        closed.emplace_back();
        for (machine::Coll op : ops) {
            Bytes m = op == machine::Coll::Barrier ? 0 : bcast_m;
            std::vector<model::Sample> samples;
            for (int p : fitSizes(opts.quick)) {
                const auto &meas = sweep.get(f.cfg, p, op, m);
                samples.push_back({m, p, meas.us()});
            }
            closed.back().push_back(model::fitStartupAuto(samples));
        }
    }

    for (std::size_t oi = 0; oi < 2; ++oi) {
        std::printf("--- %s: closed-form T0(p), extrapolated ---\n",
                    machine::collName(ops[oi]).c_str());
        TableWriter t;
        {
            std::vector<std::string> h{"p"};
            for (const Fabric &f : fabrics)
                h.push_back(f.label);
            t.header(h);
        }
        std::vector<std::vector<std::string>> csv_rows;
        for (int k = 2; k <= max_k; ++k) {
            int p = 1 << k;
            std::vector<std::string> csv{std::to_string(p)};
            for (std::size_t fi = 0; fi < fabrics.size(); ++fi)
                csv.push_back(
                    usCell(closed[fi][oi].startupUs(p)));
            csv_rows.push_back(csv);
            if (k % 2 != 0)
                continue; // print every other decade, CSV has all
            std::vector<std::string> row{std::to_string(p)};
            for (std::size_t fi = 0; fi < fabrics.size(); ++fi)
                row.push_back(cell(closed[fi][oi].startupUs(p)));
            t.row(row);
        }
        t.print(std::cout);
        for (std::size_t fi = 0; fi < fabrics.size(); ++fi)
            std::printf("  %-10s T0(p) = %s\n",
                        fabrics[fi].label.c_str(),
                        closed[fi][oi].startupStr().c_str());
        std::printf("\n");

        std::vector<std::string> header{"p"};
        for (const Fabric &f : fabrics) {
            std::string l = f.label;
            for (char &c : l)
                c = static_cast<char>(std::tolower(
                    static_cast<unsigned char>(c)));
            header.push_back(l + "_us");
        }
        maybeWriteCsv(opts,
                      "fig3x_closed_" +
                          machine::collName(ops[oi]),
                      header, csv_rows);
    }

    // ---- 3. crossover table -------------------------------------
    std::printf("--- crossover: smallest p = 2^k where a 1997 fabric "
                "falls behind ---\n");
    TableWriter xt;
    xt.header({"fabric", "op", "vs FatTree", "vs Dragonfly"});
    std::vector<std::vector<std::string>> xrows;
    for (std::size_t fi = 0; fi < 3; ++fi) {
        for (std::size_t oi = 0; oi < 2; ++oi) {
            std::vector<std::string> row{fabrics[fi].label,
                                         machine::collName(ops[oi])};
            for (std::size_t mi = 3; mi < 5; ++mi) {
                int cross = 0;
                for (int k = 2; k <= max_k; ++k) {
                    int p = 1 << k;
                    if (closed[fi][oi].startupUs(p) >
                        closed[mi][oi].startupUs(p)) {
                        cross = p;
                        break;
                    }
                }
                row.push_back(cross ? std::to_string(cross)
                                    : "> 2^20");
            }
            xt.row(row);
            xrows.push_back(row);
        }
    }
    xt.print(std::cout);
    std::printf("\n");
    maybeWriteCsv(opts, "fig3x_crossover",
                  {"fabric", "op", "vs_fattree", "vs_dragonfly"},
                  xrows);

    // ---- 4. full-simulation anchor at extreme scale -------------
    const int anchor_p = opts.quick ? 4096 : 65536;
    harness::MeasureOptions one;
    one.iterations = 1;
    one.repetitions = 1;
    one.warmup = 0;
    const Fabric &ft = fabrics[3];
    harness::Measurement anchor = harness::measureCollective(
        ft.cfg, anchor_p, machine::Coll::Barrier, 0,
        machine::Algo::Default, one);
    double sim_us = anchor.us();
    double form_us = closed[3][0].startupUs(anchor_p);
    std::printf("--- full-sim anchor: fat-tree barrier at p = %d ---\n",
                anchor_p);
    std::printf("  simulated      : %s\n", cell(sim_us).c_str());
    std::printf("  closed form    : %s (%+.1f%% vs sim)\n",
                cell(form_us).c_str(),
                sim_us > 0 ? 100.0 * (form_us - sim_us) / sim_us : 0.0);
    maybeWriteCsv(opts, "fig3x_anchor", {"p", "sim_us", "closed_us"},
                  {{std::to_string(anchor_p), usCell(sim_us),
                    usCell(form_us)}});
    return 0;
}
