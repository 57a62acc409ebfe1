/**
 * @file
 * Ablation: tuned auto-selection vs the 1997 defaults.
 *
 * Section 8 of the paper blames the O(p)-startup collectives on the
 * algorithm each vendor MPI happened to ship.  This bench asks the
 * follow-up question: how much time would a tuned MPI — one that
 * picks the best algorithm per (operation, p, m) the way Open MPI's
 * tuned component does — have recovered on each machine?
 *
 * For every paper machine (SP2, T3D, Paragon) it runs the empirical
 * tuner over a grid, prints the per-operation regret of the
 * machine's configured 1997 defaults against the tuned winners, and
 * then re-measures every grid point through Algo::Auto with the
 * tuned table attached, checking that the auto path reproduces the
 * explicit per-point best measurement byte-for-byte.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "machine/config_io.hh"
#include "tuning/tuner.hh"
#include "util/error.hh"
#include "util/logging.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

/** Per-operation totals accumulated over a machine's regret cells. */
struct OpTotals
{
    Time def = 0;
    Time best = 0;
    int cells = 0;
};

std::string
pctCell(double frac)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
    return buf;
}

/**
 * Re-measure every tuned cell through Algo::Auto with the tuned
 * table attached and insist on byte-identity with the explicit
 * best-algorithm measurement — the property that makes `auto` safe
 * to default to everywhere.
 */
void
verifyAutoIdentity(const machine::MachineConfig &cfg,
                   const tuning::TuneResult &res,
                   const harness::MeasureOptions &mopt)
{
    machine::MachineConfig tuned = cfg;
    tuned.selection =
        std::make_shared<tuning::SelectionTable>(res.table);

    for (const auto &cell : res.cells) {
        auto via_auto =
            harness::measureCollective(tuned, cell.p, cell.op, cell.m,
                                       machine::Algo::Auto, mopt);
        auto expl =
            harness::measureCollective(cfg, cell.p, cell.op, cell.m,
                                       cell.best_algo, mopt);
        if (via_auto.algo != expl.algo ||
            via_auto.max_time != expl.max_time ||
            via_auto.min_time != expl.min_time ||
            via_auto.mean_time != expl.mean_time) {
            fatal("auto-selection mismatch on %s: %s p=%d m=%lld "
                  "resolved to %s (%lld ps), explicit best %s "
                  "(%lld ps)",
                  cfg.name.c_str(),
                  machine::collName(cell.op).c_str(), cell.p,
                  static_cast<long long>(cell.m),
                  machine::algoName(via_auto.algo).c_str(),
                  static_cast<long long>(via_auto.max_time),
                  machine::algoName(cell.best_algo).c_str(),
                  static_cast<long long>(expl.max_time));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("ABLATION — tuned auto-selection vs 1997 defaults",
                "Empirically tune each paper machine, report the "
                "regret of its configured algorithms, and verify "
                "Algo::Auto reproduces the tuned winners exactly.");

    tuning::TuneGrid grid;
    grid.sizes = opts.quick ? std::vector<int>{4, 16}
                            : std::vector<int>{4, 16, 64};
    grid.lengths = opts.quick
                       ? std::vector<Bytes>{64, 16 * KiB}
                       : std::vector<Bytes>{4, 256, 4 * KiB, 64 * KiB};
    grid.options = harness::MeasureOptions::sweep();

    const std::vector<machine::MachineConfig> machines = {
        machine::sp2Config(), machine::t3dConfig(),
        machine::paragonConfig()};

    std::vector<std::vector<std::string>> csv;
    for (const auto &cfg : machines) {
        tuning::TuneResult res =
            tuning::tuneMachine(cfg, grid, opts.jobs);

        std::map<int, OpTotals> by_op;
        for (const auto &cell : res.cells) {
            auto &t = by_op[static_cast<int>(cell.op)];
            t.def += cell.default_time;
            t.best += cell.best_time;
            t.cells++;
            csv.push_back({cfg.name, machine::collKey(cell.op),
                           std::to_string(cell.p),
                           std::to_string(cell.m),
                           machine::algoName(cell.default_algo),
                           machine::algoName(cell.best_algo),
                           std::to_string(cell.default_time),
                           std::to_string(cell.best_time),
                           pctCell(cell.regret())});
        }

        std::printf("--- %s: regret of the 1997 defaults ---\n",
                    cfg.name.c_str());
        TableWriter t;
        t.header({"operation", "default [us]", "tuned [us]",
                  "regret", "cells"});
        for (auto op : machine::kAllColls) {
            auto it = by_op.find(static_cast<int>(op));
            if (it == by_op.end())
                continue;
            const OpTotals &tot = it->second;
            double frac =
                tot.best > 0
                    ? static_cast<double>(tot.def - tot.best) /
                          static_cast<double>(tot.best)
                    : 0.0;
            t.row({machine::collName(op), usCell(toMicros(tot.def)),
                   usCell(toMicros(tot.best)), pctCell(frac),
                   std::to_string(tot.cells)});
        }
        t.row({"TOTAL", usCell(toMicros(res.total_default)),
               usCell(toMicros(res.total_best)),
               pctCell(res.totalRegret()),
               std::to_string(res.cells.size())});
        t.print(std::cout);

        const auto &worst = res.worstCell();
        std::printf("  worst cell: %s p=%d m=%s — %s %s vs tuned "
                    "%s %s (%s regret)\n",
                    machine::collName(worst.op).c_str(), worst.p,
                    formatBytes(worst.m).c_str(),
                    machine::algoName(worst.default_algo).c_str(),
                    usCell(toMicros(worst.default_time)).c_str(),
                    machine::algoName(worst.best_algo).c_str(),
                    usCell(toMicros(worst.best_time)).c_str(),
                    pctCell(worst.regret()).c_str());

        verifyAutoIdentity(cfg, res, grid.options);
        std::printf("  auto == explicit best on all %zu cells "
                    "(byte-identical)\n\n",
                    res.cells.size());
    }

    maybeWriteCsv(opts, "ablation_autoselect",
                  {"machine", "op", "p", "m", "default_algo",
                   "best_algo", "default_ps", "best_ps", "regret"},
                  csv);
    return 0;
}
