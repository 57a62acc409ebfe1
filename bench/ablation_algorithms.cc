/**
 * @file
 * Ablation: collective-algorithm choice.
 *
 * The paper attributes the O(log p) vs O(p) startup split entirely
 * to the algorithms the vendor MPIs picked (Section 8).  This bench
 * swaps algorithms on a fixed machine (the SP2 model) and shows:
 *
 *  - broadcast: linear fan-out's O(p) startup vs binomial's
 *    O(log p), and scatter+allgather's long-message win;
 *  - barrier: linear vs binomial tree vs dissemination;
 *  - alltoall: pairwise vs Bruck (Bruck wins for tiny m, loses for
 *    large m) vs all-nonblocking linear;
 *  - allgather: ring vs recursive doubling;
 *  - reduce/gather: linear vs binomial;
 *  - allreduce: reduce+bcast vs recursive doubling;
 *  - scan: linear pipeline vs recursive doubling.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

using namespace ccsim;
using namespace ccsim::bench;

namespace {

/** Declaration pass: add every point of the panel to the sweep. */
void
declarePanel(SweepSession &sweep, const machine::MachineConfig &cfg,
             machine::Coll op, const std::vector<machine::Algo> &algos,
             const std::vector<Bytes> &lengths,
             const std::vector<int> &sizes)
{
    for (Bytes m : lengths)
        for (int p : sizes)
            for (auto a : algos)
                sweep.add(cfg, p, op, m, a);
}

/** Printing pass: all points already simulated by sweep.run(). */
void
panel(const SweepSession &sweep, const machine::MachineConfig &cfg,
      machine::Coll op, const std::vector<machine::Algo> &algos,
      const std::vector<Bytes> &lengths, const std::vector<int> &sizes)
{
    std::printf("--- %s on %s ---\n", machine::collName(op).c_str(),
                cfg.name.c_str());
    for (Bytes m : lengths) {
        TableWriter t;
        std::vector<std::string> hdr{"p"};
        for (auto a : algos)
            hdr.push_back(machine::algoName(a));
        t.header(hdr);
        for (int p : sizes) {
            std::vector<std::string> row{std::to_string(p)};
            for (auto a : algos)
                row.push_back(usCell(sweep.get(cfg, p, op, m, a).us()));
            t.row(row);
        }
        std::printf("  m = %s [us]\n", formatBytes(m).c_str());
        t.print(std::cout);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("ABLATION — collective algorithm choice",
                "Same machine model (SP2), different algorithms per "
                "operation.");

    auto cfg = machine::sp2Config();
    std::vector<int> sizes = opts.quick
                                 ? std::vector<int>{4, 16}
                                 : std::vector<int>{4, 16, 64};
    std::vector<Bytes> small_large =
        opts.quick ? std::vector<Bytes>{64}
                   : std::vector<Bytes>{64, 64 * KiB};

    using machine::Algo;
    using machine::Coll;

    struct PanelSpec
    {
        Coll op;
        std::vector<Algo> algos;
        std::vector<Bytes> lengths;
    };
    const std::vector<PanelSpec> panels = {
        {Coll::Bcast,
         {Algo::Linear, Algo::Binomial, Algo::ScatterAllgather},
         small_large},
        {Coll::Barrier,
         {Algo::Linear, Algo::Binomial, Algo::Dissemination},
         {0}},
        {Coll::Alltoall, {Algo::Linear, Algo::Pairwise, Algo::Bruck},
         small_large},
        {Coll::Allgather, {Algo::Ring, Algo::RecursiveDoubling},
         small_large},
        {Coll::Gather, {Algo::Linear, Algo::Binomial}, small_large},
        {Coll::Reduce, {Algo::Linear, Algo::Binomial}, small_large},
        {Coll::Allreduce, {Algo::ReduceBcast, Algo::RecursiveDoubling},
         small_large},
        {Coll::Scan, {Algo::Linear, Algo::RecursiveDoubling},
         small_large},
    };

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (const auto &ps : panels)
        declarePanel(sweep, cfg, ps.op, ps.algos, ps.lengths, sizes);
    sweep.run();
    for (const auto &ps : panels)
        panel(sweep, cfg, ps.op, ps.algos, ps.lengths, sizes);
    return 0;
}
