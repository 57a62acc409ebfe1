/**
 * @file
 * Ablation: the special hardware the paper credits for each
 * machine's signature behaviour.
 *
 *  - T3D hardwired barrier OFF -> the 3 us barrier becomes a
 *    software dissemination barrier (the paper: "at least 30 times
 *    faster than the SP2 or Paragon" with it on);
 *  - T3D block-transfer engine OFF -> long-message transfers pay
 *    the memory-copy path;
 *  - Paragon message coprocessor OFF -> the sender eats the whole
 *    injection copy and the long-message advantage over the SP2
 *    shrinks.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

using namespace ccsim;
using namespace ccsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    quietLogging(true);

    printBanner("ABLATION — special hardware mechanisms",
                "T3D barrier tree & BLT; Paragon message "
                "coprocessor.");

    std::vector<int> sizes = opts.quick
                                 ? std::vector<int>{4, 16}
                                 : std::vector<int>{4, 16, 64};

    // The variant configs keep their preset names, so sweep tags
    // tell the on/off pairs apart.
    auto with_hw = machine::t3dConfig();
    auto without_hw = machine::t3dConfig();
    without_hw.hardware_barrier = false;
    without_hw.setAlgorithm(machine::Coll::Barrier,
                            machine::Algo::Dissemination);
    // Software barrier pays the same per-stage cost the other
    // machines' MPICH-style barriers pay.
    without_hw.costsFor(machine::Coll::Barrier).per_stage =
        microseconds(40);

    auto with_blt = machine::t3dConfig();
    auto without_blt = machine::t3dConfig();
    without_blt.transport.blt_enabled = false;
    const std::vector<Bytes> blt_lengths = {4 * KiB, 16 * KiB,
                                            64 * KiB};

    auto with_cp = machine::paragonConfig();
    auto without_cp = machine::paragonConfig();
    without_cp.transport.coprocessor_overlap = 0.0;
    const std::vector<double> copy_bws = {400.0, 170.0};
    const std::vector<Bytes> cp_lengths = {1 * KiB, 16 * KiB,
                                           64 * KiB};

    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (int p : sizes) {
        sweep.add(with_hw, p, machine::Coll::Barrier, 0,
                  machine::Algo::Default, "hw");
        sweep.add(without_hw, p, machine::Coll::Barrier, 0,
                  machine::Algo::Default, "sw");
    }
    for (Bytes m : blt_lengths) {
        sweep.add(with_blt, 32, machine::Coll::Bcast, m,
                  machine::Algo::Default, "blt-on");
        sweep.add(without_blt, 32, machine::Coll::Bcast, m,
                  machine::Algo::Default, "blt-off");
    }
    for (double copy_bw : copy_bws) {
        with_cp.transport.copy_bandwidth_mbs = copy_bw;
        without_cp.transport.copy_bandwidth_mbs = copy_bw;
        std::string bw_tag = formatF(copy_bw, 0);
        for (Bytes m : cp_lengths) {
            sweep.add(with_cp, 16, machine::Coll::Scatter, m,
                      machine::Algo::Default, "cp-on-" + bw_tag);
            sweep.add(without_cp, 16, machine::Coll::Scatter, m,
                      machine::Algo::Default, "cp-off-" + bw_tag);
        }
    }
    sweep.run();

    {
        std::printf("--- T3D hardwired barrier [us] ---\n");
        TableWriter t;
        t.header({"p", "hardwired", "software", "speedup"});
        for (int p : sizes) {
            const auto &hw =
                sweep.get(with_hw, p, machine::Coll::Barrier, 0,
                          machine::Algo::Default, "hw");
            const auto &sw =
                sweep.get(without_hw, p, machine::Coll::Barrier, 0,
                          machine::Algo::Default, "sw");
            t.row({std::to_string(p), usCell(hw.us()), usCell(sw.us()),
                   formatF(sw.us() / hw.us(), 1) + "x"});
        }
        t.print(std::cout);
        std::printf("\n");
    }

    {
        std::printf("--- T3D block-transfer engine, broadcast [us] "
                    "---\n");
        TableWriter t;
        t.header({"m", "BLT on", "BLT off", "saving"});
        for (Bytes m : blt_lengths) {
            const auto &on =
                sweep.get(with_blt, 32, machine::Coll::Bcast, m,
                          machine::Algo::Default, "blt-on");
            const auto &off =
                sweep.get(without_blt, 32, machine::Coll::Bcast, m,
                          machine::Algo::Default, "blt-off");
            double save =
                off.us() > 0 ? 100.0 * (off.us() - on.us()) / off.us()
                             : 0;
            t.row({formatBytes(m), usCell(on.us()), usCell(off.us()),
                   formatF(save, 1) + "%"});
        }
        t.print(std::cout);
        std::printf("\n");
    }

    {
        std::printf("--- Paragon message coprocessor [us] ---\n");
        // The coprocessor relieves the *sending* processor, so it
        // shows most where one node paces many injections (scatter
        // root) — and it compounds when node memory is slower than
        // the i860 XP's streaming mode (second table: 170 MB/s
        // copies, the non-streaming rate).
        for (double copy_bw : copy_bws) {
            std::string bw_tag = formatF(copy_bw, 0);
            TableWriter t;
            t.header({"m", "coprocessor on", "off", "penalty"});
            for (Bytes m : cp_lengths) {
                const auto &on = sweep.get(
                    with_cp, 16, machine::Coll::Scatter, m,
                    machine::Algo::Default, "cp-on-" + bw_tag);
                const auto &off = sweep.get(
                    without_cp, 16, machine::Coll::Scatter, m,
                    machine::Algo::Default, "cp-off-" + bw_tag);
                double pen =
                    on.us() > 0
                        ? 100.0 * (off.us() - on.us()) / on.us()
                        : 0;
                t.row({formatBytes(m), usCell(on.us()),
                       usCell(off.us()), formatF(pen, 1) + "%"});
            }
            std::printf("  scatter, p = 16, copies at %.0f MB/s\n",
                        copy_bw);
            t.print(std::cout);
        }
        std::printf("\n");
    }
    return 0;
}
