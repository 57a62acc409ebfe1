/**
 * @file
 * Ablation: the eager/rendezvous threshold.
 *
 * The short/long crossover the paper keeps finding (SP2 beats
 * Paragon below ~1 KB, loses above) rides on the messaging
 * protocol: eager pays a receive-side copy, rendezvous pays a
 * handshake round trip.  This bench sweeps the threshold on the SP2
 * model and shows where each protocol wins, plus the message size
 * at which the default threshold switches.
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

    printBanner("ABLATION — eager/rendezvous protocol threshold",
                "Broadcast time on the SP2 model as the threshold "
                "moves.");

    const int p = opts.quick ? 8 : 32;

    std::vector<Bytes> thresholds = {0, 1 * KiB, 4 * KiB, 16 * KiB,
                                     256 * KiB};
    std::vector<Bytes> lengths = {256, 1 * KiB, 4 * KiB, 16 * KiB,
                                  64 * KiB};

    // One SP2 variant per threshold; the tag keys the variant (all
    // share the preset name).
    SweepSession sweep(opts, harness::MeasureOptions::sweep());
    for (Bytes m : lengths) {
        for (Bytes th : thresholds) {
            auto cfg = machine::sp2Config();
            cfg.transport.eager_threshold = th;
            sweep.add(cfg, p, machine::Coll::Bcast, m,
                      machine::Algo::Default, std::to_string(th));
        }
    }
    sweep.run();

    TableWriter t;
    std::vector<std::string> hdr{"m \\ threshold"};
    for (Bytes th : thresholds)
        hdr.push_back(th == 0 ? "all-rdv" : formatBytes(th));
    t.header(hdr);

    for (Bytes m : lengths) {
        std::vector<std::string> row{formatBytes(m)};
        for (Bytes th : thresholds) {
            const auto &meas =
                sweep.get(machine::sp2Config(), p, machine::Coll::Bcast,
                          m, machine::Algo::Default,
                          std::to_string(th));
            row.push_back(usCell(meas.us()));
        }
        t.row(row);
    }
    t.print(std::cout);
    std::printf("\nBroadcast T(m, %d) [us].  'all-rdv' forces the "
                "handshake for every\nmessage; a huge threshold "
                "forces eager (extra receive copy) for all.\nThe "
                "diagonal structure is the crossover the paper "
                "observes.\n", p);
    return 0;
}
