/**
 * @file
 * Trace a collective and emit a Chrome-trace timeline.
 *
 * Runs one 4 KB broadcast and one 4 KB total exchange on 8 nodes of
 * the Paragon model with tracing enabled, writes
 * `ccsim_trace.json` (load it in chrome://tracing or
 * https://ui.perfetto.dev to see the ladder diagram), and prints the
 * per-rank compute/communication breakdown — the per-rank view of
 * what the paper's Fig. 4 shows as machine-level bars.
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "ccsim.hh"

using namespace ccsim;
using namespace ccsim::time_literals;

int
main()
{
    machine::Machine m(machine::paragonConfig(), 8);
    sim::Trace trace;
    m.attachTrace(trace);

    auto prog = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(m, rank);
        co_await comm.compute(Time(rank + 1) * 20 * US); // stagger
        co_await comm.bcast(4 * KiB, 0);
        co_await comm.alltoall(4 * KiB);
    };
    for (int r = 0; r < m.size(); ++r)
        m.sim().spawn(prog(r));
    m.run();

    const char *path = "ccsim_trace.json";
    std::ofstream out(path);
    trace.writeChromeJson(out);
    std::printf("wrote %s (%zu spans) — open in chrome://tracing or "
                "ui.perfetto.dev\n\n",
                path, trace.spans().size());

    TableWriter t;
    t.header({"rank", "compute", "send", "recv", "comm total",
              "spans"});
    for (auto &[rank, rs] : trace.summarize()) {
        t.row({std::to_string(rank), formatTime(rs.compute),
               formatTime(rs.send), formatTime(rs.recv),
               formatTime(rs.comm()), std::to_string(rs.spans)});
    }
    t.print(std::cout);
    std::printf("\nTotal simulated time: %s\n",
                formatTime(m.sim().now()).c_str());
    return 0;
}
