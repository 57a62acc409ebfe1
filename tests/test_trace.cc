/** @file Tests for the execution-trace facility. */

#include <sstream>

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "sim/trace.hh"
#include "util/logging.hh"

namespace ccsim::sim {
namespace {

using namespace time_literals;

TEST(Trace, RecordsWhenEnabled)
{
    Trace t;
    t.record(Span{3, SpanKind::Recv, 5 * US, 9 * US, 128, 1, {}});
    ASSERT_EQ(t.spans().size(), 1u);
    EXPECT_EQ(t.spans()[0].rank, 3);
    EXPECT_EQ(t.spans()[0].duration(), 4 * US);
    t.clear();
    EXPECT_TRUE(t.spans().empty());
}

TEST(Trace, RejectsBackwardsSpan)
{
    throwOnError(true);
    Trace t;
    EXPECT_THROW(t.record(Span{0, SpanKind::Compute, 10, 5, 0, -1, {}}),
                 PanicError);
    throwOnError(false);
}

TEST(Trace, SummarizeAccumulatesPerRankAndKind)
{
    Trace t;
    t.record(Span{0, SpanKind::Compute, 0, 10 * US, 0, -1, {}});
    t.record(Span{0, SpanKind::Send, 10 * US, 15 * US, 64, 1, {}});
    t.record(Span{1, SpanKind::Recv, 0, 30 * US, 64, 0, {}});
    auto sum = t.summarize();
    EXPECT_EQ(sum[0].compute, 10 * US);
    EXPECT_EQ(sum[0].send, 5 * US);
    EXPECT_EQ(sum[0].comm(), 5 * US);
    EXPECT_EQ(sum[1].recv, 30 * US);
    EXPECT_EQ(sum[0].spans, 2);
}

TEST(Trace, ChromeJsonAndCsvShapes)
{
    Trace t;
    t.record(Span{2, SpanKind::Send, 1 * US, 3 * US, 16, 5, {}});
    std::ostringstream json;
    t.writeChromeJson(json);
    std::string j = json.str();
    EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(j.find("\"tid\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"dur\": 2"), std::string::npos);
    EXPECT_EQ(j.front(), '[');

    std::ostringstream csv;
    t.writeCsv(csv);
    EXPECT_NE(csv.str().find(
                  "rank,kind,start_us,end_us,bytes,peer,label"),
              std::string::npos);
    EXPECT_NE(csv.str().find("2,send,1,3,16,5,"), std::string::npos);
}

TEST(Trace, PhaseLabelsStampSubsequentSpans)
{
    Trace t;
    t.setPhase(0, "halo exchange");
    t.record(Span{0, SpanKind::Send, 0, 1 * US, 8, 1, {}});
    t.setPhase(0, ""); // clear
    t.record(Span{0, SpanKind::Send, 1 * US, 2 * US, 8, 1, {}});
    // An explicit label wins over the phase.
    t.setPhase(1, "phase");
    t.record(Span{1, SpanKind::Recv, 0, 1 * US, 8, 0, "explicit"});
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[0].label, "halo exchange");
    EXPECT_EQ(t.spans()[1].label, "");
    EXPECT_EQ(t.spans()[2].label, "explicit");

    // Labelled spans become the Chrome event name; unlabelled keep
    // the kind.  The kind always survives in args.
    std::ostringstream json;
    t.writeChromeJson(json);
    std::string j = json.str();
    EXPECT_NE(j.find("\"name\": \"halo exchange\""),
              std::string::npos);
    EXPECT_NE(j.find("\"name\": \"send\""), std::string::npos);
    EXPECT_NE(j.find("\"kind\": \"send\""), std::string::npos);

    // CSV carries the label as the trailing column.
    std::ostringstream csv;
    t.writeCsv(csv);
    EXPECT_NE(csv.str().find("0,send,0,1,8,1,halo exchange"),
              std::string::npos);

    // clear() also resets phases.
    t.clear();
    t.record(Span{0, SpanKind::Send, 0, 1, 8, 1, {}});
    EXPECT_EQ(t.spans()[0].label, "");
}

TEST(Trace, MachineIntegrationCapturesTransportActivity)
{
    machine::Machine m(machine::t3dConfig(), 4);
    Trace trace;
    m.attachTrace(trace);
    auto prog = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(m, rank);
        co_await comm.compute(10 * US);
        if (rank == 0)
            co_await comm.send(1, 7, 256);
        else if (rank == 1)
            co_await comm.recv(0, 7);
    };
    for (int r = 0; r < 4; ++r)
        m.sim().spawn(prog(r));
    m.run();

    bool saw_send = false, saw_recv = false;
    int computes = 0;
    for (const Span &s : trace.spans()) {
        if (s.kind == SpanKind::Send) {
            saw_send = true;
            EXPECT_EQ(s.rank, 0);
            EXPECT_EQ(s.peer, 1);
            EXPECT_EQ(s.bytes, 256);
        }
        if (s.kind == SpanKind::Recv) {
            saw_recv = true;
            EXPECT_EQ(s.rank, 1);
            EXPECT_EQ(s.peer, 0);
        }
        if (s.kind == SpanKind::Compute)
            ++computes;
    }
    EXPECT_TRUE(saw_send);
    EXPECT_TRUE(saw_recv);
    EXPECT_EQ(computes, 4);
}

TEST(Trace, CollectiveProducesManySpans)
{
    machine::Machine m(machine::sp2Config(), 8);
    Trace trace;
    m.attachTrace(trace);
    auto prog = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(m, rank);
        co_await comm.alltoall(1024);
    };
    for (int r = 0; r < 8; ++r)
        m.sim().spawn(prog(r));
    m.run();
    // Pairwise alltoall on 8 ranks: 7 rounds x 8 ranks of sendrecv.
    auto sum = trace.summarize();
    EXPECT_EQ(sum.size(), 8u);
    for (auto &[rank, rs] : sum) {
        EXPECT_GE(rs.spans, 14) << rank; // >= 7 sends + 7 recvs
        EXPECT_GT(rs.comm(), 0) << rank;
    }
}

/** A machine with no trace (and nothing else) attached has no probe:
 *  every layer's observation pointer stays null. */
TEST(Trace, DisabledByDefaultOnMachines)
{
    machine::Machine m(machine::t3dConfig(), 2);
    auto prog = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(m, rank);
        co_await comm.barrier();
    };
    for (int r = 0; r < 2; ++r)
        m.sim().spawn(prog(r));
    m.run();
    EXPECT_EQ(m.probe(), nullptr);
}

} // namespace
} // namespace ccsim::sim
