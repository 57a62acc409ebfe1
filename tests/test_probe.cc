/**
 * @file
 * Tests for the machine probe: its three consumers (metrics, an
 * attached trace, a call listener) compose without perturbing one
 * another or the simulation, and the trace's network counter samples
 * appear exactly when metrics are on too.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/config_io.hh"
#include "machine/machine_config.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"
#include "replay/trace_parser.hh"

namespace ccsim::machine {
namespace {

replay::Program
bundled(const std::string &name)
{
    return replay::TraceParser::parseFile(std::string(CCSIM_WORKLOAD_DIR) +
                                          "/" + name + ".trace");
}

std::string
programText(const replay::Program &p)
{
    std::ostringstream os;
    replay::writeProgram(p, os);
    return os.str();
}

std::string
traceCsv(const sim::Trace &t)
{
    std::ostringstream os;
    t.writeCsv(os);
    return os.str();
}

/** Every consumer attached at once sees exactly what it sees alone,
 *  and none of them moves a simulated time. */
TEST(Probe, AllConsumersComposeOnBundledWorkloads)
{
    for (const char *w : {"stap_p16", "summa_p16", "stencil2d_p16"}) {
        const replay::Program prog = bundled(w);
        for (const char *m : {"SP2", "T3D", "Paragon"}) {
            SCOPED_TRACE(std::string(w) + " on " + m);
            const MachineConfig cfg = presetByName(m);

            replay::ReplayOptions trace_only;
            trace_only.collect_trace = true;
            replay::ReplayOptions metrics_only;
            metrics_only.metrics = true;
            replay::Recorder solo(prog.np);
            replay::ReplayOptions listener_only;
            listener_only.listener = &solo;
            replay::Recorder rec(prog.np);
            replay::ReplayOptions all;
            all.collect_trace = true;
            all.metrics = true;
            all.listener = &rec;

            const auto none = replay::Replayer::run(cfg, prog);
            const auto t = replay::Replayer::run(cfg, prog, trace_only);
            const auto mm = replay::Replayer::run(cfg, prog, metrics_only);
            const auto l = replay::Replayer::run(cfg, prog, listener_only);
            const auto a = replay::Replayer::run(cfg, prog, all);

            EXPECT_EQ(t.completion, none.completion);
            EXPECT_EQ(mm.completion, none.completion);
            EXPECT_EQ(l.completion, none.completion);
            EXPECT_EQ(a.completion, none.completion);

            ASSERT_FALSE(t.trace.spans().empty());
            EXPECT_EQ(traceCsv(a.trace), traceCsv(t.trace));
            ASSERT_FALSE(mm.metrics.empty());
            EXPECT_EQ(a.metrics.toCsv(), mm.metrics.toCsv());

            // Re-recording the replay reproduces the parsed trace.
            EXPECT_EQ(programText(rec.program()), programText(prog));
            EXPECT_EQ(programText(solo.program()), programText(prog));

            if (std::string(w) == "stap_p16" && std::string(m) == "T3D") {
                EXPECT_EQ(a.trace.spans().size(), 1716u);
            }
        }
    }
}

std::size_t
samplesNamed(const sim::Trace &t, const std::string &name)
{
    std::size_t n = 0;
    for (const sim::CounterSample &c : t.counters())
        n += c.name == name;
    return n;
}

/** The trace carries network counter samples (one pair per
 *  collective end at global rank 0) only when metrics are on too. */
TEST(Probe, CounterSamplesNeedTraceAndMetrics)
{
    const replay::Program prog = bundled("stap_p16");
    replay::ReplayOptions opt;
    opt.collect_trace = true;
    opt.metrics = true;
    const auto with = replay::Replayer::run(t3dConfig(), prog, opt);
    EXPECT_EQ(samplesNamed(with.trace, "net.payload_bytes"), 9u);
    EXPECT_EQ(samplesNamed(with.trace, "net.stall_us"), 9u);
    EXPECT_EQ(with.trace.counters().size(), 18u);
    // Samples climb toward the run's total (traffic may continue
    // after rank 0's last collective).
    double prev = 0.0;
    for (const sim::CounterSample &c : with.trace.counters())
        if (c.name == "net.payload_bytes") {
            EXPECT_GE(c.value, prev);
            prev = c.value;
        }
    EXPECT_GT(prev, 0.0);
    EXPECT_LE(prev, static_cast<double>(with.metrics.counters.at(
                        "net.payload_bytes")));

    std::ostringstream json;
    with.trace.writeChromeJson(json);
    EXPECT_NE(json.str().find("\"ph\": \"C\""), std::string::npos);

    opt.metrics = false;
    const auto without = replay::Replayer::run(t3dConfig(), prog, opt);
    EXPECT_TRUE(without.trace.counters().empty());
    EXPECT_EQ(without.trace.spans().size(), with.trace.spans().size());
}

} // namespace
} // namespace ccsim::machine
