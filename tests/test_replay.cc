/** @file Tests for the record/replay subsystem (src/replay/). */

#include <cctype>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "fault/fault_spec.hh"
#include "machine/config_io.hh"
#include "machine/machine.hh"
#include "machine/machine_config.hh"
#include "mpi/comm.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"
#include "replay/trace_parser.hh"
#include "tuning/selection_table.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ccsim::replay {
namespace {

using namespace time_literals;

Program
parseText(const std::string &text, const std::string &name = "t.trace")
{
    std::istringstream is(text);
    return TraceParser::parse(is, name);
}

/** The diagnostic fatal() raises for @p text, or "" if it parses. */
std::string
parseError(const std::string &text)
{
    bool was = throwOnError(true);
    std::string msg;
    try {
        parseText(text);
    } catch (const FatalError &e) {
        msg = e.what();
    }
    throwOnError(was);
    return msg;
}

// ---- parser -----------------------------------------------------------

/** One line of every action kind (the grammar fuzzer draws from it
 *  too). */
const char *const kEveryKind = "# ccsim trace v1\n"
                               "np 4\n"
                               "0 compute 125.5\n"
                               "0 send 1 4096 tag=7\n"
                               "1 recv 0 tag=7\n"
                               "1 isend 2 64\n"
                               "2 irecv -1 tag=-1\n"
                               "1 wait\n"
                               "2 wait\n"
                               "3 sendrecv 0 3 512 stag=1 rtag=2\n"
                               "0 barrier\n"
                               "1 bcast 1024 root=1 algo=binomial\n"
                               "2 gatherv 4,8,12,16 root=2\n"
                               "3 alltoall 65536 group=1,3\n";

TEST(TraceParser, ParsesEveryActionKind)
{
    Program p = parseText(kEveryKind);
    EXPECT_EQ(p.np, 4);
    EXPECT_EQ(p.actions(), 12u);

    const Action &comp = p.ranks[0][0];
    EXPECT_EQ(comp.kind, ActionKind::Compute);
    EXPECT_EQ(comp.duration, 125 * US + 500000);
    EXPECT_EQ(comp.line, 3);

    const Action &send = p.ranks[0][1];
    EXPECT_EQ(send.kind, ActionKind::Send);
    EXPECT_EQ(send.peer, 1);
    EXPECT_EQ(send.tag, 7);
    EXPECT_EQ(send.bytes, 4096);

    const Action &any = p.ranks[2][0];
    EXPECT_EQ(any.kind, ActionKind::Irecv);
    EXPECT_EQ(any.peer, -1);
    EXPECT_EQ(any.tag, -1);

    const Action &sr = p.ranks[3][0];
    EXPECT_EQ(sr.kind, ActionKind::Sendrecv);
    EXPECT_EQ(sr.peer, 0);
    EXPECT_EQ(sr.peer2, 3);
    EXPECT_EQ(sr.tag, 1);
    EXPECT_EQ(sr.tag2, 2);

    const Action &bc = p.ranks[1][3];
    EXPECT_EQ(bc.kind, ActionKind::Coll);
    EXPECT_EQ(bc.op, machine::Coll::Bcast);
    EXPECT_EQ(bc.root, 1);
    EXPECT_EQ(bc.algo, machine::Algo::Binomial);

    const Action &gv = p.ranks[2][2];
    EXPECT_TRUE(gv.vector_variant);
    EXPECT_EQ(gv.counts, (std::vector<Bytes>{4, 8, 12, 16}));

    const Action &sub = p.ranks[3][1];
    EXPECT_EQ(sub.group, (std::vector<int>{1, 3}));
}

TEST(TraceParser, DiagnosticsCarryFileLineAndRank)
{
    // Malformed action.
    std::string e = parseError("np 2\n0 send 1\n");
    EXPECT_NE(e.find("t.trace:2"), std::string::npos) << e;
    EXPECT_NE(e.find("rank 0"), std::string::npos) << e;
    EXPECT_NE(e.find("byte count"), std::string::npos) << e;

    // Unknown collective.
    e = parseError("np 4\n0 compute 1\n3 allsum 64\n");
    EXPECT_NE(e.find("t.trace:3"), std::string::npos) << e;
    EXPECT_NE(e.find("rank 3"), std::string::npos) << e;
    EXPECT_NE(e.find("unknown collective 'allsum'"), std::string::npos)
        << e;

    // Rank outside np.
    e = parseError("np 4\n4 barrier\n");
    EXPECT_NE(e.find("t.trace:2"), std::string::npos) << e;
    EXPECT_NE(e.find("rank count mismatch"), std::string::npos) << e;

    // Vector-collective count list shorter than the communicator.
    e = parseError("np 4\n0 gatherv 8,8\n");
    EXPECT_NE(e.find("t.trace:2"), std::string::npos) << e;
    EXPECT_NE(e.find("rank count mismatch"), std::string::npos) << e;

    // Missing np header.
    e = parseError("0 barrier\n");
    EXPECT_NE(e.find("np directive must precede"), std::string::npos)
        << e;

    // Unknown algorithm, unknown attribute, bad root, non-member
    // group rank.
    EXPECT_NE(parseError("np 2\n0 bcast 8 algo=psychic\n")
                  .find("unknown algorithm 'psychic'"),
              std::string::npos);
    EXPECT_NE(parseError("np 2\n0 bcast 8 color=red\n")
                  .find("unknown attribute 'color'"),
              std::string::npos);
    EXPECT_NE(parseError("np 2\n0 bcast 8 root=5\n").find("root 5"),
              std::string::npos);
    EXPECT_NE(parseError("np 4\n0 barrier group=1,2\n")
                  .find("not a member"),
              std::string::npos);
    EXPECT_NE(parseError("np 2\n0 compute 1.1234567\n")
                  .find("6 fraction digits"),
              std::string::npos);

    // A duration whose picosecond count overflows the clock; the
    // largest one that fits parses.
    e = parseError("np 2\n0 barrier\n0 compute 10000000000000\n");
    EXPECT_NE(e.find("t.trace:3: rank 0: bad duration '10000000000000' "
                     "(more than 9223372036854.775807 us)"),
              std::string::npos)
        << e;
    EXPECT_NE(parseError("np 1\n0 compute 9223372036854.775808\n")
                  .find("more than 9223372036854.775807 us"),
              std::string::npos);
    EXPECT_EQ(parseText("np 1\n0 compute 9223372036854.775807\n")
                  .ranks[0][0]
                  .duration,
              std::numeric_limits<Time>::max());
}

TEST(TraceParser, AlgorithmTheOperationLacksIsATraceError)
{
    const std::string text = "np 2\n0 barrier\n1 bcast 1024 algo=pairwise\n";
    bool was = throwOnError(true);
    EXPECT_THROW(parseText(text), TraceError);
    throwOnError(was);

    std::string e = parseError(text);
    EXPECT_NE(e.find("t.trace:3: rank 1: bcast has no algorithm "
                     "'pairwise' (it has: linear, binomial, "
                     "scatter-allgather, pipelined)"),
              std::string::npos)
        << e;
    e = parseError("np 2\n0 gatherv 8,8 algo=binomial\n");
    EXPECT_NE(e.find("gatherv has no algorithm 'binomial' (it has: "
                     "linear)"),
              std::string::npos)
        << e;
    // Default and auto resolve at run time, against the machine.
    EXPECT_EQ(parseError("np 2\n0 gatherv 8,8 algo=default\n"
                         "0 bcast 8 algo=auto\n"),
              "");
}

TEST(TraceParser, ExactMicrosecondRoundTrip)
{
    EXPECT_EQ(formatMicrosExact(0), "0");
    EXPECT_EQ(formatMicrosExact(1), "0.000001"); // 1 ps
    EXPECT_EQ(formatMicrosExact(125 * US + 500000), "125.5");
    EXPECT_EQ(formatMicrosExact(3 * US), "3");

    for (Time t : {Time{0}, Time{1}, Time{999999}, 7 * US + 1,
                   123456789 * US + 654321}) {
        Program p = parseText("np 1\n0 compute " +
                              formatMicrosExact(t) + "\n");
        EXPECT_EQ(p.ranks[0][0].duration, t) << t;
    }
}

TEST(TraceParser, WriteParseRoundTripIsExact)
{
    const std::string text = "# ccsim trace v1\n"
                             "np 4\n"
                             "0 compute 125.5\n"
                             "0 isend 1 4096 tag=7\n"
                             "0 wait\n"
                             "1 irecv 0 tag=7\n"
                             "1 wait\n"
                             "1 bcast 1024 root=1 algo=binomial\n"
                             "2 gatherv 4,8,12,16 root=2\n"
                             "3 sendrecv 0 3 512 stag=1 rtag=2\n"
                             "3 alltoall 65536 group=1,3\n";
    Program p = parseText(text);
    std::ostringstream out;
    writeProgram(p, out);
    // writeProgram groups by rank; reparse and rewrite to compare in
    // canonical form.
    Program p2 = parseText(out.str());
    std::ostringstream out2;
    writeProgram(p2, out2);
    EXPECT_EQ(out.str(), out2.str());
    EXPECT_EQ(p2.actions(), p.actions());
}

// ---- grammar fuzzer -----------------------------------------------------

using Doc = std::vector<std::vector<std::string>>; //!< tokens per line

/** Where mutant lines come from: kEveryKind and the three bundled
 *  traces, one line list each, without their np lines. */
std::vector<std::vector<std::string>>
fuzzSources()
{
    std::vector<std::vector<std::string>> sources;
    auto add = [&](std::istream &in) {
        sources.emplace_back();
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("np ", 0) != 0)
                sources.back().push_back(line);
    };
    std::istringstream every(kEveryKind);
    add(every);
    for (const char *w : {"stencil2d_p16", "summa_p16", "stap_p16"}) {
        std::ifstream f(std::string(CCSIM_WORKLOAD_DIR) + "/" + w +
                        ".trace");
        add(f);
        EXPECT_GT(sources.back().size(), 100u) << w;
    }
    return sources;
}

/** One seeded edit of @p doc: delete, duplicate or swap a token,
 *  replace a digit run with an extreme number, or insert or overwrite
 *  one separator-like character. */
void
mutate(Rng &rng, Doc &doc)
{
    static const char *const kNumbers[] = {
        "0", "-1", "+7", "9223372036854775807", "9223372036854775808",
        "99999999999999999999", "10000000000000"};
    static const char kChars[] = {'#', ',', '=', '.', '+', '-', '\t', '\r'};
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.nextBounded(n));
    };
    std::vector<std::string> &line = doc[pick(doc.size())];
    if (line.empty())
        return;
    const std::size_t at = pick(line.size());
    switch (pick(6)) {
      case 0:
        line.erase(line.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1: {
        const std::string copy = line[at];
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), copy);
        break;
      }
      case 2:
        std::swap(line[at], line[pick(line.size())]);
        break;
      case 3: {
        std::string &tok = line[at];
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < tok.size(); ++i)
            if (std::isdigit(static_cast<unsigned char>(tok[i])) &&
                (i == 0 ||
                 !std::isdigit(static_cast<unsigned char>(tok[i - 1]))))
                starts.push_back(i);
        if (starts.empty())
            break;
        const std::size_t b = starts[pick(starts.size())];
        std::size_t e = b;
        while (e < tok.size() &&
               std::isdigit(static_cast<unsigned char>(tok[e])))
            ++e;
        tok.replace(b, e - b, kNumbers[pick(std::size(kNumbers))]);
        break;
      }
      case 4:
        line[at].insert(pick(line[at].size() + 1), 1,
                        kChars[pick(std::size(kChars))]);
        break;
      default:
        line[at][pick(line[at].size())] = kChars[pick(std::size(kChars))];
        break;
    }
}

/** Mutant @p i of @p seed: an np line and up to 20 source lines, with
 *  up to three edits. */
std::string
fuzzMutant(const std::vector<std::vector<std::string>> &sources,
           std::uint64_t seed, int i)
{
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(i));
    Doc doc{{"np", rng.nextBool(0.25) ? "4" : "16"}};
    for (auto n = rng.nextBounded(21); n > 0; --n) {
        const auto &src = sources[rng.nextBounded(sources.size())];
        std::istringstream words(src[rng.nextBounded(src.size())]);
        doc.emplace_back();
        for (std::string w; words >> w;)
            doc.back().push_back(w);
    }
    for (auto n = rng.nextBounded(4); n > 0; --n)
        mutate(rng, doc);
    std::string text;
    for (const auto &line : doc) {
        for (std::size_t k = 0; k < line.size(); ++k)
            text += (k ? " " : "") + line[k];
        text += '\n';
    }
    return text;
}

/** What is wrong with how the parser took @p text: "" when it parsed
 *  a valid Program that rewrites to a fixed point, or raised a
 *  TraceError naming the source. */
std::string
fuzzVerdict(const std::string &text, bool &parsed)
{
    const std::string name = "fuzz.trace";
    Program p;
    parsed = false;
    try {
        p = parseText(text, name);
    } catch (const TraceError &e) {
        if (std::string(e.what()).rfind(name, 0) != 0)
            return std::string("diagnostic without the source: ") +
                   e.what();
        return "";
    } catch (const std::exception &e) {
        return std::string("not a TraceError: ") + e.what();
    }
    parsed = true;
    auto inside = [&](int v, int lo, int n) { return v >= lo && v < n; };
    for (const auto &rank : p.ranks)
        for (const Action &a : rank) {
            const int comm = a.group.empty()
                                 ? p.np
                                 : static_cast<int>(a.group.size());
            bool ok = a.duration >= 0;
            switch (a.kind) {
              case ActionKind::Send:
              case ActionKind::Isend:
                ok = ok && inside(a.peer, 0, p.np);
                break;
              case ActionKind::Recv:
              case ActionKind::Irecv:
                ok = ok && inside(a.peer, -1, p.np);
                break;
              case ActionKind::Sendrecv:
                ok = ok && inside(a.peer, 0, p.np) &&
                     inside(a.peer2, 0, p.np);
                break;
              case ActionKind::Coll:
                ok = ok && inside(a.root, 0, comm);
                for (int g : a.group)
                    ok = ok && inside(g, 0, p.np);
                break;
              default:
                break;
            }
            if (!ok)
                return "line " + std::to_string(a.line) +
                       " parsed out of range";
        }
    std::ostringstream once, twice;
    writeProgram(p, once);
    try {
        writeProgram(parseText(once.str(), name), twice);
    } catch (const std::exception &e) {
        return std::string("rewritten text fails: ") + e.what() + "\n" +
               once.str();
    }
    if (once.str() != twice.str())
        return "rewrite is not a fixed point:\n" + once.str() + "---\n" +
               twice.str();
    return "";
}

TEST(TraceParser, SeededMutantsParseOrRaiseATraceError)
{
    const auto sources = fuzzSources();
    const bool was = throwOnError(true);
    int parsed = 0, rejected = 0;
    for (std::uint64_t seed : {1u, 2u, 3u})
        for (int i = 0; i < 2000; ++i) {
            const std::string text = fuzzMutant(sources, seed, i);
            bool ok = false;
            const std::string verdict = fuzzVerdict(text, ok);
            ASSERT_EQ(verdict, "")
                << "seed " << seed << " mutant " << i << ":\n" << text;
            ++(ok ? parsed : rejected);
        }
    throwOnError(was);
    // Both outcomes are common, so neither half goes untested.
    EXPECT_GT(parsed, 600);
    EXPECT_GT(rejected, 600);
}

// ---- record -> replay -------------------------------------------------

/** A little application exercising every action kind, including a
 *  sub-communicator collective. */
sim::Task<void>
appRank(machine::Machine &mach, int rank, std::vector<Time> *done)
{
    mpi::Comm comm(mach, rank);
    int p = comm.size();
    co_await comm.compute((100 + 7 * rank) * US + 123);

    int right = (rank + 1) % p, left = (rank + p - 1) % p;
    auto r = comm.irecv(left, 1);
    auto s = comm.isend(right, 1, 2048);
    co_await comm.wait(r);
    co_await comm.wait(s);
    co_await comm.sendrecv(right, 2, 512, left, 2);

    co_await comm.allreduce(4096);
    std::vector<Bytes> ragged{64, 128, 256, 512};
    co_await comm.gatherv(ragged, 1);

    // Even/odd sub-communicators.
    std::vector<int> members;
    for (int i = rank % 2; i < p; i += 2)
        members.push_back(i);
    mpi::Comm sub = comm.subgroup(members);
    co_await sub.bcast(8192, 0);
    co_await sub.alltoall(256);

    co_await comm.barrier();
    if (done)
        (*done)[static_cast<std::size_t>(rank)] = mach.sim().now();
}

/** Run appRank under a Recorder; returns the trace and the original
 *  per-rank completion times. */
Program
recordApp(const machine::MachineConfig &cfg, int p,
          std::vector<Time> &completion)
{
    machine::Machine mach(cfg, p);
    Recorder rec(p);
    rec.attach(mach);
    completion.assign(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r)
        mach.sim().spawn(appRank(mach, r, &completion));
    mach.run();
    return rec.take();
}

TEST(RecordReplay, ReproducesSimulatedTimesByteIdentically)
{
    for (const auto &cfg :
         {machine::sp2Config(), machine::t3dConfig(),
          machine::paragonConfig()}) {
        std::vector<Time> original;
        Program prog = recordApp(cfg, 4, original);
        EXPECT_GT(prog.actions(), 0u);

        // Replay the in-memory recording...
        ReplayResult res = Replayer::run(cfg, prog);
        EXPECT_EQ(res.completion, original) << cfg.name;

        // ...and replay it again through the text format: serialize,
        // reparse, replay.  Still byte-identical.
        std::ostringstream out;
        writeProgram(prog, out);
        std::istringstream in(out.str());
        Program reparsed = TraceParser::parse(in, "roundtrip");
        ReplayResult res2 = Replayer::run(cfg, reparsed);
        EXPECT_EQ(res2.completion, original) << cfg.name;
    }
}

TEST(RecordReplay, SweepIsIdenticalAtAnyJobsLevel)
{
    std::vector<Time> original;
    Program prog = recordApp(machine::t3dConfig(), 4, original);

    std::vector<ReplayPoint> points;
    for (const auto &cfg :
         {machine::sp2Config(), machine::t3dConfig(),
          machine::paragonConfig(), machine::idealConfig()}) {
        for (double scale : {0.5, 1.0, 4.0}) {
            ReplayPoint pt;
            pt.cfg = cfg;
            pt.options.scale = scale;
            points.push_back(pt);
        }
    }

    harness::SweepRunner serial(1), pool(4);
    auto a = replaySweep(prog, points, serial);
    auto b = replaySweep(prog, points, pool);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].completion, b[i].completion) << i;
        EXPECT_EQ(a[i].makespan(), b[i].makespan()) << i;
    }
}

TEST(RecordReplay, DeterministicUnderFixedFaultSeed)
{
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault = fault::parseFaultSpec("straggler=0.25,drop=0.02,seed=7");

    std::vector<Time> original;
    Program prog = recordApp(machine::sp2Config(), 4, original);

    ReplayResult a = Replayer::run(cfg, prog);
    ReplayResult b = Replayer::run(cfg, prog);
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(a.faults.drops, b.faults.drops);
    EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);

    // Faults cost time: the faulty makespan is never faster than the
    // clean one.
    ReplayResult clean = Replayer::run(machine::sp2Config(), prog);
    EXPECT_GE(a.makespan(), clean.makespan());
}

TEST(RecordReplay, CollectsLabelledTraceSpans)
{
    std::vector<Time> original;
    Program prog = recordApp(machine::t3dConfig(), 4, original);

    ReplayOptions opt;
    opt.collect_trace = true;
    ReplayResult res = Replayer::run(machine::t3dConfig(), prog, opt);
    ASSERT_FALSE(res.trace.spans().empty());

    bool saw_allreduce = false, saw_compute = false;
    for (const auto &s : res.trace.spans()) {
        if (s.label == "allreduce")
            saw_allreduce = true;
        if (s.label == "compute")
            saw_compute = true;
    }
    EXPECT_TRUE(saw_allreduce);
    EXPECT_TRUE(saw_compute);

    // Tracing is observational: times match the untraced replay.
    ReplayResult plain = Replayer::run(machine::t3dConfig(), prog);
    EXPECT_EQ(res.completion, plain.completion);
}

TEST(Replayer, ScaleStretchesMessagesOnly)
{
    Program prog = parseText("np 2\n"
                             "0 compute 50\n"
                             "0 send 1 65536\n"
                             "1 recv 0\n");
    ReplayResult one = Replayer::run(machine::t3dConfig(), prog);
    ReplayOptions big;
    big.scale = 8.0;
    ReplayResult eight =
        Replayer::run(machine::t3dConfig(), prog, big);
    EXPECT_GT(eight.makespan(), one.makespan());
    EXPECT_EQ(eight.np, 2);
}

TEST(Replayer, WaitWithoutRequestIsAUserError)
{
    Program prog = parseText("np 1\n0 wait\n");
    bool was = throwOnError(true);
    EXPECT_THROW(Replayer::run(machine::idealConfig(), prog),
                 FatalError);
    throwOnError(was);
}

TEST(Replayer, AlgorithmTheOperationLacksIsAConfigError)
{
    // The configured default and a selection rule meet the machine
    // only at replay; either way the check runs before the run.
    std::istringstream doc("base = SP2\nbcast.algorithm = pairwise\n");
    const machine::MachineConfig configured = machine::loadConfig(doc);
    const Program prog = parseText("np 2\n0 bcast 1024\n1 bcast 1024\n");
    machine::MachineConfig selected = machine::sp2Config();
    tuning::SelectionTable table;
    table.addRule(machine::Coll::Bcast, {2, 0, machine::Algo::Pairwise});
    selected.selection =
        std::make_shared<const tuning::SelectionTable>(table);
    const Program autos = parseText("np 2\n0 bcast 1024 algo=auto\n"
                                    "1 bcast 1024 algo=auto\n");

    bool was = throwOnError(true);
    EXPECT_THROW(Replayer::run(configured, prog), ConfigError);
    EXPECT_THROW(Replayer::run(selected, autos), ConfigError);
    try {
        Replayer::run(configured, prog);
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "bcast has no algorithm 'pairwise'"),
                  std::string::npos)
            << e.what();
    }
    // A vector row's default is its own first algorithm, not the
    // configured one of its plain operation.
    std::istringstream gather_doc("base = SP2\ngather.algorithm = "
                                  "binomial\n");
    EXPECT_GT(Replayer::run(machine::loadConfig(gather_doc),
                            parseText("np 2\n0 gatherv 8,8\n"
                                      "1 gatherv 8,8\n"))
                  .makespan(),
              0);
    throwOnError(was);
}

TEST(Replayer, FifoWaitMatchesOutOfOrderlessPrograms)
{
    // rank 0 posts two irecvs and waits twice; FIFO pairs them with
    // the sends in tag order 1 then 2.
    Program prog = parseText("np 2\n"
                             "0 irecv 1 tag=1\n"
                             "0 irecv 1 tag=2\n"
                             "0 wait\n"
                             "0 wait\n"
                             "1 send 0 1024 tag=1\n"
                             "1 send 0 2048 tag=2\n");
    ReplayResult res = Replayer::run(machine::t3dConfig(), prog);
    EXPECT_GT(res.makespan(), 0);
}

} // namespace
} // namespace ccsim::replay
