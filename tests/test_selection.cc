/**
 * @file
 * The tuning subsystem: SelectionTable round-trips byte-identically,
 * choose() honours rule boundaries exactly, Algo::Auto resolution is
 * byte-identical to measuring the chosen algorithm explicitly, and
 * the empirical tuner is deterministic at any --jobs level.
 */

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "machine/config_io.hh"
#include "machine/machine_config.hh"
#include "tuning/selection_table.hh"
#include "tuning/tuner.hh"
#include "util/logging.hh"

namespace ccsim::tuning {
namespace {

using machine::Algo;
using machine::Coll;

SelectionTable
twoRuleTable()
{
    SelectionTable t;
    t.setMachine("SP2");
    t.addRule(Coll::Bcast, {2, 0, Algo::Binomial});
    t.addRule(Coll::Bcast, {2, 16 * KiB, Algo::ScatterAllgather});
    t.addRule(Coll::Alltoall, {2, 0, Algo::Bruck});
    t.addRule(Coll::Alltoall, {16, 0, Algo::Pairwise});
    return t;
}

TEST(SelectionTable, SaveLoadSaveIsByteIdentical)
{
    for (const char *name : {"SP2", "T3D", "Paragon"}) {
        SelectionTable t = fixedTable(name);
        std::ostringstream first;
        t.save(first);

        std::istringstream in(first.str());
        SelectionTable reloaded = SelectionTable::load(in);
        std::ostringstream second;
        reloaded.save(second);

        EXPECT_EQ(first.str(), second.str()) << name;
        EXPECT_EQ(t, reloaded) << name;
    }
}

TEST(SelectionTable, ChooseHonoursBoundariesExactly)
{
    SelectionTable t = twoRuleTable();

    // The m breakpoint belongs to the higher rule (m >= 16 KiB).
    EXPECT_EQ(t.choose(Coll::Bcast, 8, 16 * KiB - 1), Algo::Binomial);
    EXPECT_EQ(t.choose(Coll::Bcast, 8, 16 * KiB),
              Algo::ScatterAllgather);

    // Same for the p breakpoint (p >= 16 wins at exactly p = 16).
    EXPECT_EQ(t.choose(Coll::Alltoall, 15, 64), Algo::Bruck);
    EXPECT_EQ(t.choose(Coll::Alltoall, 16, 64), Algo::Pairwise);

    // Ops without rules fall back to Default (the machine's choice).
    EXPECT_EQ(t.choose(Coll::Barrier, 8, 0), Algo::Default);
}

TEST(SelectionTable, AddRuleRejectsNonsense)
{
    throwOnError(true);
    SelectionTable t;
    EXPECT_THROW(t.addRule(Coll::Bcast, {1, 0, Algo::Binomial}),
                 ConfigError);
    EXPECT_THROW(t.addRule(Coll::Bcast, {2, -1, Algo::Binomial}),
                 ConfigError);
    EXPECT_THROW(t.addRule(Coll::Bcast, {2, 0, Algo::Default}),
                 ConfigError);
    EXPECT_THROW(t.addRule(Coll::Bcast, {2, 0, Algo::Auto}),
                 ConfigError);
    throwOnError(false);
}

TEST(SelectionTable, LoadRejectsMalformedDocuments)
{
    throwOnError(true);
    auto load = [](const std::string &doc) {
        std::istringstream in(doc);
        return SelectionTable::load(in);
    };
    EXPECT_THROW(load("bogus = 1\n"), ConfigError);
    EXPECT_THROW(load("warp.rule = p>=2 m>=0 linear\n"), ConfigError);
    EXPECT_THROW(load("bcast.rule = p>=2 m>=0 warp-speed\n"),
                 ConfigError);
    EXPECT_THROW(load("bcast.rule = p>=2 linear\n"), ConfigError);
    EXPECT_THROW(load("bcast.rule = m>=0 p>=2 linear\n"), ConfigError);
    EXPECT_THROW(load("bcast.rule = p>=2 m>=0 auto\n"), ConfigError);
    throwOnError(false);
}

TEST(SelectionTable, FixedTablesExistForAllPaperMachines)
{
    throwOnError(true);
    for (const char *name : {"SP2", "sp2", "T3D", "Paragon"})
        EXPECT_FALSE(fixedTable(name).empty()) << name;
    EXPECT_THROW(fixedTable("VAX"), ConfigError);
    throwOnError(false);
}

TEST(ResolveAlgo, ExplicitAndDefaultBypassTheTable)
{
    auto cfg = machine::sp2Config();
    cfg.selection = std::make_shared<SelectionTable>(twoRuleTable());

    // Explicit algorithms pass through untouched.
    EXPECT_EQ(resolveAlgo(cfg, Coll::Bcast, 8, 64 * KiB, Algo::Linear),
              Algo::Linear);
    // Default is the machine's configured choice, table or not.
    EXPECT_EQ(resolveAlgo(cfg, Coll::Bcast, 8, 64 * KiB,
                          Algo::Default),
              cfg.algorithmFor(Coll::Bcast));
}

TEST(ResolveAlgo, AutoConsultsTheTableThenTheMachine)
{
    auto cfg = machine::sp2Config();

    // No table: Auto is exactly Default.
    EXPECT_EQ(resolveAlgo(cfg, Coll::Bcast, 8, 64, Algo::Auto),
              cfg.algorithmFor(Coll::Bcast));

    cfg.selection = std::make_shared<SelectionTable>(twoRuleTable());
    EXPECT_EQ(resolveAlgo(cfg, Coll::Bcast, 8, 64 * KiB, Algo::Auto),
              Algo::ScatterAllgather);
    // Uncovered op: falls through to the machine's choice.
    EXPECT_EQ(resolveAlgo(cfg, Coll::Barrier, 8, 0, Algo::Auto),
              cfg.algorithmFor(Coll::Barrier));
}

TEST(ResolveAlgo, AutoMeasurementIsByteIdenticalToExplicit)
{
    auto plain = machine::sp2Config();
    auto tuned = plain;
    tuned.selection = std::make_shared<SelectionTable>(twoRuleTable());

    harness::MeasureOptions mopt;
    mopt.iterations = 3;
    mopt.repetitions = 1;

    struct Point { Coll op; int p; Bytes m; Algo expect; };
    const Point points[] = {
        {Coll::Bcast, 8, 64 * KiB, Algo::ScatterAllgather},
        {Coll::Bcast, 8, 1024, Algo::Binomial},
        {Coll::Alltoall, 16, 256, Algo::Pairwise},
        // No rule: Auto == the machine's configured default.
        {Coll::Allgather, 8, 1024, plain.algorithmFor(Coll::Allgather)},
    };
    for (const auto &pt : points) {
        auto via_auto = harness::measureCollective(
            tuned, pt.p, pt.op, pt.m, Algo::Auto, mopt);
        auto expl = harness::measureCollective(
            plain, pt.p, pt.op, pt.m, pt.expect, mopt);
        EXPECT_EQ(via_auto.algo, pt.expect);
        EXPECT_EQ(via_auto.algo, expl.algo);
        EXPECT_EQ(via_auto.max_time, expl.max_time);
        EXPECT_EQ(via_auto.min_time, expl.min_time);
        EXPECT_EQ(via_auto.mean_time, expl.mean_time);
    }
}

TEST(AlgoFromName, RoundTripsEverySpellingAndRejectsTypos)
{
    for (int i = 0; i <= static_cast<int>(Algo::Auto); ++i) {
        Algo a = static_cast<Algo>(i);
        EXPECT_EQ(machine::algoFromName(machine::algoName(a)), a);
    }
    throwOnError(true);
    EXPECT_THROW(machine::algoFromName("binomal"), ConfigError);
    EXPECT_THROW(machine::algoFromName(""), ConfigError);
    throwOnError(false);
}

TEST(Tuner, DeterministicAcrossJobCounts)
{
    auto cfg = machine::sp2Config();
    TuneGrid grid;
    grid.ops = {Coll::Bcast, Coll::Alltoall};
    grid.sizes = {4, 8};
    grid.lengths = {64, 16 * KiB};
    grid.options.iterations = 3;
    grid.options.repetitions = 1;

    TuneResult serial = tuneMachine(cfg, grid, 1);
    TuneResult pooled = tuneMachine(cfg, grid, 2);

    EXPECT_EQ(serial.table, pooled.table);
    EXPECT_EQ(serial.total_default, pooled.total_default);
    EXPECT_EQ(serial.total_best, pooled.total_best);
    ASSERT_EQ(serial.cells.size(), pooled.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].best_algo, pooled.cells[i].best_algo);
        EXPECT_EQ(serial.cells[i].best_time, pooled.cells[i].best_time);
        EXPECT_EQ(serial.cells[i].default_time,
                  pooled.cells[i].default_time);
    }

    // The tuned table never loses to the machine's defaults.
    EXPECT_LE(serial.total_best, serial.total_default);
}

TEST(Tuner, TableReproducesPerCellWinners)
{
    auto cfg = machine::t3dConfig();
    TuneGrid grid;
    grid.ops = {Coll::Bcast, Coll::Allreduce};
    grid.sizes = {4, 16};
    grid.lengths = {64, 4 * KiB, 64 * KiB};
    grid.options.iterations = 3;
    grid.options.repetitions = 1;

    TuneResult res = tuneMachine(cfg, grid, 1);
    for (const auto &cell : res.cells) {
        Algo from_table = res.table.choose(cell.op, cell.p, cell.m);
        if (from_table == Algo::Default)
            from_table = cfg.algorithmFor(cell.op);
        EXPECT_EQ(from_table, cell.best_algo)
            << machine::collName(cell.op) << " p=" << cell.p
            << " m=" << cell.m;
    }
}

// ---- an algorithm the operation lacks --------------------------------
// Each route that names an algorithm for an operation is checked
// against the collective table before any machine is built.

/** The message of the ConfigError @p f raises; "" if it raises none
 *  or another error. */
template <class F>
std::string
configError(F f)
{
    bool was = throwOnError(true);
    std::string msg;
    try {
        f();
    } catch (const ConfigError &e) {
        msg = e.what();
    } catch (const Error &) {
    }
    throwOnError(was);
    return msg;
}

constexpr const char *kBcastLacksPairwise =
    "bcast has no algorithm 'pairwise' (it has: linear, binomial, "
    "scatter-allgather, pipelined)";

machine::MachineConfig
configText(const std::string &text)
{
    std::istringstream is(text);
    return machine::loadConfig(is);
}

TEST(AlgoCheck, ExplicitAlgorithmIsAConfigError)
{
    EXPECT_EQ(configError([] {
                  harness::measureCollective(machine::sp2Config(), 8,
                                             Coll::Bcast, 1024,
                                             Algo::Pairwise);
              }),
              kBcastLacksPairwise);
}

TEST(AlgoCheck, SelectionRuleIsAConfigError)
{
    auto cfg = machine::sp2Config();
    std::istringstream rules("machine = SP2\n"
                             "bcast.rule = p>=2 m>=0 pairwise\n");
    cfg.selection =
        std::make_shared<const SelectionTable>(SelectionTable::load(rules));
    EXPECT_EQ(configError([&] {
                  harness::measureCollective(cfg, 8, Coll::Bcast, 1024);
              }),
              kBcastLacksPairwise);
}

TEST(AlgoCheck, ConfiguredAlgorithmIsAConfigError)
{
    auto cfg = configText("base = SP2\nbcast.algorithm = pairwise\n");
    EXPECT_EQ(configError([&] {
                  harness::measureCollective(cfg, 8, Coll::Bcast, 1024);
              }),
              kBcastLacksPairwise);

    // The procedure's own barrier runs the configured algorithm too.
    auto barrier = configText("base = SP2\nbarrier.algorithm = ring\n");
    EXPECT_NE(configError([&] {
                  harness::measureCollective(barrier, 8, Coll::Alltoall,
                                             64);
              }).find("barrier has no algorithm 'ring'"),
              std::string::npos);
}

TEST(AlgoCheck, TuneRejectsAConfiguredAlgorithmTheOperationLacks)
{
    TuneGrid grid;
    grid.ops = {Coll::Bcast};
    grid.sizes = {4};
    grid.lengths = {64};
    auto cfg = configText("base = SP2\nbcast.algorithm = pairwise\n");
    EXPECT_EQ(configError([&] { tuneMachine(cfg, grid, 1); }),
              kBcastLacksPairwise);
}

TEST(AttachSelection, PresetNamesAndFilesBothWork)
{
    auto cfg = machine::sp2Config();
    attachSelection(cfg, "sp2");
    ASSERT_TRUE(cfg.selection);
    EXPECT_EQ(*cfg.selection, fixedTable("SP2"));

    throwOnError(true);
    EXPECT_THROW(attachSelection(cfg, "/nonexistent/nowhere.sel"),
                 ConfigError);
    throwOnError(false);
}

} // namespace
} // namespace ccsim::tuning
