/** @file Tests for the deterministic fault-injection layer. */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "fault/fault_report.hh"
#include "fault/fault_spec.hh"
#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/config_io.hh"
#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "util/logging.hh"

namespace ccsim::fault {
namespace {

using namespace time_literals;

class FaultSpecTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        throwOnError(true);
        quietLogging(true);
    }
    void TearDown() override { throwOnError(false); }
};

TEST_F(FaultSpecTest, DefaultSpecIsDisabledAndValid)
{
    FaultSpec f;
    EXPECT_FALSE(f.enabled());
    EXPECT_FALSE(f.lossPossible());
    EXPECT_NO_THROW(f.validate());
}

TEST_F(FaultSpecTest, ValidateRejectsBadFields)
{
    FaultSpec f;
    f.straggler_rate = 1.5;
    EXPECT_THROW(f.validate(), FatalError);

    f = FaultSpec{};
    f.straggler_rate = 0.5;
    f.straggler_factor = 0.5; // < 1: a "straggler" that speeds up
    EXPECT_THROW(f.validate(), FatalError);

    f = FaultSpec{};
    f.link_degrade_rate = 0.1;
    f.link_degrade_factor = 0.0; // infinite slowdown
    EXPECT_THROW(f.validate(), FatalError);

    f = FaultSpec{};
    f.msg_drop_rate = 1.0; // certain loss: no retry can succeed
    EXPECT_THROW(f.validate(), FatalError);

    f = FaultSpec{};
    f.link_blackhole_rate = 0.5;
    f.retry_timeout = 0;
    EXPECT_THROW(f.validate(), FatalError);
}

TEST_F(FaultSpecTest, ParseFaultSpecReadsShortKeys)
{
    FaultSpec f = parseFaultSpec(
        "straggler=0.25,straggler_factor=3,degrade=0.1,"
        "degrade_factor=0.4,drop=0.01,retries=7,timeout_us=50,"
        "backoff=1.5,seed=99");
    EXPECT_DOUBLE_EQ(f.straggler_rate, 0.25);
    EXPECT_DOUBLE_EQ(f.straggler_factor, 3.0);
    EXPECT_DOUBLE_EQ(f.link_degrade_rate, 0.1);
    EXPECT_DOUBLE_EQ(f.link_degrade_factor, 0.4);
    EXPECT_DOUBLE_EQ(f.msg_drop_rate, 0.01);
    EXPECT_EQ(f.retry_budget, 7);
    EXPECT_EQ(f.retry_timeout, 50 * US);
    EXPECT_DOUBLE_EQ(f.retry_backoff, 1.5);
    EXPECT_EQ(f.seed, 99u);
    EXPECT_TRUE(f.enabled());
    EXPECT_TRUE(f.lossPossible());
}

TEST_F(FaultSpecTest, ParseFaultSpecRejectsUnknownKey)
{
    EXPECT_THROW(parseFaultSpec("gremlins=1"), FatalError);
    EXPECT_THROW(parseFaultSpec("straggler"), FatalError);
}

TEST_F(FaultSpecTest, ParseFaultSpecRejectsNonFiniteNumbers)
{
    // A rate check written as `x < 0 || x > 1` lets NaN through, so
    // the parser turns non-finite values away as bad numbers.
    for (const char *spec :
         {"drop=nan", "delay=nan", "straggler=nan", "degrade=inf",
          "backoff=-inf", "delay_us=1e300"})
        EXPECT_THROW(parseFaultSpec(spec), FatalError) << spec;
}

TEST_F(FaultSpecTest, MixSeedIsDeterministicAndSpreads)
{
    EXPECT_EQ(mixSeed(1, 0), mixSeed(1, 0));
    EXPECT_NE(mixSeed(1, 0), mixSeed(1, 1));
    EXPECT_NE(mixSeed(1, 0), mixSeed(2, 0));
}

TEST_F(FaultSpecTest, ConfigRoundTripPreservesFaultBlock)
{
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault = parseFaultSpec(
        "straggler=0.125,degrade=0.25,delay=0.5,delay_us=30,seed=77");
    std::ostringstream os;
    machine::saveConfig(cfg, os);
    std::istringstream is(os.str());
    machine::MachineConfig back = machine::loadConfig(is);
    EXPECT_EQ(back.fault.seed, 77u);
    EXPECT_DOUBLE_EQ(back.fault.straggler_rate, 0.125);
    EXPECT_DOUBLE_EQ(back.fault.link_degrade_rate, 0.25);
    EXPECT_DOUBLE_EQ(back.fault.msg_delay_rate, 0.5);
    EXPECT_EQ(back.fault.msg_delay, 30 * US);
}

TEST_F(FaultSpecTest, PristineConfigEmitsNoFaultKeys)
{
    std::ostringstream os;
    machine::saveConfig(machine::t3dConfig(), os);
    EXPECT_EQ(os.str().find("fault."), std::string::npos);
}

TEST_F(FaultSpecTest, InjectorStaticDrawsAreReproducible)
{
    FaultSpec f;
    f.seed = 5;
    f.straggler_rate = 0.5;
    f.link_degrade_rate = 0.5;
    FaultInjector a(f, 16, 40), b(f, 16, 40);
    EXPECT_EQ(a.stragglers(), b.stragglers());
    EXPECT_EQ(a.degradedLinks(), b.degradedLinks());
    for (int n = 0; n < 16; ++n)
        EXPECT_DOUBLE_EQ(a.cpuFactor(n), b.cpuFactor(n));
    EXPECT_GT(a.stragglers(), 0);
    EXPECT_LT(a.stragglers(), 16);
}

TEST_F(FaultSpecTest, StragglerAssignmentIgnoresOtherRates)
{
    // Adding link faults must not reshuffle which nodes straggle:
    // the draws per family are independent streams.
    FaultSpec f;
    f.seed = 5;
    f.straggler_rate = 0.5;
    FaultInjector a(f, 16, 40);
    f.link_degrade_rate = 0.3;
    f.link_blackhole_rate = 0.2;
    FaultInjector b(f, 16, 40);
    for (int n = 0; n < 16; ++n)
        EXPECT_DOUBLE_EQ(a.cpuFactor(n), b.cpuFactor(n));
}

// ---- behavioural tests through the full stack ------------------------

harness::Measurement
measure(const machine::MachineConfig &cfg, int p, machine::Coll op,
        Bytes m)
{
    return harness::measureCollective(cfg, p, op, m);
}

TEST_F(FaultSpecTest, StragglersLengthenSoftwareBarrier)
{
    machine::MachineConfig clean = machine::sp2Config();
    machine::MachineConfig faulty = clean;
    faulty.fault.seed = 3;
    faulty.fault.straggler_rate = 0.5;
    faulty.fault.straggler_factor = 2.0;

    auto base = measure(clean, 8, machine::Coll::Barrier, 0);
    auto slow = measure(faulty, 8, machine::Coll::Barrier, 0);
    // The SP2 barrier is software dissemination (112 us per stage
    // through the straggling CPUs): stragglers must show up.
    EXPECT_GT(slow.max_time, base.max_time);
}

TEST_F(FaultSpecTest, HardwareBarrierIsStragglerImmune)
{
    machine::MachineConfig clean = machine::t3dConfig();
    machine::MachineConfig faulty = clean;
    faulty.fault.seed = 3;
    faulty.fault.straggler_rate = 0.5;
    faulty.fault.straggler_factor = 4.0;

    auto base = measure(clean, 8, machine::Coll::Barrier, 0);
    auto slow = measure(faulty, 8, machine::Coll::Barrier, 0);
    // The T3D barrier is the hardwired AND tree: no software on the
    // critical path, so straggling CPUs change nothing at all.
    EXPECT_EQ(slow.max_time, base.max_time);
}

TEST_F(FaultSpecTest, DegradedLinksSlowBroadcast)
{
    machine::MachineConfig clean = machine::t3dConfig();
    machine::MachineConfig faulty = clean;
    faulty.fault.seed = 1;
    faulty.fault.link_degrade_rate = 1.0; // every link at half rate
    faulty.fault.link_degrade_factor = 0.5;

    auto base = measure(clean, 8, machine::Coll::Bcast, 64 * KiB);
    auto slow = measure(faulty, 8, machine::Coll::Bcast, 64 * KiB);
    EXPECT_GT(slow.max_time, base.max_time);
}

TEST_F(FaultSpecTest, DropsRetryAndComplete)
{
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault.seed = 11;
    cfg.fault.msg_drop_rate = 0.2;
    cfg.fault.retry_budget = 16;
    cfg.fault.retry_timeout = 50 * US;

    auto meas = measure(cfg, 8, machine::Coll::Alltoall, 4 * KiB);
    EXPECT_GT(meas.fault_drops, 0u);
    EXPECT_GE(meas.fault_retransmits, meas.fault_drops);

    machine::MachineConfig clean = machine::sp2Config();
    auto base = measure(clean, 8, machine::Coll::Alltoall, 4 * KiB);
    EXPECT_GT(meas.max_time, base.max_time);
}

TEST_F(FaultSpecTest, ExhaustedRetriesRaiseFaultErrorNamingLink)
{
    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.fault.seed = 2;
    cfg.fault.link_blackhole_rate = 1.0; // nothing gets through
    cfg.fault.retry_budget = 1;
    cfg.fault.retry_timeout = 10 * US;

    machine::Machine mach(cfg, 2);
    auto sender = [&]() -> sim::Task<void> {
        mpi::Comm comm(mach, 0);
        co_await comm.send(1, 0, 256);
    };
    auto receiver = [&]() -> sim::Task<void> {
        mpi::Comm comm(mach, 1);
        co_await comm.recv(0, 0);
    };
    mach.sim().spawn(sender());
    mach.sim().spawn(receiver());

    try {
        mach.run();
        FAIL() << "run() should have thrown FaultError";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.src(), 0);
        EXPECT_EQ(e.dst(), 1);
        EXPECT_GE(e.link(), 0); // names the black-holed link
        EXPECT_EQ(e.attempts(), 2); // original + 1 retry
        EXPECT_NE(std::string(e.what()).find("link"),
                  std::string::npos);
    }
    EXPECT_EQ(mach.faultReport().exhausted, 1u);
    EXPECT_GE(mach.faultReport().drops, 2u);
}

TEST_F(FaultSpecTest, SweepIsByteIdenticalAcrossJobCounts)
{
    harness::SweepSpec spec;
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault.seed = 21;
    cfg.fault.straggler_rate = 0.3;
    cfg.fault.msg_drop_rate = 0.05;
    cfg.fault.retry_timeout = 50 * US;
    spec.machines = {cfg};
    spec.ops = {machine::Coll::Bcast, machine::Coll::Barrier};
    spec.sizes = {2, 4, 8};
    spec.lengths = {64, 4 * KiB};

    auto points = spec.expand();
    auto serial = harness::SweepRunner(1).run(points);
    auto parallel = harness::SweepRunner(4).run(points);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].max_time, parallel[i].max_time) << i;
        EXPECT_EQ(serial[i].min_time, parallel[i].min_time) << i;
        EXPECT_EQ(serial[i].mean_time, parallel[i].mean_time) << i;
        EXPECT_EQ(serial[i].fault_drops, parallel[i].fault_drops) << i;
        EXPECT_EQ(serial[i].fault_retransmits,
                  parallel[i].fault_retransmits) << i;
    }
}

TEST_F(FaultSpecTest, SweepPointsGetDistinctFaultUniverses)
{
    harness::SweepSpec spec;
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault.seed = 21;
    cfg.fault.straggler_rate = 0.3;
    spec.machines = {cfg};
    spec.ops = {machine::Coll::Barrier};
    spec.sizes = {8, 8, 8}; // same point three times
    spec.lengths = {64};

    auto points = spec.expand();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_NE(points[0].cfg.fault.seed, points[1].cfg.fault.seed);
    EXPECT_NE(points[1].cfg.fault.seed, points[2].cfg.fault.seed);
}

TEST_F(FaultSpecTest, DisabledFaultsLeaveTimingUntouched)
{
    // A constructed-but-disabled spec must not perturb anything:
    // the fault layer's no-op path is the byte-identity guarantee.
    machine::MachineConfig a = machine::paragonConfig();
    machine::MachineConfig b = machine::paragonConfig();
    b.fault.seed = 999; // differs, but all rates are zero
    auto ma = measure(a, 8, machine::Coll::Alltoall, 4 * KiB);
    auto mb = measure(b, 8, machine::Coll::Alltoall, 4 * KiB);
    EXPECT_EQ(ma.max_time, mb.max_time);
    EXPECT_EQ(mb.fault_drops, 0u);
}

} // namespace
} // namespace ccsim::fault
