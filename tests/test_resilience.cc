/**
 * @file
 * Graceful-degradation tests: recovery-policy parsing (with
 * did-you-mean diagnostics), per-policy byte-identity across --jobs
 * levels and metrics on/off, the degrade policy's no-throw
 * guarantee, ensemble aggregation, record->replay identity under
 * degrade, fault-conditioned tuning determinism, and a clean
 * teardown after a run that fails.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_report.hh"
#include "fault/fault_spec.hh"
#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/config_io.hh"
#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"
#include "tuning/tuner.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace ccsim {
namespace {

using namespace time_literals;

class ResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        throwOnError(true);
        quietLogging(true);
    }
    void TearDown() override { throwOnError(false); }
};

// ---- policy spelling ----------------------------------------------

TEST_F(ResilienceTest, PolicyNamesRoundTrip)
{
    using fault::RecoveryPolicy;
    for (auto p : {RecoveryPolicy::FailFast,
                   RecoveryPolicy::RetryEscalate,
                   RecoveryPolicy::Degrade})
        EXPECT_EQ(fault::policyFromName(fault::policyName(p)), p);
    EXPECT_THROW(fault::policyFromName("bogus"), FatalError);
}

TEST_F(ResilienceTest, ParseReadsPolicyAndEscalations)
{
    fault::FaultSpec f = fault::parseFaultSpec(
        "blackhole=0.01,policy=retry_escalate,escalations=4,seed=1");
    EXPECT_EQ(f.policy, fault::RecoveryPolicy::RetryEscalate);
    EXPECT_EQ(f.escalation_budget, 4);
    EXPECT_EQ(fault::parseFaultSpec("drop=0.01,seed=1").policy,
              fault::RecoveryPolicy::FailFast);
}

TEST_F(ResilienceTest, UnknownKeySuggestsTheClosestSpelling)
{
    try {
        fault::parseFaultSpec("polcy=degrade");
        FAIL() << "no error for a misspelled key";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("did you mean 'policy'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("valid keys:"), std::string::npos) << msg;
    }
}

// ---- per-policy determinism ---------------------------------------

/** The spec each policy is exercised under (fail_fast avoids black
 *  holes, which it is defined to fail on). */
std::string
specFor(const std::string &policy)
{
    if (policy == "fail_fast" || policy == "retry_escalate")
        return "drop=0.05,straggler=0.1,seed=11,policy=" + policy;
    return "blackhole=0.02,drop=0.03,straggler=0.1,seed=11,"
           "policy=" + policy;
}

std::vector<harness::SweepPoint>
policyPoints(const std::string &policy, bool metrics)
{
    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.fault = fault::parseFaultSpec(specFor(policy));
    harness::MeasureOptions opt;
    opt.metrics = metrics;
    std::vector<harness::SweepPoint> pts;
    for (machine::Coll op :
         {machine::Coll::Alltoall, machine::Coll::Bcast}) {
        harness::SweepPoint pt;
        pt.cfg = cfg;
        pt.p = 8;
        pt.op = op;
        pt.m = 4096;
        pt.options = opt;
        pts.push_back(pt);
    }
    return pts;
}

void
expectIdentical(const harness::Measurement &a,
                const harness::Measurement &b, const char *what)
{
    EXPECT_EQ(a.max_time, b.max_time) << what;
    EXPECT_EQ(a.min_time, b.min_time) << what;
    EXPECT_EQ(a.mean_time, b.mean_time) << what;
    EXPECT_EQ(a.fault_drops, b.fault_drops) << what;
    EXPECT_EQ(a.fault_retransmits, b.fault_retransmits) << what;
    EXPECT_EQ(a.degradation.reroutes, b.degradation.reroutes) << what;
    EXPECT_EQ(a.degradation.extra_bytes, b.degradation.extra_bytes)
        << what;
    EXPECT_EQ(a.degradation.escalations, b.degradation.escalations)
        << what;
    EXPECT_EQ(a.degradation.absorbed, b.degradation.absorbed) << what;
    EXPECT_EQ(a.degradation.absorbed_delay,
              b.degradation.absorbed_delay)
        << what;
}

TEST_F(ResilienceTest, ASavedDegradeConfigMeasuresLikeItsSource)
{
    // The recovery policy is part of the saved machine: a config
    // file written from a degrade run must not reload as fail_fast
    // (which would throw on the first black-holed message).
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault =
        fault::parseFaultSpec("blackhole=0.05,policy=degrade,seed=3");
    std::stringstream doc;
    machine::saveConfig(cfg, doc);
    const machine::MachineConfig reloaded = machine::loadConfig(doc);

    const auto original = harness::measureCollective(
        cfg, 16, machine::Coll::Alltoall, 1024);
    const auto again = harness::measureCollective(
        reloaded, 16, machine::Coll::Alltoall, 1024);
    expectIdentical(original, again, "reloaded degrade config");
    EXPECT_GT(original.degradation.reroutes, 0u);
}

TEST_F(ResilienceTest, EveryPolicyIsIdenticalAtAnyJobsLevel)
{
    for (const char *policy :
         {"fail_fast", "retry_escalate", "degrade"}) {
        auto pts = policyPoints(policy, false);
        harness::SweepRunner serial(1), pool(3);
        auto a = serial.run(pts);
        auto b = pool.run(pts);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            expectIdentical(a[i], b[i], policy);
    }
}

TEST_F(ResilienceTest, MetricsTogglingDoesNotChangeRecovery)
{
    for (const char *policy :
         {"fail_fast", "retry_escalate", "degrade"}) {
        harness::SweepRunner runner(1);
        auto off = runner.run(policyPoints(policy, false));
        auto on = runner.run(policyPoints(policy, true));
        ASSERT_EQ(off.size(), on.size());
        for (std::size_t i = 0; i < off.size(); ++i) {
            expectIdentical(off[i], on[i], policy);
            EXPECT_FALSE(on[i].metrics.empty()) << policy;
        }
    }
}

// ---- the degrade guarantee ----------------------------------------

TEST_F(ResilienceTest, DegradeNeverThrowsEvenWhenNoDetourExists)
{
    // SP2's omega network gives every node a single injection link:
    // when that is black-holed no detour exists, and only the absorb
    // backstop keeps the run alive.  T3D's torus reroutes instead.
    for (auto cfg :
         {machine::sp2Config(), machine::t3dConfig()}) {
        cfg.fault = fault::parseFaultSpec(
            "blackhole=0.2,seed=3,policy=degrade");
        harness::MeasureOptions opt;
        opt.metrics = true;
        harness::Measurement meas;
        ASSERT_NO_THROW(
            meas = harness::measureCollective(
                cfg, 8, machine::Coll::Alltoall, 4096,
                machine::Algo::Default, opt))
            << cfg.name;
        // A 20% hole rate must provoke SOME recovery action.
        EXPECT_TRUE(meas.degradation.any()) << cfg.name;
        // Fallback routes are computed once per (src, dst) pair and
        // then served from the cache, so reroutes can far exceed
        // route computations.
        auto it = meas.metrics.counters.find("fault.fallback_routes");
        if (meas.degradation.reroutes > 0) {
            ASSERT_NE(it, meas.metrics.counters.end()) << cfg.name;
            EXPECT_LE(it->second, meas.degradation.reroutes)
                << cfg.name;
        }
    }
}

TEST_F(ResilienceTest, FailFastStillFailsOnABlackHole)
{
    machine::MachineConfig cfg = machine::sp2Config();
    cfg.fault = fault::parseFaultSpec(
        "blackhole=0.2,seed=3,policy=fail_fast");
    EXPECT_THROW(harness::measureCollective(cfg, 8,
                                            machine::Coll::Alltoall,
                                            4096),
                 fault::FaultError);
}

TEST_F(ResilienceTest, DeadlockedRendezvousTearsDownCleanly)
{
    // Rank 1's 64 KiB send goes rendezvous, and its RTS waits at
    // rank 0 for a receive that never comes.  Tearing the machine
    // down must return the handshake slot rank 1 pooled before that
    // pool is destroyed (the sanitizer build checks it).
    machine::Machine mach(machine::sp2Config(), 2);
    auto sender = [&]() -> sim::Task<void> {
        co_await mach.node(1).send(0, 0, 0, 64 * KiB);
    };
    mach.sim().spawn(sender());
    EXPECT_THROW(mach.run(), PanicError);
    EXPECT_EQ(mach.sim().pendingTasks(), 1u);
}

// ---- ensembles ----------------------------------------------------

TEST_F(ResilienceTest, EnsembleAggregatesDeterministically)
{
    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.fault = fault::parseFaultSpec(
        "blackhole=0.02,straggler=0.1,seed=42,policy=degrade");
    harness::MeasureOptions opt;
    opt.ensemble = 4;

    auto a = harness::measureCollective(cfg, 8, machine::Coll::Bcast,
                                        4096, machine::Algo::Default,
                                        opt);
    auto b = harness::measureCollective(cfg, 8, machine::Coll::Bcast,
                                        4096, machine::Algo::Default,
                                        opt);
    EXPECT_EQ(a.ensemble_runs, 4);
    EXPECT_EQ(a.ensemble_failures, 0);
    EXPECT_DOUBLE_EQ(a.failureFraction(), 0.0);
    EXPECT_GE(a.p95_time, a.max_time * 9 / 10); // p95 near the mean max
    expectIdentical(a, b, "ensemble");
    EXPECT_EQ(a.p95_time, b.p95_time);

    // The ensemble members differ from each other (different derived
    // universes), so the aggregate is not just member 0.
    harness::MeasureOptions one;
    one.ensemble = 1;
    auto single = harness::measureCollective(
        cfg, 8, machine::Coll::Bcast, 4096, machine::Algo::Default,
        one);
    EXPECT_EQ(single.ensemble_runs, 0); // plain-run marker
}

TEST_F(ResilienceTest, EnsembleOnACleanMachineIsAPlainRun)
{
    machine::MachineConfig cfg = machine::t3dConfig();
    harness::MeasureOptions opt;
    opt.ensemble = 5;
    auto ens = harness::measureCollective(cfg, 8, machine::Coll::Bcast,
                                          4096, machine::Algo::Default,
                                          opt);
    auto plain = harness::measureCollective(cfg, 8,
                                            machine::Coll::Bcast,
                                            4096);
    EXPECT_EQ(ens.ensemble_runs, 0);
    EXPECT_EQ(ens.max_time, plain.max_time);
    EXPECT_EQ(ens.min_time, plain.min_time);
    EXPECT_EQ(ens.mean_time, plain.mean_time);
}

TEST_F(ResilienceTest, EnsembleIsIdenticalAtAnyJobsLevel)
{
    machine::MachineConfig cfg = machine::paragonConfig();
    cfg.fault = fault::parseFaultSpec(
        "blackhole=0.02,drop=0.02,seed=5,policy=degrade");
    harness::MeasureOptions opt;
    opt.ensemble = 3;
    std::vector<harness::SweepPoint> pts;
    for (Bytes m : {Bytes{1024}, Bytes{16384}}) {
        harness::SweepPoint pt;
        pt.cfg = cfg;
        pt.p = 8;
        pt.op = machine::Coll::Alltoall;
        pt.m = m;
        pt.options = opt;
        pts.push_back(pt);
    }
    harness::SweepRunner serial(1), pool(2);
    auto a = serial.run(pts);
    auto b = pool.run(pts);
    for (std::size_t i = 0; i < a.size(); ++i) {
        expectIdentical(a[i], b[i], "ensemble-jobs");
        EXPECT_EQ(a[i].p95_time, b[i].p95_time) << i;
        EXPECT_EQ(a[i].ensemble_failures, b[i].ensemble_failures);
    }
}

// ---- record -> replay under degrade -------------------------------

sim::Task<void>
replayAppRank(machine::Machine &mach, int rank)
{
    mpi::Comm comm(mach, rank);
    co_await comm.compute((50 + 3 * rank) * US);
    co_await comm.allreduce(4096);
    co_await comm.alltoall(1024);
    co_await comm.barrier();
}

TEST_F(ResilienceTest, ReplayUnderDegradeIsDeterministic)
{
    // Record on a clean T3D...
    machine::MachineConfig clean = machine::t3dConfig();
    machine::Machine mach(clean, 4);
    replay::Recorder rec(4);
    rec.attach(mach);
    for (int r = 0; r < 4; ++r)
        mach.sim().spawn(replayAppRank(mach, r));
    mach.run();
    replay::Program prog = rec.take();

    // ...replay under degrade: deterministic, no-throw, and the
    // degradation report rides the ReplayResult.
    machine::MachineConfig deg = clean;
    deg.fault = fault::parseFaultSpec(
        "blackhole=0.1,straggler=0.2,seed=9,policy=degrade");
    replay::ReplayResult a, b;
    ASSERT_NO_THROW(a = replay::Replayer::run(deg, prog));
    ASSERT_NO_THROW(b = replay::Replayer::run(deg, prog));
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(a.faults.degradation.reroutes,
              b.faults.degradation.reroutes);
    EXPECT_EQ(a.faults.degradation.absorbed,
              b.faults.degradation.absorbed);
    EXPECT_EQ(a.faults.degradation.absorbed_delay,
              b.faults.degradation.absorbed_delay);

    // Degradation costs time, never correctness.
    replay::ReplayResult base = replay::Replayer::run(clean, prog);
    EXPECT_GE(a.makespan(), base.makespan());
}

// ---- fault-conditioned tuning -------------------------------------

TEST_F(ResilienceTest, TuningUnderFaultsIsIdenticalAtAnyJobsLevel)
{
    machine::MachineConfig cfg = machine::t3dConfig();
    cfg.fault = fault::parseFaultSpec(
        "blackhole=0.01,straggler=0.05,seed=42,policy=degrade");
    tuning::TuneGrid grid;
    grid.ops = {machine::Coll::Bcast};
    grid.sizes = {8};
    grid.lengths = {1024, 16384};
    grid.options.iterations = 1;
    grid.options.repetitions = 1;
    grid.options.warmup = 0;
    grid.options.ensemble = 2;

    tuning::TuneResult serial = tuning::tuneMachine(cfg, grid, 1);
    tuning::TuneResult pool = tuning::tuneMachine(cfg, grid, 2);
    ASSERT_EQ(serial.cells.size(), pool.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].best_algo, pool.cells[i].best_algo)
            << i;
        EXPECT_EQ(serial.cells[i].best_time, pool.cells[i].best_time)
            << i;
        EXPECT_EQ(serial.cells[i].default_time,
                  pool.cells[i].default_time)
            << i;
    }
    std::ostringstream sa, sb;
    serial.table.save(sa);
    pool.table.save(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

} // namespace
} // namespace ccsim
