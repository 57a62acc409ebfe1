/**
 * @file
 * Algorithm-equivalence fuzzing: random (operation, machine,
 * communicator size, element count, root, algorithm) draws, each
 * executed with real payloads and checked against a locally-computed
 * reference result.  Seeds are fixed, so failures are reproducible;
 * the draw loop gives breadth no hand-written case list reaches.
 */

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "machine/config_io.hh"
#include "machine/machine.hh"
#include "mpi/collectives.hh"
#include "mpi/comm.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ccsim::mpi {
namespace {

using machine::Algo;
using machine::Coll;
using machine::Machine;
using Body = std::function<sim::Task<void>(Comm &)>;

void
runProgram(Machine &m, const Body &body)
{
    auto driver = [&m, &body](int rank) -> sim::Task<void> {
        Comm comm(m, rank);
        co_await body(comm);
    };
    for (int r = 0; r < m.size(); ++r)
        m.sim().spawn(driver(r));
    m.run();
}

/** Deterministic contribution of (rank, element). */
std::int64_t
value(int rank, int j, std::uint64_t salt)
{
    return static_cast<std::int64_t>((rank + 1) * 37 + j * 11 +
                                     static_cast<int>(salt % 97)) -
           50;
}

struct Draw
{
    Coll op;
    Algo algo;
    int p;
    int count;
    int root;
    std::uint64_t salt;
    int machine_idx;
};

/**
 * Every operation with a result to check (all but barrier), each with
 * its algorithms read from the collective table, so a new algorithm
 * is fuzzed as soon as its row lists it.
 */
Draw
randomDraw(Rng &rng)
{
    static_assert(machine::kAllColls[0] == Coll::Barrier);
    const Coll op = machine::kAllColls[1 + rng.nextBounded(
        machine::kAllColls.size() - 1)];
    const std::span<const AlgoEntry> algos = collOp(op).algos;
    Draw d;
    d.op = op;
    d.algo = algos[rng.nextBounded(algos.size())].algo;
    d.p = static_cast<int>(1 + rng.nextBounded(12)); // 1..12
    d.count = static_cast<int>(1 + rng.nextBounded(8));
    d.root = static_cast<int>(rng.nextBounded(
        static_cast<std::uint64_t>(d.p)));
    d.salt = rng.next();
    d.machine_idx = static_cast<int>(rng.nextBounded(2));
    return d;
}

/** Execute one draw and verify against a reference computation. */
void
checkDraw(const Draw &d)
{
    // Mesh/torus presets need power-of-two p; use ideal and T3D
    // (T3D only when p is a power of two).
    machine::MachineConfig cfg = machine::idealConfig();
    if (d.machine_idx == 1 && (d.p & (d.p - 1)) == 0)
        cfg = machine::t3dConfig();
    Machine m(cfg, d.p);

    int p = d.p;
    int n = d.count;
    SCOPED_TRACE(machine::collName(d.op) + "/" +
                 machine::algoName(d.algo) + " p=" + std::to_string(p) +
                 " n=" + std::to_string(n) +
                 " root=" + std::to_string(d.root) + " on " + cfg.name);

    Body body = [&](Comm &c) -> sim::Task<void> {
        int rank = c.rank();
        switch (d.op) {
          case Coll::Bcast: {
              std::vector<std::int64_t> v(static_cast<size_t>(n));
              for (int j = 0; j < n; ++j)
                  v[static_cast<size_t>(j)] = value(d.root, j, d.salt);
              auto in = rank == d.root
                            ? v
                            : std::vector<std::int64_t>(
                                  static_cast<size_t>(n), 0);
              auto out = co_await c.bcastData(in, d.root, d.algo);
              EXPECT_EQ(out, v);
              break;
          }
          case Coll::Gather: {
              std::vector<std::int64_t> mine(static_cast<size_t>(n));
              for (int j = 0; j < n; ++j)
                  mine[static_cast<size_t>(j)] = value(rank, j, d.salt);
              auto out = co_await c.gatherData(mine, d.root, d.algo);
              if (rank == d.root) {
                  EXPECT_EQ(out.size(),
                            static_cast<size_t>(n) * p);
                  bool ok = true;
                  for (int r = 0; r < p; ++r)
                      for (int j = 0; j < n; ++j)
                          ok = ok &&
                               out[static_cast<size_t>(r * n + j)] ==
                                   value(r, j, d.salt);
                  EXPECT_TRUE(ok);
              }
              break;
          }
          case Coll::Scatter: {
              std::vector<std::int64_t> all;
              for (int r = 0; r < p; ++r)
                  for (int j = 0; j < n; ++j)
                      all.push_back(value(r, j, d.salt));
              std::vector<std::int64_t> in;
              if (rank == d.root)
                  in = all;
              auto out =
                  co_await c.scatterData(in, n, d.root, d.algo);
              bool ok = out.size() == static_cast<size_t>(n);
              for (int j = 0; ok && j < n; ++j)
                  ok = out[static_cast<size_t>(j)] ==
                       value(rank, j, d.salt);
              EXPECT_TRUE(ok);
              break;
          }
          case Coll::Allgather: {
              std::vector<std::int64_t> mine(static_cast<size_t>(n));
              for (int j = 0; j < n; ++j)
                  mine[static_cast<size_t>(j)] = value(rank, j, d.salt);
              auto out = co_await c.allgatherData(mine, d.algo);
              bool ok = out.size() == static_cast<size_t>(n) * p;
              for (int r = 0; ok && r < p; ++r)
                  for (int j = 0; ok && j < n; ++j)
                      ok = out[static_cast<size_t>(r * n + j)] ==
                           value(r, j, d.salt);
              EXPECT_TRUE(ok);
              break;
          }
          case Coll::Alltoall: {
              std::vector<std::int64_t> mine;
              for (int dst = 0; dst < p; ++dst)
                  for (int j = 0; j < n; ++j)
                      mine.push_back(value(rank, j, d.salt) * 1000 +
                                     dst);
              auto out = co_await c.alltoallData(mine, d.algo);
              bool ok = out.size() == static_cast<size_t>(n) * p;
              for (int src = 0; ok && src < p; ++src)
                  for (int j = 0; ok && j < n; ++j)
                      ok = out[static_cast<size_t>(src * n + j)] ==
                           value(src, j, d.salt) * 1000 + rank;
              EXPECT_TRUE(ok);
              break;
          }
          case Coll::Reduce:
          case Coll::Allreduce: {
              std::vector<std::int64_t> mine(static_cast<size_t>(n));
              for (int j = 0; j < n; ++j)
                  mine[static_cast<size_t>(j)] = value(rank, j, d.salt);
              std::vector<std::int64_t> expect(
                  static_cast<size_t>(n), 0);
              for (int r = 0; r < p; ++r)
                  for (int j = 0; j < n; ++j)
                      expect[static_cast<size_t>(j)] +=
                          value(r, j, d.salt);
              if (d.op == Coll::Reduce) {
                  auto out = co_await c.reduceData(
                      mine, ReduceOp::Sum, d.root, d.algo);
                  if (rank == d.root) {
                      EXPECT_EQ(out, expect);
                  }
              } else {
                  auto out = co_await c.allreduceData(
                      mine, ReduceOp::Sum, d.algo);
                  EXPECT_EQ(out, expect);
              }
              break;
          }
          case Coll::ReduceScatter: {
              std::vector<std::int64_t> mine;
              for (int b = 0; b < p; ++b)
                  for (int j = 0; j < n; ++j)
                      mine.push_back(value(rank, b * n + j, d.salt));
              auto out = co_await c.reduceScatterData(
                  mine, ReduceOp::Sum, d.algo);
              bool ok = out.size() == static_cast<size_t>(n);
              for (int j = 0; ok && j < n; ++j) {
                  std::int64_t e = 0;
                  for (int r = 0; r < p; ++r)
                      e += value(r, rank * n + j, d.salt);
                  ok = out[static_cast<size_t>(j)] == e;
              }
              EXPECT_TRUE(ok);
              break;
          }
          case Coll::Scan: {
              std::vector<std::int64_t> mine(static_cast<size_t>(n));
              for (int j = 0; j < n; ++j)
                  mine[static_cast<size_t>(j)] = value(rank, j, d.salt);
              auto out =
                  co_await c.scanData(mine, ReduceOp::Sum, d.algo);
              bool ok = out.size() == static_cast<size_t>(n);
              for (int j = 0; ok && j < n; ++j) {
                  std::int64_t e = 0;
                  for (int r = 0; r <= rank; ++r)
                      e += value(r, j, d.salt);
                  ok = out[static_cast<size_t>(j)] == e;
              }
              EXPECT_TRUE(ok);
              break;
          }
          default:
            break;
        }
    };
    runProgram(m, body);
}

class FuzzP : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzP,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST_P(FuzzP, RandomDrawsMatchReference)
{
    Rng rng(GetParam());
    for (int i = 0; i < 40; ++i)
        checkDraw(randomDraw(rng));
}

/** collOp() finds each operation's own row, and a row's name is the
 *  keyword traces write for it (the parser reads base keywords with
 *  machine::collFromKey). */
TEST(CollectiveTable, RowsNameTheirOperation)
{
    for (Coll op : machine::kAllColls) {
        EXPECT_EQ(collOp(op).op, op);
        EXPECT_EQ(collOp(op).name, machine::collKey(op));
        EXPECT_FALSE(collOp(op).algos.empty());
    }
    EXPECT_EQ(&collOp(Coll::Gather, true), &kGatherv);
    EXPECT_EQ(&collOp(Coll::Scatter, true), &kScatterv);
    EXPECT_EQ(kGatherv.op, Coll::Gather);
    EXPECT_EQ(kScatterv.op, Coll::Scatter);
}

} // namespace
} // namespace ccsim::mpi
