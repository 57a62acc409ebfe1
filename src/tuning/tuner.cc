#include "tuning/tuner.hh"

#include <algorithm>

#include "fault/fault_report.hh"
#include "fault/fault_spec.hh"
#include "harness/sweep.hh"
#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::tuning {

using machine::Algo;
using machine::Coll;

namespace {

/** One row of the winner map: the best algorithm per length. */
struct WinnerRow
{
    int p = 2;
    std::vector<Algo> winners; // parallel to the length axis
};

/**
 * Compress one collective's winner map into piecewise rules: along
 * m, a rule only where the winner changes (first segment at m >= 0);
 * along p, a row only where its segments differ from the previous
 * row's.  Rows with larger p_min shadow earlier ones, so each
 * emitted row fully describes its p range on its own.
 */
void
emitRules(SelectionTable &table, Coll op,
          const std::vector<WinnerRow> &rows,
          const std::vector<Bytes> &lengths)
{
    std::vector<std::pair<Bytes, Algo>> prev;
    for (const WinnerRow &row : rows) {
        std::vector<std::pair<Bytes, Algo>> segs;
        for (std::size_t j = 0; j < row.winners.size(); ++j) {
            Bytes m_min = j == 0 ? 0 : lengths[j];
            if (segs.empty() || segs.back().second != row.winners[j])
                segs.emplace_back(m_min, row.winners[j]);
        }
        if (segs == prev)
            continue;
        for (const auto &[m_min, algo] : segs)
            table.addRule(op, {row.p, m_min, algo});
        prev = segs;
    }
}

} // namespace

const RegretCell &
TuneResult::worstCell() const
{
    if (cells.empty())
        panic("TuneResult::worstCell: no cells");
    const RegretCell *worst = &cells.front();
    for (const RegretCell &c : cells)
        if (c.regret() > worst->regret())
            worst = &c;
    return *worst;
}

std::vector<Algo>
candidateAlgos(const machine::MachineConfig &cfg, Coll op)
{
    std::vector<Algo> algos;
    for (const mpi::AlgoEntry &e : mpi::collOp(op).algos)
        if (e.algo != Algo::Hardware || cfg.hardware_barrier)
            algos.push_back(e.algo);

    // Incumbent first: the tuner breaks exact ties by order, so a
    // challenger must strictly beat the machine's configured choice.
    Algo incumbent = cfg.algorithmFor(op);
    auto it = std::find(algos.begin(), algos.end(), incumbent);
    if (it != algos.end())
        std::rotate(algos.begin(), it, it + 1);
    return algos;
}

TuneResult
tuneMachine(const machine::MachineConfig &cfg, const TuneGrid &grid,
            int jobs)
{
    machine::MachineConfig base = cfg;
    base.selection.reset(); // explicit algorithms only (see file doc)

    std::vector<Coll> ops = grid.ops;
    if (ops.empty())
        ops.assign(machine::kAllColls.begin(),
                   machine::kAllColls.end());

    std::vector<int> sizes = grid.sizes.empty()
                                 ? harness::paperMachineSizes(cfg.name)
                                 : grid.sizes;
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

    std::vector<Bytes> lengths =
        grid.lengths.empty() ? harness::paperMessageLengths()
                             : grid.lengths;
    std::sort(lengths.begin(), lengths.end());
    lengths.erase(std::unique(lengths.begin(), lengths.end()),
                  lengths.end());

    // One flat point list over ops x p x m x candidates, so the
    // whole tune is a single maximally-parallel pool batch.
    struct CellRef
    {
        Coll op;
        int p;
        Bytes m;
        std::size_t first;  // index of candidate 0's point
        std::size_t count;  // number of candidates
    };
    const std::vector<Bytes> barrier_lengths{0};
    const bool faulty = base.fault.enabled();
    std::vector<harness::SweepPoint> points;
    std::vector<CellRef> refs;
    for (Coll op : ops) {
        // Regret is measured against the configured algorithm, so it
        // must be a candidate.
        mpi::requireAlgo(mpi::collOp(op), base.algorithmFor(op));
        std::vector<Algo> candidates = candidateAlgos(base, op);
        const std::vector<Bytes> &ms =
            op == Coll::Barrier ? barrier_lengths : lengths;
        for (int p : sizes) {
            for (Bytes m : ms) {
                refs.push_back({op, p, m, points.size(),
                                candidates.size()});
                // Fault-conditioned tuning: every candidate of a
                // cell faces the SAME fault universe (apples-to-
                // apples ranking), while each cell gets its own
                // derived universe — the tuner calls run(points)
                // directly, so it must do the per-cell salting that
                // SweepSpec::expand does per point.
                std::uint64_t cell_seed =
                    faulty ? fault::mixSeed(base.fault.seed,
                                            0x74756e65ULL + // "tune"
                                                refs.size())
                           : 0;
                for (Algo a : candidates) {
                    points.push_back(
                        {base, p, op, m, a, grid.options});
                    if (faulty)
                        points.back().cfg.fault.seed = cell_seed;
                }
            }
        }
    }

    harness::SweepRunner runner(jobs);
    std::vector<harness::Measurement> results(points.size());
    std::vector<char> failed(points.size(), 0);
    if (faulty) {
        // Under fault injection a candidate can die with FaultError
        // (fail_fast / retry_escalate policies).  That is signal,
        // not an abort: the candidate is ranked last in its cell
        // instead of killing the whole batch.
        runner.runTasks(points.size(), [&](std::size_t i) {
            const harness::SweepPoint &pt = points[i];
            try {
                results[i] = harness::measureCollective(
                    pt.cfg, pt.p, pt.op, pt.m, pt.algo, pt.options);
            } catch (const fault::FaultError &) {
                failed[i] = 1;
            }
        });
    } else {
        results = runner.run(points);
    }

    TuneResult out;
    out.table.setMachine(cfg.name);

    std::size_t ref_idx = 0;
    for (Coll op : ops) {
        const std::vector<Bytes> &ms =
            op == Coll::Barrier ? barrier_lengths : lengths;
        std::vector<WinnerRow> rows;
        for (int p : sizes) {
            WinnerRow row;
            row.p = p;
            for (std::size_t j = 0; j < ms.size(); ++j) {
                const CellRef &ref = refs[ref_idx++];

                // Winner: strictly fastest; ties keep the earlier
                // candidate (the incumbent is candidate 0), which is
                // what makes tune output deterministic and minimal.
                // Under faults, reliability ranks before speed: a
                // candidate with fewer failed ensemble members (or
                // that did not die outright) beats a faster one that
                // failed more.
                auto better = [&](std::size_t a, std::size_t b) {
                    if (failed[a] != failed[b])
                        return failed[a] == 0;
                    if (failed[a])
                        return false;
                    const harness::Measurement &ra = results[a];
                    const harness::Measurement &rb = results[b];
                    if (ra.ensemble_failures != rb.ensemble_failures)
                        return ra.ensemble_failures <
                               rb.ensemble_failures;
                    return ra.max_time < rb.max_time;
                };
                std::size_t best = 0;
                for (std::size_t k = 1; k < ref.count; ++k)
                    if (better(ref.first + k, ref.first + best))
                        best = k;

                RegretCell cell;
                cell.op = op;
                cell.p = p;
                cell.m = ref.m;
                cell.default_algo = points[ref.first].algo;
                cell.best_algo = points[ref.first + best].algo;
                cell.default_time = results[ref.first].max_time;
                cell.best_time = results[ref.first + best].max_time;
                out.total_default += cell.default_time;
                out.total_best += cell.best_time;
                out.cells.push_back(cell);

                row.winners.push_back(cell.best_algo);
            }
            rows.push_back(std::move(row));
        }
        emitRules(out.table, op, rows, ms);
    }
    return out;
}

} // namespace ccsim::tuning
