#include "bench_common.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tuning/selection_table.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"

namespace ccsim::bench {

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    cli::Options o(argv[0]);
    o.flag("quick", "trim sweeps for smoke runs");
    o.value("csv", "dump machine-readable series under DIR", "DIR");
    o.value("jobs", "sweep worker threads (default: all cores)", "N");
    o.flag("metrics", "collect per-point metrics snapshots");
    tuning::addSelectionOpts(o);
    o.parse(argc, argv);

    BenchOptions out;
    out.quick = o.has("quick");
    out.csv_dir = o.get("csv");
    long long jobs = o.getInt("jobs", 0);
    if (o.has("jobs") && jobs < 1)
        fatal("bad value for --jobs: want a positive integer");
    out.jobs = static_cast<int>(jobs);
    out.metrics = o.has("metrics");
    out.algo = tuning::algoOpt(o);
    out.selection = o.get("selection");
    return out;
}

void
BenchOptions::applySelection(machine::MachineConfig &cfg) const
{
    if (!selection.empty())
        tuning::attachSelection(cfg, selection);
}

SweepSession::SweepSession(const BenchOptions &opts,
                           harness::MeasureOptions mopt)
    : runner_(opts.jobs), mopt_(mopt)
{
    mopt_.metrics = mopt_.metrics || opts.metrics;
}

SweepSession::Key
SweepSession::key(const machine::MachineConfig &cfg, int p,
                  machine::Coll op, Bytes m, machine::Algo algo,
                  const std::string &tag)
{
    return {cfg.name + "\x1f" + tag, p, static_cast<int>(op), m,
            static_cast<int>(algo)};
}

void
SweepSession::add(const machine::MachineConfig &cfg, int p,
                  machine::Coll op, Bytes m, machine::Algo algo,
                  const std::string &tag)
{
    if (ran_)
        panic("SweepSession::add: session already ran");
    auto [it, inserted] =
        index_.try_emplace(key(cfg, p, op, m, algo, tag),
                           points_.size());
    if (!inserted)
        return;
    harness::SweepPoint pt;
    pt.cfg = cfg;
    pt.p = p;
    pt.op = op;
    pt.m = m;
    pt.algo = algo;
    pt.options = mopt_;
    // Per-point fault universe, salted by declaration order — the
    // same scheme SweepSpec::expand() uses, so results don't depend
    // on the worker pool's schedule.
    if (pt.cfg.fault.enabled())
        pt.cfg.fault.seed =
            fault::mixSeed(pt.cfg.fault.seed, points_.size());
    points_.push_back(std::move(pt));
}

void
SweepSession::addStartup(const machine::MachineConfig &cfg, int p,
                         machine::Coll op, machine::Algo algo,
                         const std::string &tag)
{
    Bytes m = op == machine::Coll::Barrier
                  ? 0
                  : harness::kStartupMessageBytes;
    add(cfg, p, op, m, algo, tag);
}

void
SweepSession::run()
{
    if (ran_)
        panic("SweepSession::run: session already ran");
    results_ = runner_.run(points_);
    ran_ = true;
}

const harness::Measurement &
SweepSession::get(const machine::MachineConfig &cfg, int p,
                  machine::Coll op, Bytes m, machine::Algo algo,
                  const std::string &tag) const
{
    if (!ran_)
        panic("SweepSession::get before run()");
    auto it = index_.find(key(cfg, p, op, m, algo, tag));
    if (it == index_.end())
        panic("SweepSession::get: point %s p=%d m=%lld was never "
              "add()ed", cfg.name.c_str(), p,
              static_cast<long long>(m));
    return results_[it->second];
}

const harness::Measurement &
SweepSession::getStartup(const machine::MachineConfig &cfg, int p,
                         machine::Coll op, machine::Algo algo,
                         const std::string &tag) const
{
    Bytes m = op == machine::Coll::Barrier
                  ? 0
                  : harness::kStartupMessageBytes;
    return get(cfg, p, op, m, algo, tag);
}

const harness::SweepRunner::Stats &
SweepSession::stats() const
{
    return runner_.lastStats();
}

stats::MetricsSnapshot
SweepSession::mergedMetrics() const
{
    if (!ran_)
        panic("SweepSession::mergedMetrics before run()");
    stats::MetricsSnapshot merged;
    // Declaration order == results_ order: the merge is identical at
    // any --jobs level.
    for (const auto &r : results_)
        merged.merge(r.metrics);
    return merged;
}

std::vector<int>
sweepSizes(const std::string &machine, bool quick)
{
    std::vector<int> sizes = harness::paperMachineSizes(machine);
    if (quick) {
        // Keep the shape visible but cap the cost.
        std::vector<int> trimmed;
        for (int p : sizes)
            if (p <= 16)
                trimmed.push_back(p);
        return trimmed;
    }
    return sizes;
}

std::vector<Bytes>
sweepLengths(bool quick)
{
    std::vector<Bytes> all = harness::paperMessageLengths();
    if (quick) {
        std::vector<Bytes> trimmed;
        for (Bytes m : all)
            if (m <= 1024)
                trimmed.push_back(m);
        return trimmed;
    }
    return all;
}

std::string
usCell(double us)
{
    char buf[48];
    if (us >= 10000)
        std::snprintf(buf, sizeof(buf), "%.0f", us);
    else if (us >= 100)
        std::snprintf(buf, sizeof(buf), "%.1f", us);
    else
        std::snprintf(buf, sizeof(buf), "%.2f", us);
    return buf;
}

std::string
paperUsCell(const std::string &machine, machine::Coll op, Bytes m,
            int p)
{
    if (!model::paper::hasExpression(machine, op))
        return "-";
    return usCell(model::paper::expression(machine, op).evalUs(m, p));
}

void
maybeWriteCsv(const BenchOptions &opts, const std::string &name,
              const std::vector<std::string> &header,
              const std::vector<std::vector<std::string>> &rows)
{
    if (opts.csv_dir.empty())
        return;
    std::filesystem::create_directories(opts.csv_dir);
    std::string path = opts.csv_dir + "/" + name + ".csv";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    CsvWriter w(out);
    w.row(header);
    for (const auto &r : rows)
        w.row(r);
    inform("wrote %s", path.c_str());
}

void
printBanner(const std::string &title, const std::string &what)
{
    std::printf("========================================================"
                "========\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("Reproduces: Hwang, Wang & Wang, \"Evaluating MPI "
                "Collective\nCommunication on the SP2, T3D, and Paragon "
                "Multicomputers\",\nHPCA-3, 1997.\n");
    std::printf("========================================================"
                "========\n\n");
}

} // namespace ccsim::bench
