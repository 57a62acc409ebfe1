/**
 * @file
 * scale_out: five large points, each in a forked child.
 *
 * Machine build and the memo do almost nothing here; the route walk,
 * link reservation, event queue and per-rank state dominate.  Each
 * point runs in its own child process so its peak RSS is its own,
 * which gives memory per simulated rank.  The points go through the
 * public layers (drivePoint), so no memo is involved.  The seed
 * shuffles the point order only.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "machine/config_io.hh"
#include "machine/machine.hh"

namespace ccsim::perf {

namespace {

using machine::Coll;

/** Rounds of every point at most.  The points run round robin; the
 *  first round's time sets how many rounds fill the budget, so every
 *  point runs equally often.  A large point's time varies by about
 *  15 % from one run to the next however steady the host's ALU speed,
 *  so it needs the repeats; a point's time is the mean of its runs,
 *  which with three runs varies less than their median. */
constexpr std::size_t kMaxRounds = 5;

struct BigPoint
{
    const char *name;
    const char *preset;
    const char *topo; //!< "" = the preset's own topology
    Coll op;
    int p;
    Bytes m;
};

constexpr BigPoint kPoints[] = {
    {"t3d_torus3d_alltoall_p512", "T3D", "", Coll::Alltoall, 512, 4096},
    {"sp2_fattree_barrier_p16384", "SP2", "fattree", Coll::Barrier, 16384,
     0},
    {"sp2_fattree_allreduce_p4096", "SP2", "fattree", Coll::Allreduce,
     4096, 16384},
    {"paragon_mesh2d_bcast_p4096", "Paragon", "", Coll::Bcast, 4096, 4096},
    {"sp2_dragonfly_alltoall_p256", "SP2", "dragonfly", Coll::Alltoall,
     256, 1024},
};

/** Smoke mode shrinks every machine by this factor. */
constexpr int kQuickDivisor = 16;

struct Job
{
    const BigPoint *pt = nullptr;
    machine::MachineConfig cfg;
    int p = 0;
};

/** What a child reports, parsed from its pipe. */
struct ChildOut
{
    bool ok = false;
    long maxrss_kb = 0;
    std::map<std::string, double> values;
    stats::MetricsSnapshot snap;
    std::vector<Tracer::Span> spans;
    std::string error;
};

/**
 * Run @p body in a forked child that writes its report to a pipe,
 * and wait for it.  The child's peak RSS comes from wait4.
 */
template <typename F>
ChildOut
inChild(F body)
{
    ChildOut out;
    int fds[2];
    if (pipe(fds) != 0) {
        out.error = "pipe failed";
        return out;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        out.error = "fork failed";
        return out;
    }
    if (pid == 0) {
        close(fds[0]);
        std::string report;
        int code = 0;
        try {
            report = body();
        } catch (const std::exception &e) {
            report = std::string("error ") + e.what() + "\n";
            code = 1;
        }
        std::size_t off = 0;
        while (off < report.size()) {
            ssize_t w = write(fds[1], report.data() + off,
                              report.size() - off);
            if (w <= 0)
                break;
            off += static_cast<std::size_t>(w);
        }
        _exit(code);
    }
    close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    out.maxrss_kb = ru.ru_maxrss;
    out.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;

    std::istringstream in(text);
    std::string kind;
    while (in >> kind) {
        if (kind == "v") {
            std::string k;
            double v = 0;
            in >> k >> v;
            out.values[k] = v;
        } else if (kind == "c") {
            std::string k;
            std::uint64_t v = 0;
            in >> k >> v;
            out.snap.counters[k] = v;
        } else if (kind == "g") {
            std::string k;
            double v = 0;
            in >> k >> v;
            out.snap.gauges[k] = v;
        } else if (kind == "l") {
            stats::LinkRow row;
            in >> row.util >> row.stall_us;
            out.snap.links.push_back(row);
        } else if (kind == "s") {
            Tracer::Span s;
            in >> s.name >> s.start >> s.end >> s.parent >> s.op;
            out.spans.push_back(s);
        } else if (kind == "error") {
            std::getline(in, out.error);
        }
    }
    if (!out.ok && out.error.empty())
        out.error = "child exited with status " + std::to_string(status);
    return out;
}

/** One point in the child: times the drive, reports its outputs. */
std::string
childPoint(const Job &job, bool trace)
{
    std::ostringstream os;
    os.precision(17);
    const long start_rss = currentRssKb();
    Tracer tracer;
    // The host's speed on either side of the point; a phase that
    // starts or ends during it counts about half.
    const double before = slowdownHere();
    const std::int64_t t0 = nowNs();
    PointRun pr = drivePoint(job.cfg, job.p, job.pt->op, job.pt->m,
                             benchOptions(), trace,
                             trace ? &tracer : nullptr);
    const std::int64_t host_ns = nowNs() - t0;
    const double slowdown = (before + slowdownHere()) / 2;
    os << "v max_time " << pr.max_time << "\nv events " << pr.events
       << "\nv host_ns " << host_ns << "\nv slowdown " << slowdown
       << "\nv start_rss_kb " << start_rss << "\n";
    if (trace) {
        for (const auto &[k, v] : pr.metrics.counters)
            os << "c " << k << " " << v << "\n";
        for (const auto &[k, v] : pr.metrics.gauges)
            os << "g " << k << " " << v << "\n";
        os << "l " << pr.metrics.maxLinkUtil() << " "
           << pr.metrics.totalStallUs() << "\n";
        for (const auto &s : tracer.spans())
            os << "s " << s.name << " " << s.start << " " << s.end << " "
               << s.parent << " " << s.op << "\n";
    }
    return os.str();
}

/** Set-up in a fresh child: construct every point's Machine once. */
std::string
childSetup(const std::vector<Job> &jobs)
{
    const double slowdown = slowdownHere();
    std::int64_t total = 0;
    for (const Job &job : jobs) {
        auto cfg = std::make_shared<const machine::MachineConfig>(job.cfg);
        const std::int64_t t0 = nowNs();
        machine::Machine mach(cfg, job.p);
        total += nowNs() - t0;
    }
    std::ostringstream os;
    os.precision(17);
    os << "v setup_s " << static_cast<double>(total) * 1e-9 / slowdown
       << "\nv slowdown " << slowdown << "\n";
    return os.str();
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

} // namespace

void
runScaleOut(const RunConfig &cfg, Result &r, Tracer *tr)
{
    std::vector<Job> jobs;
    for (const BigPoint &pt : kPoints) {
        Job j;
        j.pt = &pt;
        j.cfg = machine::presetByName(pt.preset);
        j.cfg.topo_spec = pt.topo;
        j.p = cfg.quick ? pt.p / kQuickDivisor : pt.p;
        jobs.push_back(std::move(j));
    }
    Rng rng(subSeed(cfg.seed, 2));
    shuffle(jobs, rng);
    long peak_kb = 0;

    // Set-up is sampled before every point run, so the samples spread
    // across the run; the median is reported.
    std::vector<double> setup_s, slowdowns;
    double setup_wall = 0;
    auto setUp = [&] {
        const std::int64_t t0 = nowNs();
        ChildOut c = inChild([&] { return childSetup(jobs); });
        r.check(c.ok, "setup child: " + c.error);
        peak_kb = std::max(peak_kb, c.maxrss_kb);
        setup_s.push_back(c.values["setup_s"]);
        slowdowns.push_back(c.values["slowdown"]);
        setup_wall += secondsSince(t0);
    };

    const std::size_t n = jobs.size();
    std::vector<Time> max_time(n, 0);
    std::vector<double> events(n, 0);
    std::vector<std::vector<double>> host_s(n), kb_rank(n);
    const std::int64_t start = nowNs();
    std::vector<bool> failed(n, false);
    std::size_t rounds = 1;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            const Job &job = jobs[i];
            if (failed[i])
                continue;
            setUp();
            ChildOut c = inChild([&] { return childPoint(job, false); });
            r.check(c.ok, std::string(job.pt->name) + ": " + c.error);
            if (!c.ok) {
                failed[i] = true;
                continue;
            }
            peak_kb = std::max(peak_kb, c.maxrss_kb);
            const auto t = static_cast<Time>(c.values["max_time"]);
            if (round == 0)
                max_time[i] = t;
            else if (t != max_time[i])
                r.fail(std::string(job.pt->name) + ": runs disagree");
            events[i] = c.values["events"];
            slowdowns.push_back(c.values["slowdown"]);
            host_s[i].push_back(c.values["host_ns"] * 1e-9 /
                                slowdowns.back());
            kb_rank[i].push_back(
                static_cast<double>(c.maxrss_kb -
                                    static_cast<long>(
                                        c.values["start_rss_kb"])) /
                job.p);
        }
        if (round == 0) {
            // The traced pass afterwards takes about one more round.
            const double round_s = secondsSince(start);
            const double budget_s =
                std::max(0.0, cfg.seconds - (tr ? round_s : 0.0));
            rounds = std::clamp<std::size_t>(
                static_cast<std::size_t>(std::lround(budget_s / round_s)),
                1, kMaxRounds);
        }
    }
    r.phase("setup", setup_wall);
    r.phase("points", secondsSince(start) - setup_wall);

    // Per-point means.  The rates are geometric means over points,
    // as for any suite of unlike jobs: the 16384-rank barrier, which
    // takes half of a round and is the noisiest, counts as one point
    // of five, not as half of the result.
    std::vector<double> lat_us, kb_medians, rates, ns_per_event;
    double round_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string prefix =
            std::string("scale_out.") + jobs[i].pt->name;
        const double host = mean(host_s[i]);
        r.set(prefix + ".host_s", host, "s");
        r.set(prefix + ".kb_per_rank", median(kb_rank[i]), "kB");
        kb_medians.push_back(median(kb_rank[i]));
        lat_us.push_back(host * 1e6);
        rates.push_back(1.0 / host);
        ns_per_event.push_back(host * 1e9 / events[i]);
        round_s += host;
    }
    r.set("setup_s", median(setup_s), "s");
    r.set("bench.host_slowdown", median(slowdowns), "ratio");
    r.set("ops_per_s", geomean(rates), "op/s");
    r.set("latency_p50_us", quantile(lat_us, 0.50), "us");
    r.set("latency_p90_us", quantile(lat_us, 0.90), "us");
    r.set("ns_per_event", geomean(ns_per_event), "ns");
    r.set("bench.latency_p99_us", quantile(lat_us, 0.99), "us");
    r.set("bench.latency_samples", static_cast<double>(lat_us.size()),
          "count");
    r.set("bench.rss_kb_per_rank", geomean(kb_medians), "kB");

    if (tr) {
        const std::int64_t traced_start = nowNs();
        LayerCounters counters;
        double traced_host = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Job &job = jobs[i];
            ChildOut c = inChild([&] { return childPoint(job, true); });
            r.check(c.ok, std::string(job.pt->name) + " traced: " +
                              c.error);
            if (!c.ok)
                continue;
            peak_kb = std::max(peak_kb, c.maxrss_kb);
            r.check(static_cast<Time>(c.values["max_time"]) == max_time[i],
                    std::string(job.pt->name) + ": traced drive differs");
            traced_host += c.values["host_ns"] * 1e-9 / c.values["slowdown"];
            counters.add(c.snap);
            const auto offset = static_cast<std::int32_t>(tr->spans().size());
            for (auto &s : c.spans)
                tr->adopt(std::move(s), offset);
        }
        r.phase("traced", secondsSince(traced_start));
        const auto layers = tr->layers();
        reportSpanMean(r, layers, "machine.build", "machine.build_ns");
        reportSpanMean(r, layers, "sim.run", "sim.run_ns");
        reportSpanMean(r, layers, "stats.snapshot", "stats.snapshot_ns");
        r.set("machine.build_share",
              layers.at("machine.build").busy_ns /
                  layers.at("harness.point").busy_ns,
              "ratio");
        r.set("bench.span_coverage_p01",
              tr->coverage("harness.point", 0.01), "ratio");
        r.set("bench.trace_overhead", traced_host / round_s, "ratio");
        counters.report(r);
    }
    r.set("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB");

    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i)
        lines.push_back(std::string(jobs[i].pt->name) + " p=" +
                        std::to_string(jobs[i].p) + " " +
                        std::to_string(max_time[i]));
    std::sort(lines.begin(), lines.end());
    Digest d;
    for (const auto &l : lines)
        d.add(l);
    r.digest = d.hex();
    if (cfg.quick)
        r.digest_status = "skipped (quick inputs)";
    else
        checkDigest(cfg, r, true);
}

} // namespace ccsim::perf
