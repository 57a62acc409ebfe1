#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "machine/machine.hh"
#include "mpi/comm.hh"
#include "tuning/selection_table.hh"
#include "util/stats.hh"

namespace ccsim::perf {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

namespace {

/** One kernel run: four independent xorshift streams, which keep the
 *  integer units busy the way the simulator's code does. */
constexpr int kKernelIters = 100000;

/** A kernel run's time on the idle benchmark host (README.md,
 *  Baseline), in ns.  Fixed, so that every run and every commit
 *  divides by the same number. */
constexpr double kIdleKernelNs = 250000;

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** One kernel run's slowdown.  It counts the CPU time of the calling
 *  thread, so time the thread waited for the CPU is left out. */
double
kernelSlowdown()
{
    std::uint64_t x[4] = {1, 2, 3, 4};
    const std::int64_t t0 = threadCpuNs();
    for (int i = 0; i < kKernelIters; ++i)
        for (std::uint64_t &v : x) {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            // One register per stream: no vector code, whatever the
            // compiler, so the kernel is the same on every build.
            asm volatile("" : "+r"(v));
        }
    const auto ns = static_cast<double>(threadCpuNs() - t0);
    asm volatile("" : : "r"(x[0] ^ x[1] ^ x[2] ^ x[3]));
    return ns / kIdleKernelNs;
}

} // namespace

void
HostSpeed::poll()
{
    if (!samples_.empty() && nowNs() - last_ < kPeriodNs)
        return;
    samples_.push_back(kernelSlowdown());
    last_ = nowNs();
}

double
HostSpeed::slowdown()
{
    if (samples_.empty())
        poll();
    const std::size_t n = std::min(samples_.size(), kRecent);
    return median({samples_.end() - static_cast<std::ptrdiff_t>(n),
                   samples_.end()});
}

double
HostSpeed::overall() const
{
    return median(samples_);
}

double
slowdownHere()
{
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i)
        runs.push_back(kernelSlowdown());
    return median(runs);
}

IdleSampler::IdleSampler(int cpu)
    : thread_([this, cpu] {
          pinSelf(cpu);
          // At normal priority the sampler would take the CPU from the
          // threads it measures; without idle priority it does not run.
          sched_param param{};
          if (sched_setscheduler(0, SCHED_IDLE, &param) != 0)
              return;
          while (!stop_.load(std::memory_order_relaxed)) {
              const double s = kernelSlowdown();
              std::lock_guard<std::mutex> lock(mu_);
              samples_.emplace_back(nowNs(), s);
          }
      })
{
}

IdleSampler::~IdleSampler()
{
    stop_ = true;
    thread_.join();
}

std::int64_t
IdleSampler::mark() const
{
    std::this_thread::sleep_for(std::chrono::nanoseconds(kGapNs));
    return nowNs();
}

double
IdleSampler::slowdown(std::int64_t from, std::int64_t to) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    int n = 0;
    for (const auto &[t, s] : samples_)
        if (t >= from - kGapNs && t <= to) {
            sum += s;
            ++n;
        }
    return n > 0 ? sum / n : 1.0;
}

double
IdleSampler::overall() const
{
    std::vector<double> all;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &sample : samples_)
            all.push_back(sample.second);
    }
    return median(all);
}

void
pinSelf(int cpu)
{
    if (std::thread::hardware_concurrency() < 3)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void
Result::set(const std::string &name, double value, const char *unit)
{
    metrics[name] = Metric{value, unit};
}

void
Result::phase(const std::string &name, double wall_s)
{
    phases.emplace_back(name, wall_s);
}

void
Result::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

void
Result::check(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok)
        fail(why);
}

Tracer::Scope::Scope(Tracer *t, const char *name, std::uint64_t op)
    : t_(t)
{
    if (t_)
        idx_ = t_->begin(name, op);
}

Tracer::Scope::~Scope()
{
    if (t_)
        t_->end(idx_);
}

std::int32_t
Tracer::begin(const std::string &name, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(std::move(s));
    open_.push_back(idx);
    spans_.back().start = nowNs();
    return idx;
}

void
Tracer::end(std::int32_t idx)
{
    spans_[static_cast<std::size_t>(idx)].end = nowNs();
    if (!open_.empty() && open_.back() == idx)
        open_.pop_back();
}

void
Tracer::adopt(Span s, std::int32_t parent_offset)
{
    if (s.parent >= 0)
        s.parent += parent_offset;
    else if (!open_.empty())
        s.parent = open_.back();
    spans_.push_back(std::move(s));
}

namespace {

/** Time covered by each span's direct children. */
std::vector<double>
childNs(const std::deque<Tracer::Span> &spans)
{
    std::vector<double> out(spans.size(), 0.0);
    for (const Tracer::Span &s : spans)
        if (s.parent >= 0)
            out[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end - s.start);
    return out;
}

} // namespace

std::map<std::string, Tracer::Layer>
Tracer::layers() const
{
    const std::vector<double> child_ns = childNs(spans_);
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = static_cast<double>(s.end - s.start);
        Layer &l = out[s.name];
        ++l.count;
        l.busy_ns += dur;
        l.self_ns += dur - child_ns[i];
    }
    return out;
}

double
Tracer::coverage(const std::string &name, double q) const
{
    const std::vector<double> child_ns = childNs(spans_);
    std::vector<double> shares;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.name == name)
            shares.push_back(child_ns[i] /
                             static_cast<double>(std::max<std::int64_t>(
                                 s.end - s.start, 1)));
    }
    return quantile(std::move(shares), q);
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"op\":%" PRIu64 ",\"parent\":%d}}\n",
                     i ? "," : "", s.name.c_str(),
                     s.name.substr(0, s.name.find('.')).c_str(),
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, s.op,
                     s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ULL;
    }
    h_ ^= '\n';
    h_ *= 1099511628211ULL;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
}

long
currentRssKb()
{
    long pages_total = 0, pages_res = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_res) != 2)
        pages_res = 0;
    std::fclose(f);
    return pages_res * (sysconf(_SC_PAGESIZE) / 1024);
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n)
{
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = total;
    }
    for (double &c : cdf_)
        c /= total;
}

std::size_t
Zipf::operator()(Rng &rng) const
{
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(),
                               rng.nextDouble());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

harness::MeasureOptions
benchOptions()
{
    harness::MeasureOptions o;
    o.iterations = 3;
    o.repetitions = 1;
    o.warmup = 1;
    return o;
}

PointRun
drivePoint(const machine::MachineConfig &cfg, int p, machine::Coll op,
           Bytes m, const harness::MeasureOptions &opt, bool metrics,
           Tracer *tr, std::uint64_t op_id)
{
    Tracer::Scope point(tr, "harness.point", op_id);
    machine::Algo algo = machine::Algo::Auto;
    {
        Tracer::Scope s(tr, "tuning.resolve", op_id);
        algo = tuning::resolveAlgo(cfg, op, p, m, algo);
    }

    std::optional<machine::Machine> mach;
    {
        Tracer::Scope s(tr, "machine.build", op_id);
        auto run_cfg = std::make_shared<machine::MachineConfig>(cfg);
        run_cfg->collect_metrics = metrics;
        mach.emplace(machine::ConfigHandle(std::move(run_cfg)), p);
    }

    // local[rep][rank], exactly as measureCollective keeps them.
    std::vector<std::vector<Time>> local;
    auto program = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(*mach, rank);
        co_await comm.compute(0);
        for (int w = 0; w < opt.warmup; ++w)
            co_await harness::runCollectiveOnce(comm, op, m, algo);
        for (int rep = 0; rep < opt.repetitions; ++rep) {
            co_await comm.barrier(machine::Algo::Default);
            Time start = mach->sim().now();
            for (int i = 0; i < opt.iterations; ++i)
                co_await harness::runCollectiveOnce(comm, op, m, algo);
            local[static_cast<std::size_t>(rep)]
                 [static_cast<std::size_t>(rank)] =
                (mach->sim().now() - start) / opt.iterations;
        }
    };
    {
        Tracer::Scope s(tr, "mpi.spawn", op_id);
        local.assign(static_cast<std::size_t>(opt.repetitions),
                     std::vector<Time>(static_cast<std::size_t>(p), 0));
        // The factory must call `program` itself: the coroutine frames
        // refer to this closure, which outlives the run.
        mach->spawnAll([&](int rank) { return program(rank); });
    }
    {
        Tracer::Scope s(tr, "sim.run", op_id);
        mach->run();
    }

    PointRun out;
    {
        // communication-time = maximum-reduce(local-time), averaged
        // over the repetitions.
        Tracer::Scope s(tr, "harness.reduce", op_id);
        RunningStats max_s;
        for (const auto &rep : local)
            max_s.add(static_cast<double>(
                *std::max_element(rep.begin(), rep.end())));
        out.max_time = static_cast<Time>(max_s.mean());
        out.events = mach->sim().eventsFired();
    }
    if (metrics) {
        Tracer::Scope s(tr, "stats.snapshot", op_id);
        out.metrics = mach->metricsSnapshot();
    }
    {
        Tracer::Scope s(tr, "machine.teardown", op_id);
        mach.reset();
    }
    return out;
}

void
LayerCounters::add(const stats::MetricsSnapshot &s)
{
    for (const auto &[name, v] : s.counters)
        counters_[name] += v;
    auto gauge = [&](const char *name) {
        auto it = s.gauges.find(name);
        return it == s.gauges.end() ? 0.0 : it->second;
    };
    unexpected_hw_ = std::max(unexpected_hw_,
                              gauge("msg.unexpected_queue"));
    queue_depth_hw_ = std::max(queue_depth_hw_,
                               gauge("sim.event_queue_depth"));
    max_link_util_ = std::max(max_link_util_, s.maxLinkUtil());
    stall_us_ += s.totalStallUs();
}

std::uint64_t
LayerCounters::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
LayerCounters::report(Result &r) const
{
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double eager = static_cast<double>(counter("msg.sends.eager"));
    const double rdv = static_cast<double>(counter("msg.sends.rdv"));
    const double sends =
        eager + rdv + static_cast<double>(counter("msg.sends.self") +
                                          counter("msg.sends.blt"));
    const double messages = static_cast<double>(counter("net.messages"));
    std::uint64_t coll_msgs = 0, coll_stages = 0;
    for (const auto &[name, v] : counters_) {
        if (name.rfind("coll.", 0) != 0)
            continue;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".msgs") == 0)
            coll_msgs += v;
        else if (name.size() > 7 &&
                 name.compare(name.size() - 7, 7, ".stages") == 0)
            coll_stages += v;
    }

    r.set("sim.events", static_cast<double>(counter("sim.events")),
          "count");
    r.set("sim.tasks", static_cast<double>(counter("sim.tasks")),
          "count");
    r.set("sim.event_queue_depth", queue_depth_hw_, "count");
    r.set("msg.sends", sends, "count");
    r.set("msg.rdv_ratio", ratio(rdv, eager + rdv), "ratio");
    r.set("msg.unexpected_queue", unexpected_hw_, "count");
    r.set("msg.pool.reuse_ratio",
          ratio(static_cast<double>(counter("msg.pool.reuses")),
                static_cast<double>(counter("msg.pool.allocs"))),
          "ratio");
    r.set("net.messages", messages, "count");
    r.set("net.hops_per_walk",
          ratio(static_cast<double>(counter("net.route.hops")),
                static_cast<double>(counter("net.route.walks"))),
          "hops");
    r.set("net.stalled_ratio",
          ratio(static_cast<double>(counter("net.stalled_transfers")),
                messages),
          "ratio");
    r.set("net.stall_us", stall_us_, "us");
    r.set("net.max_link_util", max_link_util_, "ratio");
    r.set("mpi.coll_msgs", static_cast<double>(coll_msgs), "count");
    r.set("mpi.coll_stages", static_cast<double>(coll_stages), "count");
    r.set("fault.retransmit_ratio",
          ratio(static_cast<double>(counter("fault.retransmits")),
                messages),
          "ratio");
    r.set("fault.reroutes", static_cast<double>(counter("fault.reroutes")),
          "count");
    r.set("fault.absorbed", static_cast<double>(counter("fault.absorbed")),
          "count");
}

void
reportSpanMean(Result &r,
               const std::map<std::string, Tracer::Layer> &layers,
               const std::string &span, const std::string &metric)
{
    auto it = layers.find(span);
    if (it != layers.end() && it->second.count > 0)
        r.set(metric,
              it->second.busy_ns / static_cast<double>(it->second.count),
              "ns");
}

void
checkDigest(const RunConfig &cfg, Result &r, bool seed_independent)
{
    const std::string dir = CCSIM_PERF_EXPECTED_DIR;
    auto path = [&](std::uint64_t seed) {
        return dir + "/" + cfg.workload + "." + std::to_string(seed) +
               ".digest";
    };
    if (cfg.bless) {
        std::ofstream(path(cfg.seed)) << r.digest << "\n";
        r.digest_status = "blessed";
        return;
    }
    std::ifstream in(path(cfg.seed));
    if (!in && seed_independent)
        in = std::ifstream(path(1));
    std::string expected;
    if (!(in >> expected)) {
        // Seeds without a committed digest rely on the workload's
        // reference checks alone.
        r.digest_status = "no-reference";
        return;
    }
    ++r.attempted;
    if (expected == r.digest) {
        r.digest_status = "match";
    } else {
        r.digest_status = "mismatch";
        r.fail("digest " + r.digest + " != expected " + expected);
    }
}

} // namespace ccsim::perf
