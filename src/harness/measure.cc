#include "harness/measure.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "model/fit.hh"
#include "tuning/selection_table.hh"
#include "util/error.hh"
#include "util/field.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace ccsim::harness {

namespace {

using machine::Algo;
using machine::Coll;

/**
 * The measureCollective memo cache (Layer 3 of the hot-path work,
 * DESIGN.md §4.11).  Keyed on a canonical serialization of every
 * input that can influence the measured times: every persisted field
 * of the MachineConfig (its field walk) plus the point coordinates
 * and the Section 2 procedure knobs.  The config's *name* is excluded
 * on purpose — two identically-parameterized machines are the same
 * machine.  A point is only eligible when faults and skew are off
 * (the skew seed is outside the key, and a cached value carries no
 * fault counters); an experiment confirmed that per-iteration times
 * within a point are NOT invariant — warm-up and pipelining effects
 * differ — so memoization is whole-point only; see DESIGN.md.
 *
 * Cached values hold just the three reported times: fault counters
 * are zero and the metrics snapshot empty for every eligible point,
 * so a rebuilt Measurement is byte-identical to a simulated one.
 *
 * It is also the `ccsim serve` daemon's answer tier, which bounds
 * and persists it.  The bound's recency list runs through the values:
 * unordered_map nodes never move, so an insert allocates only the key
 * and the node.
 */
struct MemoValue;
using MemoEntry = std::pair<const std::string, MemoValue>;

struct MemoValue
{
    Time max_time = 0;
    Time min_time = 0;
    Time mean_time = 0;
    MemoEntry *hotter = nullptr; //!< next more recently used entry
    MemoEntry *colder = nullptr; //!< next less recently used entry
};

/** The store; every member function runs with mu held. */
struct MemoCache
{
    std::mutex mu;
    std::unordered_map<std::string, MemoValue> map;
    MemoEntry *hottest = nullptr;
    MemoEntry *coldest = nullptr;
    std::size_t max_entries = 0; //!< 0 = unbounded
    MemoStats stats;

    void
    unlink(MemoEntry &e)
    {
        MemoValue &v = e.second;
        (v.hotter ? v.hotter->second.colder : hottest) = v.colder;
        (v.colder ? v.colder->second.hotter : coldest) = v.hotter;
    }

    /** Make @p e the most recently used entry; @p fresh when it is
     *  not linked yet. */
    void
    touch(MemoEntry &e, bool fresh = false)
    {
        if (!fresh)
            unlink(e);
        e.second.hotter = nullptr;
        e.second.colder = hottest;
        (hottest ? hottest->second.hotter : coldest) = &e;
        hottest = &e;
    }

    void
    evictOverflow()
    {
        while (max_entries > 0 && map.size() > max_entries) {
            MemoEntry &victim = *coldest;
            unlink(victim);
            map.erase(map.find(victim.first));
            ++stats.evictions;
        }
    }

    /** Store @p v under @p key as the most recently used entry.  A key
     *  already present keeps its value: the point is deterministic. */
    void
    insert(std::string key, const MemoValue &v)
    {
        auto [it, fresh] = map.try_emplace(std::move(key), v);
        touch(*it, fresh);
        evictOverflow();
    }
};

MemoCache &
memoCache()
{
    static MemoCache cache;
    return cache;
}

/** A point's Measurement from its coordinates and three times: how a
 *  simulation and a memo hit both build theirs, so they agree byte
 *  for byte. */
Measurement
pointResult(const machine::MachineConfig &cfg, int p, Coll op, Bytes m,
            Algo algo, const MemoValue &times)
{
    Measurement out;
    out.machine = cfg.name;
    out.op = op;
    out.algo = algo;
    out.m = m;
    out.p = p;
    out.max_time = times.max_time;
    out.min_time = times.min_time;
    out.mean_time = times.mean_time;
    return out;
}

bool
memoEligible(const machine::MachineConfig &cfg,
             const MeasureOptions &opt)
{
    // Call listeners and traces need no eligibility bit:
    // measureCollective builds its own Machine from cfg and never
    // attaches one, so no observer can differ between a cached and a
    // re-simulated point.
    return opt.memoize && !cfg.fault.enabled() && opt.max_skew == 0 &&
           !opt.metrics && !cfg.collect_metrics;
}

/**
 * The memo key's field encoder.  Every field is written straight into
 * a per-thread scratch buffer and closed by '|', with no formatting
 * engine and no std::string call per field (the key is built on every
 * memo lookup and every serve request):
 *
 *  - integers and enums in decimal (std::to_chars);
 *  - doubles as the 16 hex digits of their IEEE-754 bit pattern —
 *    fixed width, and injective where "%.17g" is merely round-trip
 *    exact (it folds every NaN payload into "nan"); -0.0 and 0.0 stay
 *    distinct;
 *  - strings length-prefixed ("<len>:<bytes>"), so no spec string
 *    can forge a field boundary.
 *
 * Each field is self-delimiting given the fields before it (the
 * field walk's fixed order and its presence marks), so distinct
 * inputs always give distinct keys.
 */
class KeyWriter
{
  public:
    /** Starts the key with its version tag, kPointKeyVersion. */
    explicit KeyWriter(std::string &scratch)
        : buf_(scratch), at_(scratch.data()),
          end_(scratch.data() + scratch.size())
    {
        const std::string_view tag = kPointKeyVersion;
        room(tag.size() + 1);
        at_ = std::copy(tag.begin(), tag.end(), at_);
        *at_++ = '|';
    }

    template <std::integral I>
        requires(!std::same_as<I, bool>)
    void
    put(I v)
    {
        room(kMaxDecimal + 1);
        at_ = std::to_chars(at_, at_ + kMaxDecimal, v).ptr;
        *at_++ = '|';
    }

    template <class E>
        requires std::is_enum_v<E>
    void
    put(E v)
    {
        put(static_cast<std::int64_t>(v));
    }

    void
    put(bool v)
    {
        room(2);
        *at_++ = v ? '1' : '0';
        *at_++ = '|';
    }

    void
    put(double v)
    {
        static constexpr char kHex[] = "0123456789abcdef";
        room(17);
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 16; ++i)
            at_[i] = kHex[(bits >> (60 - 4 * i)) & 0xf];
        at_[16] = '|';
        at_ += 17;
    }

    void
    put(std::string_view s)
    {
        room(kMaxDecimal + s.size() + 2);
        at_ = std::to_chars(at_, at_ + kMaxDecimal, s.size()).ptr;
        *at_++ = ':';
        at_ = std::copy(s.begin(), s.end(), at_);
        *at_++ = '|';
    }

    /** The key so far, as an exact-size string. */
    std::string str() const { return std::string(buf_.data(), at_); }

  private:
    static constexpr std::size_t kMaxDecimal = 20; //!< digits + sign

    /** Make room for @p n more bytes.  The per-field check reads only
     *  the cursor and the end, so both stay in registers; growing the
     *  scratch buffer is the cold path. */
    void
    room(std::size_t n)
    {
        if (static_cast<std::size_t>(end_ - at_) < n)
            grow(n);
    }

    [[gnu::noinline]] void
    grow(std::size_t n)
    {
        const auto used = static_cast<std::size_t>(at_ - buf_.data());
        buf_.resize(std::max(2 * buf_.size(), used + n));
        at_ = buf_.data() + used;
        end_ = buf_.data() + buf_.size();
    }

    std::string &buf_;
    char *at_;
    char *end_;
};

std::string
memoKey(const machine::MachineConfig &cfg, int p, Coll op, Bytes m,
        Algo algo, const MeasureOptions &opt)
{
    // The memo keeps thousands of keys, so the key leaves the scratch
    // buffer at its exact size.
    thread_local std::string scratch(1024, '\0');
    KeyWriter key(scratch);
    // Everything a saved document holds, in its order, but the
    // display name: two identically parameterized machines are the
    // same machine.  The gates of the blocks a document carries only
    // where they apply are presence marks, and the overrides it omits
    // while unset keep their slots, so the key stays injective.
    machine::forEachField(cfg, [&](const Field &, const auto &v) {
        if (static_cast<const void *>(&v) != &cfg.name)
            key.put(v);
    });

    key.put(p);
    key.put(op);
    key.put(m);
    key.put(algo);
    key.put(opt.iterations);
    key.put(opt.repetitions);
    key.put(opt.warmup);

    return key.str();
}

} // namespace

std::string
measurePointKey(const machine::MachineConfig &cfg, int p, Coll op,
                Bytes m, Algo algo, const MeasureOptions &opt)
{
    if (algo == Algo::Auto)
        algo = tuning::resolveAlgo(cfg, op, p, m, algo);
    return memoKey(cfg, p, op, m, algo, opt);
}

bool
measurePointCacheable(const machine::MachineConfig &cfg,
                      const MeasureOptions &opt)
{
    return memoEligible(cfg, opt);
}

std::optional<Measurement>
memoLookup(const std::string &key, const machine::MachineConfig &cfg,
           int p, Coll op, Bytes m, Algo algo)
{
    MemoCache &c = memoCache();
    std::unique_lock<std::mutex> lock(c.mu);
    auto it = c.map.find(key);
    if (it == c.map.end())
        return std::nullopt;
    ++c.stats.hits;
    c.touch(*it);
    const MemoValue times = it->second;
    lock.unlock();
    return pointResult(cfg, p, op, m, algo, times);
}

MemoStats
memoStats()
{
    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.stats;
}

std::size_t
memoSize()
{
    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.map.size();
}

void
memoClear()
{
    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.map.clear();
    c.hottest = c.coldest = nullptr;
    c.stats = MemoStats{};
}

void
memoSetMaxEntries(std::size_t max)
{
    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.max_entries = max;
    c.evictOverflow();
}

std::size_t
memoMaxEntries()
{
    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.max_entries;
}

namespace {

/**
 * Memo-file header: "<magic> <format> key=<point-key version> <n>",
 * the shape of the daemon's former query-cache file.  Format v3 holds
 * only what the memo keeps, so a v2 file reads as another format.
 */
constexpr const char *kMemoFileMagic = "ccsim-query-cache";
constexpr const char *kMemoFileFormat = "v3";

[[noreturn]] void
badMemoFile(const std::string &path, std::size_t line, const char *what)
{
    throw ConfigError(path + ":" + std::to_string(line) +
                      ": bad cache file: " + what);
}

/** An entry's record line, "max|min|mean". */
MemoValue
parseRecord(const std::string &path, std::size_t line,
            const std::string &rec)
{
    MemoValue v;
    std::size_t at = 0;
    for (Time *t : {&v.max_time, &v.min_time, &v.mean_time}) {
        const std::size_t bar =
            t == &v.mean_time ? rec.size() : rec.find('|', at);
        long long n = 0;
        if (bar == std::string::npos ||
            !parseWhole(std::string_view(rec).substr(at, bar - at), n))
            badMemoFile(path, line, "bad entry record");
        *t = n;
        at = bar + 1;
    }
    return v;
}

} // namespace

std::size_t
memoSave(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw FatalError("cannot write cache file " + path);
    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    std::fprintf(f, "%s %s key=%s %zu\n", kMemoFileMagic,
                 kMemoFileFormat, kPointKeyVersion, c.map.size());
    // Least recently used first, so a load in file order rebuilds the
    // recency and a bound keeps the hottest entries.
    for (const MemoEntry *e = c.coldest; e; e = e->second.hotter)
        std::fprintf(f, "%s\n%" PRId64 "|%" PRId64 "|%" PRId64 "\n",
                     e->first.c_str(), e->second.max_time,
                     e->second.min_time, e->second.mean_time);
    const bool write_failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_failed)
        throw FatalError("write failed for cache file " + path);
    return c.map.size();
}

std::size_t
memoLoad(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return 0; // first start: nothing persisted yet

    std::size_t line = 0;
    auto getLine = [&](std::string &out) {
        if (!std::getline(in, out))
            return false;
        ++line;
        if (!out.empty() && out.back() == '\r')
            out.pop_back();
        return true;
    };

    std::string text;
    if (!getLine(text))
        badMemoFile(path, 1, "empty file");
    std::istringstream header(text);
    std::string magic, format, key_version, extra;
    std::size_t n = 0;
    if (!(header >> magic >> format) || magic != kMemoFileMagic ||
        (format == kMemoFileFormat &&
         (!(header >> key_version >> n) || header >> extra ||
          !key_version.starts_with("key="))))
        badMemoFile(path, line, "bad header");
    if (format != kMemoFileFormat ||
        key_version != std::string("key=") + kPointKeyVersion) {
        // Another build's format or key encoding: not one entry could
        // ever hit, so start cold; the daemon's clean stop rewrites
        // the file.
        warn("%s: cache file of another format or key version (%s); "
             "starting with a cold cache",
             path.c_str(), text.c_str());
        return 0;
    }

    MemoCache &c = memoCache();
    std::lock_guard<std::mutex> lock(c.mu);
    for (std::size_t i = 0; i < n; ++i) {
        std::string key, rec;
        if (!getLine(key) || !getLine(rec))
            badMemoFile(path, line, "truncated entry");
        c.insert(std::move(key), parseRecord(path, line, rec));
    }
    return n;
}

sim::Task<void>
runCollectiveOnce(mpi::Comm &comm, Coll op, Bytes m, Algo algo, int root)
{
    return comm.call(mpi::collOp(op), mpi::CollArgs(m, root, nullptr),
                     algo);
}

namespace {

/**
 * One simulation of one point — the whole pre-ensemble
 * measureCollective, memo cache included.  @p algo must already be
 * resolved (never Auto).
 */
Measurement
measureOnePoint(const machine::MachineConfig &cfg, int p, Coll op,
                Bytes m, Algo algo, const MeasureOptions &opt)
{
    const bool memo = memoEligible(cfg, opt);
    std::string key;
    if (memo) {
        key = memoKey(cfg, p, op, m, algo, opt);
        if (std::optional<Measurement> hit =
                memoLookup(key, cfg, p, op, m, algo))
            return *std::move(hit);
    }

    // One copy of the config (to pin collect_metrics), then a
    // zero-copy shared-handle Machine construction — sweep workers
    // build thousands of Machines, so the old copy-into-Machine
    // second copy was pure overhead.
    auto run_cfg = std::make_shared<machine::MachineConfig>(cfg);
    run_cfg->collect_metrics = cfg.collect_metrics || opt.metrics;
    machine::Machine mach(machine::ConfigHandle(std::move(run_cfg)), p);

    // Per-rank clock-skew offsets (the paper: "allocated nodes are
    // often not time synchronized").
    Rng rng(opt.seed);
    std::vector<Time> skew(static_cast<size_t>(p), 0);
    if (opt.max_skew > 0)
        for (auto &s : skew)
            s = rng.nextRange(0, opt.max_skew);

    // local_times[rep][rank]
    std::vector<std::vector<Time>> local_times(
        static_cast<size_t>(opt.repetitions),
        std::vector<Time>(static_cast<size_t>(p), 0));

    auto program = [&](int rank) -> sim::Task<void> {
        mpi::Comm comm(mach, rank);
        co_await comm.compute(skew[static_cast<size_t>(rank)]);

        for (int w = 0; w < opt.warmup; ++w)
            co_await runCollectiveOnce(comm, op, m, algo);

        for (int rep = 0; rep < opt.repetitions; ++rep) {
            // The procedure's own synchronization barrier is pinned
            // to the machine default: it must not vary with an
            // attached selection table, or an Auto run could diverge
            // from the memoized explicit-algorithm run it shares a
            // key with.
            co_await comm.barrier(Algo::Default);
            Time start = mach.sim().now();
            for (int i = 0; i < opt.iterations; ++i)
                co_await runCollectiveOnce(comm, op, m, algo);
            Time end = mach.sim().now();
            local_times[static_cast<size_t>(rep)]
                       [static_cast<size_t>(rank)] =
                (end - start) / opt.iterations;
        }
    };

    for (int r = 0; r < p; ++r)
        mach.sim().spawn(program(r));
    mach.run();

    // communication-time = maximum-reduce(local-time), averaged over
    // the repetitions; min and mean reported alongside.
    RunningStats max_s, min_s, mean_s;
    for (const auto &rep : local_times) {
        Time mx = *std::max_element(rep.begin(), rep.end());
        Time mn = *std::min_element(rep.begin(), rep.end());
        double total = 0;
        for (Time t : rep)
            total += static_cast<double>(t);
        max_s.add(static_cast<double>(mx));
        min_s.add(static_cast<double>(mn));
        mean_s.add(total / static_cast<double>(p));
    }

    Measurement out = pointResult(
        cfg, p, op, m, algo,
        {static_cast<Time>(max_s.mean()), static_cast<Time>(min_s.mean()),
         static_cast<Time>(mean_s.mean())});
    if (const auto *fi = mach.faultInjector()) {
        const fault::FaultReport &fr = fi->report();
        out.fault_drops = fr.drops;
        out.fault_retransmits = fr.retransmits;
        out.fault_delays = fr.delays;
        out.degradation = fr.degradation;
    }
    out.metrics = mach.metricsSnapshot(); // empty when metrics are off

    {
        MemoCache &c = memoCache();
        std::lock_guard<std::mutex> lock(c.mu);
        if (memo) {
            ++c.stats.misses;
            c.insert(std::move(key),
                     {out.max_time, out.min_time, out.mean_time});
        } else {
            ++c.stats.bypassed;
        }
    }
    return out;
}

/**
 * Makespan of the clean twin of a faulty point: same machine with
 * the fault spec stripped, same procedure.  Rides the memo cache, so
 * across a sweep each distinct twin is simulated once.
 */
Time
cleanTwinMakespan(const machine::MachineConfig &cfg, int p, Coll op,
                  Bytes m, Algo algo, const MeasureOptions &opt)
{
    machine::MachineConfig clean = cfg;
    clean.fault = fault::FaultSpec{};
    clean.collect_metrics = false;
    MeasureOptions copt = opt;
    copt.metrics = false;
    copt.ensemble = 1;
    return measureOnePoint(clean, p, op, m, algo, copt).max_time;
}

} // namespace

Measurement
measureCollective(const machine::MachineConfig &cfg, int p, Coll op,
                  Bytes m, Algo algo, const MeasureOptions &opt)
{
    if (opt.iterations < 1 || opt.repetitions < 1 || opt.warmup < 0)
        fatal("measureCollective: bad options (k=%d reps=%d warmup=%d)",
              opt.iterations, opt.repetitions, opt.warmup);
    if (opt.max_skew < 0)
        fatal("measureCollective: negative clock skew bound");
    if (opt.ensemble < 1)
        fatal("measureCollective: ensemble must be >= 1, got %d",
              opt.ensemble);

    // Resolve Algo::Auto up front, before the memo key is formed:
    // cfg.selection is deliberately NOT part of the key (it only
    // influences a run through this resolution), so an unresolved
    // Auto would alias across different tables.  Resolving here also
    // makes an Auto point share its cache entry — and produce a
    // byte-identical Measurement, resolved algo included — with the
    // same point measured under the explicit algorithm.
    if (algo == Algo::Auto)
        algo = tuning::resolveAlgo(cfg, op, p, m, algo);
    // An algorithm the operation lacks (from --algo, a selection rule
    // or the config) is a config error, raised before any machine is
    // built; so is a configured barrier the procedure cannot run.
    mpi::requireAlgo(mpi::collOp(op),
                     tuning::resolveAlgo(cfg, op, p, m, algo));
    mpi::requireAlgo(mpi::kBarrier, cfg.algorithmFor(Coll::Barrier));

    if (!cfg.fault.enabled() || opt.ensemble == 1) {
        Measurement out = measureOnePoint(cfg, p, op, m, algo, opt);
        if (cfg.fault.enabled()) {
            Time clean = cleanTwinMakespan(cfg, p, op, m, algo, opt);
            if (clean > 0)
                out.degradation.makespan_inflation =
                    static_cast<double>(out.max_time) /
                        static_cast<double>(clean) -
                    1.0;
        }
        return out;
    }

    // Fault-ensemble mode: the same point under opt.ensemble derived
    // fault universes, sequentially (the sweep point remains the
    // unit of parallelism, so --jobs N stays byte-identical).
    MeasureOptions mopt = opt;
    mopt.ensemble = 1;
    std::vector<Time> makespans;
    makespans.reserve(static_cast<std::size_t>(opt.ensemble));
    double min_sum = 0, mean_sum = 0;
    Measurement agg;
    std::exception_ptr last_failure;
    for (int k = 0; k < opt.ensemble; ++k) {
        machine::MachineConfig mcfg = cfg;
        mcfg.fault.seed =
            fault::mixSeed(cfg.fault.seed,
                           0x656e73656d626cULL + // "ensembl"
                               static_cast<std::uint64_t>(k));
        try {
            Measurement one =
                measureOnePoint(mcfg, p, op, m, algo, mopt);
            makespans.push_back(one.max_time);
            min_sum += static_cast<double>(one.min_time);
            mean_sum += static_cast<double>(one.mean_time);
            agg.fault_drops += one.fault_drops;
            agg.fault_retransmits += one.fault_retransmits;
            agg.fault_delays += one.fault_delays;
            agg.degradation.reroutes += one.degradation.reroutes;
            agg.degradation.extra_bytes += one.degradation.extra_bytes;
            agg.degradation.escalations += one.degradation.escalations;
            agg.degradation.absorbed_delay +=
                one.degradation.absorbed_delay;
            agg.degradation.absorbed += one.degradation.absorbed;
            if ((opt.metrics || cfg.collect_metrics) &&
                !one.metrics.empty()) {
                if (agg.metrics.empty())
                    agg.metrics = std::move(one.metrics);
                else
                    agg.metrics.merge(one.metrics);
            }
        } catch (const fault::FaultError &) {
            ++agg.ensemble_failures;
            last_failure = std::current_exception();
        }
    }
    agg.machine = cfg.name;
    agg.op = op;
    agg.algo = algo;
    agg.m = m;
    agg.p = p;
    agg.ensemble_runs = opt.ensemble;
    if (makespans.empty()) {
        // Every universe killed the point; under fail_fast that IS
        // the result — surface it as the last member's FaultError.
        std::rethrow_exception(last_failure);
    }
    const double n = static_cast<double>(makespans.size());
    double max_sum = 0;
    for (Time t : makespans)
        max_sum += static_cast<double>(t);
    agg.max_time = static_cast<Time>(max_sum / n);
    agg.min_time = static_cast<Time>(min_sum / n);
    agg.mean_time = static_cast<Time>(mean_sum / n);
    std::sort(makespans.begin(), makespans.end());
    std::size_t idx =
        (makespans.size() * 95 + 99) / 100; // ceil(0.95 n)
    if (idx > 0)
        --idx;
    agg.p95_time = makespans[idx];
    Time clean = cleanTwinMakespan(cfg, p, op, m, algo, opt);
    if (clean > 0)
        agg.degradation.makespan_inflation =
            static_cast<double>(agg.max_time) /
                static_cast<double>(clean) -
            1.0;
    return agg;
}

Measurement
measureStartup(const machine::MachineConfig &cfg, int p, Coll op,
               Algo algo, const MeasureOptions &opt)
{
    Bytes m = op == Coll::Barrier ? 0 : kStartupMessageBytes;
    return measureCollective(cfg, p, op, m, algo, opt);
}

std::vector<int>
paperMachineSizes(const std::string &machine_name)
{
    // T3D allocations topped out at 64 nodes; SP2/Paragon reached 128.
    if (machine_name == "T3D")
        return {2, 4, 8, 16, 32, 64};
    return {2, 4, 8, 16, 32, 64, 128};
}

std::vector<Bytes>
paperMessageLengths()
{
    // 4 B .. 64 KB in powers of four (Section 2).
    std::vector<Bytes> out;
    for (Bytes m = 4; m <= 64 * KiB; m *= 4)
        out.push_back(m);
    return out;
}

model::MachineModel
fitMachineModel(const machine::MachineConfig &cfg,
                const std::vector<machine::Coll> &ops,
                std::vector<int> sizes, std::vector<Bytes> lengths,
                const MeasureOptions &opt, Algo algo)
{
    std::vector<machine::Coll> todo = ops;
    if (todo.empty())
        todo.assign(machine::kPaperColls.begin(),
                    machine::kPaperColls.end());
    if (sizes.empty())
        sizes = paperMachineSizes(cfg.name);
    if (lengths.empty())
        lengths = paperMessageLengths();

    model::MachineModel out(cfg.name + " (fitted)");
    for (machine::Coll op : todo) {
        std::vector<model::Sample> samples;
        for (int p : sizes) {
            for (Bytes m : lengths) {
                Bytes mm = op == Coll::Barrier ? 0 : m;
                auto meas = measureCollective(cfg, p, op, mm, algo, opt);
                samples.push_back({mm, p, meas.us()});
                if (op == Coll::Barrier)
                    break;
            }
        }
        if (op == Coll::Barrier)
            out.set(op, model::fitStartupAuto(samples));
        else
            out.set(op, model::fitPaperStyleAuto(samples));
    }
    return out;
}

Measurement
measurePingPong(const machine::MachineConfig &cfg, Bytes m,
                const MeasureOptions &opt)
{
    if (opt.iterations < 1 || opt.warmup < 0)
        fatal("measurePingPong: bad options");
    if (m < 0)
        fatal("measurePingPong: negative message length");

    auto run_cfg = std::make_shared<machine::MachineConfig>(cfg);
    run_cfg->collect_metrics = cfg.collect_metrics || opt.metrics;
    machine::Machine mach(machine::ConfigHandle(std::move(run_cfg)), 2);
    Time round_trip_total = 0;
    const int total = opt.warmup + opt.iterations;

    auto pinger = [&]() -> sim::Task<void> {
        mpi::Comm comm(mach, 0);
        for (int i = 0; i < total; ++i) {
            Time start = mach.sim().now();
            co_await comm.send(1, 0, m);
            co_await comm.recv(1, 1);
            if (i >= opt.warmup)
                round_trip_total += mach.sim().now() - start;
        }
    };
    auto ponger = [&]() -> sim::Task<void> {
        mpi::Comm comm(mach, 1);
        for (int i = 0; i < total; ++i) {
            co_await comm.recv(0, 0);
            co_await comm.send(0, 1, m);
        }
    };
    mach.sim().spawn(pinger());
    mach.sim().spawn(ponger());
    mach.run();

    Measurement out;
    out.machine = cfg.name;
    out.m = m;
    out.p = 2;
    out.max_time =
        round_trip_total / (2 * static_cast<Time>(opt.iterations));
    out.min_time = out.max_time;
    out.mean_time = out.max_time;
    out.metrics = mach.metricsSnapshot();
    return out;
}

Bytes
aggregatedLength(Coll op, Bytes m, int p)
{
    switch (op) {
      case Coll::Barrier:
        return 0;
      case Coll::Alltoall:
        return m * static_cast<Bytes>(p) * static_cast<Bytes>(p - 1);
      case Coll::Allgather:
      case Coll::Allreduce:
        // All-to-one followed by one-to-all equivalents; the paper
        // does not fit these, use the symmetric m p (p - 1) view for
        // allgather and m (p - 1) for allreduce's reduction tree.
        return op == Coll::Allgather
                   ? m * static_cast<Bytes>(p) * static_cast<Bytes>(p - 1)
                   : m * static_cast<Bytes>(p - 1);
      default:
        // bcast, gather, scatter, reduce, scan: m (p - 1).
        return m * static_cast<Bytes>(p - 1);
    }
}

} // namespace ccsim::harness
