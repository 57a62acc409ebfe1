/**
 * @file
 * ccsim_perf: host-side performance benchmark of the simulator.
 *
 *     ccsim_perf --workload NAME --seed S [--seconds N] [--trace]
 *                [--quick] [--bless] [--out DIR] [--commit SHA]
 *
 * Runs one workload (paper_sweep, scale_out, serve_zipf,
 * replay_faults) in this process, prints one "workload metric value
 * unit" line per metric, writes DIR/<workload>.json (and, with
 * --trace, DIR/<workload>.trace.json in Chrome-trace format), and
 * exits 1 when any simulated output was wrong.  README.md describes
 * the workloads and metrics; run.py is the one-command wrapper.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hh"
#include "util/logging.hh"

using namespace ccsim;
using namespace ccsim::perf;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ccsim_perf: %s\n"
                 "usage: ccsim_perf --workload "
                 "paper_sweep|scale_out|serve_zipf|replay_faults\n"
                 "                  --seed S [--seconds N] [--trace] "
                 "[--quick] [--bless]\n"
                 "                  [--out DIR] [--commit SHA]\n",
                 why);
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig c;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                c.workload = value();
            } else if (a == "--seed") {
                c.seed = std::stoull(value());
                have_seed = true;
            } else if (a == "--seconds") {
                c.seconds = std::stod(value());
            } else if (a == "--trace") {
                c.trace = true;
            } else if (a == "--quick") {
                c.quick = true;
            } else if (a == "--bless") {
                c.bless = true;
            } else if (a == "--out") {
                c.out_dir = value();
            } else if (a == "--commit") {
                c.commit = value();
            } else {
                usage(("unknown flag " + a).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (c.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (!(c.seconds > 0))
        usage("--seconds must be positive");
    // Smoke mode: a fraction of a second per phase.
    if (c.quick)
        c.seconds = std::min(c.seconds, 0.5);
    return c;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            out += ' ';
        else
            out += ch;
    }
    return out + "\"";
}

void
writeJson(const std::string &path, const RunConfig &c, const Result &r,
          const std::map<std::string, Tracer::Layer> &layers)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "ccsim_perf: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %" PRIu64 ",\n",
                 jsonString(c.workload).c_str(), c.seed);
    std::fprintf(f,
                 "  \"correct\": %s,\n  \"attempted\": %" PRIu64
                 ",\n  \"failed\": %" PRIu64 ",\n",
                 r.failed == 0 ? "true" : "false", r.attempted, r.failed);
    std::fprintf(f, "  \"failures\": [");
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "",
                     jsonString(r.failures[i]).c_str());
    std::fprintf(f, "],\n  \"digest\": {\"value\": %s, \"status\": %s},\n",
                 jsonString(r.digest).c_str(),
                 jsonString(r.digest_status).c_str());

    std::fprintf(f, "  \"metrics\": {");
    const char *sep = "\n";
    for (const auto &[name, m] : r.metrics) {
        std::fprintf(f, "%s    %s: {\"value\": %.17g, \"unit\": %s}", sep,
                     jsonString(name).c_str(), m.value,
                     jsonString(m.unit).c_str());
        sep = ",\n";
    }
    std::fprintf(f, "\n  },\n  \"layers\": {");
    sep = "\n";
    for (const auto &[name, l] : layers) {
        std::fprintf(f,
                     "%s    %s: {\"count\": %" PRIu64
                     ", \"busy_ns\": %.17g, \"self_ns\": %.17g}",
                     sep, jsonString(name).c_str(), l.count, l.busy_ns,
                     l.self_ns);
        sep = ",\n";
    }
    std::fprintf(f, "\n  },\n  \"phases_s\": {");
    sep = "\n";
    for (const auto &[name, s] : r.phases) {
        std::fprintf(f, "%s    %s: %.17g", sep, jsonString(name).c_str(),
                     s);
        sep = ",\n";
    }
    std::fprintf(f,
                 "\n  },\n  \"provenance\": {\n"
                 "    \"nproc\": %u,\n    \"build_type\": %s,\n"
                 "    \"cxx_flags\": %s,\n    \"compiler\": %s,\n"
                 "    \"commit\": %s,\n    \"seed\": %" PRIu64 ",\n"
                 "    \"jobs\": 1,\n    \"trace\": %s,\n"
                 "    \"quick\": %s,\n    \"seconds\": %.17g\n  }\n}\n",
                 std::thread::hardware_concurrency(),
                 jsonString(CCSIM_PERF_BUILD_TYPE).c_str(),
                 jsonString(CCSIM_PERF_CXX_FLAGS).c_str(),
                 jsonString(__VERSION__).c_str(),
                 jsonString(c.commit).c_str(), c.seed,
                 c.trace ? "true" : "false", c.quick ? "true" : "false",
                 c.seconds);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    const RunConfig cfg = parseArgs(argc, argv);
    // Simulator errors become exceptions the workloads count as
    // failed operations instead of ending the process.
    throwOnError(true);
    quietLogging(true);

    Result r;
    Tracer tracer;
    Tracer *tr = cfg.trace ? &tracer : nullptr;
    const std::int64_t start = nowNs();
    try {
        if (cfg.workload == "paper_sweep")
            runPaperSweep(cfg, r, tr);
        else if (cfg.workload == "scale_out")
            runScaleOut(cfg, r, tr);
        else if (cfg.workload == "serve_zipf")
            runServeZipf(cfg, r, tr);
        else if (cfg.workload == "replay_faults")
            runReplayFaults(cfg, r, tr);
        else
            usage(("unknown workload " + cfg.workload).c_str());
    } catch (const std::exception &e) {
        r.fail(std::string("workload aborted: ") + e.what());
    }
    r.phase("total", secondsSince(start));
    if (r.attempted == 0)
        r.fail("no operation attempted");

    // scale_out reports its children's peak; never below our own.
    const double own_mb = static_cast<double>(peakRssKb()) / 1024.0;
    auto peak = r.metrics.find("peak_rss_mb");
    if (peak == r.metrics.end() || peak->second.value < own_mb)
        r.set("peak_rss_mb", own_mb, "MB");
    r.set("bench.failed_frac",
          static_cast<double>(r.failed) /
              static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
          "ratio");
    for (const auto &[name, m] : r.metrics)
        if (!std::isfinite(m.value))
            r.fail("metric " + name + " is not finite");

    std::map<std::string, Tracer::Layer> layers;
    std::filesystem::create_directories(cfg.out_dir);
    if (tr) {
        layers = tr->layers();
        tr->writeChrome(cfg.out_dir + "/" + cfg.workload + ".trace.json");
    }
    writeJson(cfg.out_dir + "/" + cfg.workload + ".json", cfg, r, layers);

    for (const auto &[name, m] : r.metrics)
        std::printf("%s %s %.6g %s\n", cfg.workload.c_str(), name.c_str(),
                    m.value, m.unit.c_str());
    std::printf("%s digest %s %s\n", cfg.workload.c_str(),
                r.digest.c_str(), r.digest_status.c_str());
    for (const auto &why : r.failures)
        std::fprintf(stderr, "ccsim_perf: FAILED: %s\n", why.c_str());
    std::printf("%s attempted %" PRIu64 " failed %" PRIu64 "\n",
                cfg.workload.c_str(), r.attempted, r.failed);
    return r.failed == 0 ? 0 : 1;
}
