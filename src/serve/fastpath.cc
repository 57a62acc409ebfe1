#include "serve/fastpath.hh"

#include "tuning/selection_table.hh"

namespace ccsim::serve {

harness::MeasureOptions
FastPath::calibrationOptions()
{
    harness::MeasureOptions opt;
    opt.iterations = 3;
    opt.repetitions = 1;
    opt.warmup = 1;
    return opt;
}

const std::vector<int> &
FastPath::calibrationSizes()
{
    static const std::vector<int> sizes{2, 8, 32};
    return sizes;
}

const std::vector<Bytes> &
FastPath::calibrationLengths()
{
    static const std::vector<Bytes> lengths{4, 1024, 16 * 1024,
                                            64 * 1024};
    return lengths;
}

namespace {

/** The concrete algorithm a fit of (cfg, op, algo) calibrates.  One
 *  fit covers one concrete algorithm; Auto/Default resolve at the
 *  calibration anchor (largest p and m of the grid) so every
 *  calibration point measures the same algorithm.  predictUs()
 *  resolves per query point before reaching here, so an Auto whose
 *  selection table switches algorithms mid-grid still lands on the
 *  per-point-correct fit. */
machine::Algo
calibrationAlgo(const machine::MachineConfig &cfg, machine::Coll op,
                machine::Algo algo)
{
    const bool barrier = op == machine::Coll::Barrier;
    return tuning::resolveAlgo(
        cfg, op, FastPath::calibrationSizes().back(),
        barrier ? 0 : FastPath::calibrationLengths().back(), algo);
}

/** Identity of a fit.  p = 0, m = 0 degrade the point key to a
 *  (machine-parameters, op, algo) identity — exactly what a fitted
 *  model is for.  Built before taking the lock, so concurrent
 *  connections only serialize on the map probe. */
std::string
fitKey(const machine::MachineConfig &cfg, machine::Coll op,
       machine::Algo concrete)
{
    return harness::measurePointKey(cfg, 0, op, 0, concrete,
                                    FastPath::calibrationOptions());
}

} // namespace

const model::TimingExpression &
FastPath::fitForLocked(const machine::MachineConfig &cfg,
                       machine::Coll op, machine::Algo concrete,
                       const std::string &key)
{
    auto it = fits_.find(key);
    if (it != fits_.end()) {
        ++stats_.hits;
        return it->second;
    }

    ++stats_.misses;
    const harness::MeasureOptions opt = calibrationOptions();
    const bool barrier = op == machine::Coll::Barrier;
    std::vector<model::Sample> samples;
    for (int p : calibrationSizes()) {
        if (barrier) {
            auto meas = harness::measureCollective(cfg, p, op, 0,
                                                   concrete, opt);
            samples.push_back({0, p, meas.us()});
            continue;
        }
        for (Bytes m : calibrationLengths()) {
            auto meas = harness::measureCollective(cfg, p, op, m,
                                                   concrete, opt);
            samples.push_back({m, p, meas.us()});
        }
    }
    model::TimingExpression e = barrier
                                    ? model::fitStartupAuto(samples)
                                    : model::fitPaperStyleAuto(samples);
    return fits_.emplace(key, e).first->second;
}

double
FastPath::predictUs(const machine::MachineConfig &cfg,
                    machine::Coll op, machine::Algo algo, int p,
                    Bytes m)
{
    const machine::Algo concrete = calibrationAlgo(
        cfg, op, tuning::resolveAlgo(cfg, op, p, m, algo));
    const std::string key = fitKey(cfg, op, concrete);
    std::lock_guard<std::mutex> lock(mu_);
    return fitForLocked(cfg, op, concrete, key).evalUs(m, p);
}

model::TimingExpression
FastPath::expressionFor(const machine::MachineConfig &cfg,
                        machine::Coll op, machine::Algo algo)
{
    const machine::Algo concrete = calibrationAlgo(cfg, op, algo);
    const std::string key = fitKey(cfg, op, concrete);
    std::lock_guard<std::mutex> lock(mu_);
    return fitForLocked(cfg, op, concrete, key);
}

std::size_t
FastPath::fits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fits_.size();
}

stats::CacheStats
FastPath::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace ccsim::serve
