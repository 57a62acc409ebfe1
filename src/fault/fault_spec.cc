#include "fault/fault_spec.hh"

#include <vector>

#include "util/cli.hh"
#include "util/logging.hh"

namespace ccsim::fault {

const char *
policyName(RecoveryPolicy p)
{
    switch (p) {
      case RecoveryPolicy::FailFast:
        return "fail_fast";
      case RecoveryPolicy::RetryEscalate:
        return "retry_escalate";
      case RecoveryPolicy::Degrade:
        return "degrade";
    }
    return "?";
}

RecoveryPolicy
policyFromName(const std::string &name)
{
    if (name == "fail_fast")
        return RecoveryPolicy::FailFast;
    if (name == "retry_escalate")
        return RecoveryPolicy::RetryEscalate;
    if (name == "degrade")
        return RecoveryPolicy::Degrade;
    std::string hint = cli::closestMatch(
        name, {"fail_fast", "retry_escalate", "degrade"});
    if (!hint.empty())
        fatal("--faults: unknown policy '%s' (did you mean '%s'? "
              "valid: fail_fast, retry_escalate, degrade)",
              name.c_str(), hint.c_str());
    fatal("--faults: unknown policy '%s' (valid: fail_fast, "
          "retry_escalate, degrade)",
          name.c_str());
}

bool
FaultSpec::enabled() const
{
    return link_degrade_rate > 0 || link_blackhole_rate > 0 ||
           straggler_rate > 0 || msg_drop_rate > 0 ||
           msg_delay_rate > 0;
}

bool
FaultSpec::lossPossible() const
{
    return msg_drop_rate > 0 || link_blackhole_rate > 0;
}

void
FaultSpec::validate() const
{
    auto rate = [](const char *what, double r) {
        if (r < 0 || r > 1)
            fatal("FaultSpec: %s rate %g outside [0, 1]", what, r);
    };
    rate("link degrade", link_degrade_rate);
    rate("link blackhole", link_blackhole_rate);
    rate("straggler", straggler_rate);
    rate("message drop", msg_drop_rate);
    rate("message delay", msg_delay_rate);

    if (link_degrade_factor <= 0 || link_degrade_factor > 1)
        fatal("FaultSpec: degrade factor %g outside (0, 1]",
              link_degrade_factor);
    if (straggler_factor < 1)
        fatal("FaultSpec: straggler factor %g < 1", straggler_factor);
    if (window_start < 0)
        fatal("FaultSpec: negative window start");
    if (msg_delay < 0)
        fatal("FaultSpec: negative message delay");
    if (msg_drop_rate >= 1)
        fatal("FaultSpec: message drop rate must be < 1 (1.0 can "
              "never deliver; use a blackhole instead)");
    if (retry_budget < 0)
        fatal("FaultSpec: negative retry budget");
    if (lossPossible() && retry_timeout <= 0)
        fatal("FaultSpec: retry timeout must be positive when loss "
              "is possible");
    if (retry_backoff < 1)
        fatal("FaultSpec: retry backoff %g < 1", retry_backoff);
    if (escalation_budget < 0)
        fatal("FaultSpec: negative escalation budget");
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // One splitmix64 step over the xor — cheap, and any bit of either
    // input flips roughly half the output bits.
    std::uint64_t z = (seed ^ salt) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

[[noreturn]] void
unknownFlag(const std::string &key)
{
    std::vector<std::string> flags;
    std::string keys;
    const FaultSpec any;
    forEachField(any, [&](const Field &f, const auto &) {
        keys += (keys.empty() ? "" : ", ") + std::string(f.flag);
        flags.emplace_back(f.flag);
    });
    std::string hint = cli::closestMatch(key, flags);
    if (!hint.empty())
        fatal("--faults: unknown key '%s' (did you mean '%s'? valid "
              "keys: %s)",
              key.c_str(), hint.c_str(), keys.c_str());
    fatal("--faults: unknown key '%s' (valid keys: %s)", key.c_str(),
          keys.c_str());
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("--faults: expected key=value, got '%s'",
                  item.c_str());
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);

        bool found = false;
        forEachField(spec, [&](const Field &f, auto &v) {
            if (found || f.flag != key)
                return;
            found = true;
            if constexpr (std::is_same_v<decltype(v), RecoveryPolicy &>)
                v = policyFromName(value);
            else if (const char *kind = readField(value, v, f.unit))
                fatal("--faults: bad %s value '%s' for '%s'", kind,
                      value.c_str(), key.c_str());
        });
        if (!found)
            unknownFlag(key);
    }
    spec.validate();
    return spec;
}

} // namespace ccsim::fault
