/**
 * @file
 * FaultSpec: the declarative description of every fault a simulated
 * machine can suffer, plus the retry protocol that keeps collectives
 * running (or failing diagnosably) under loss.
 *
 * The paper's closed-form models T(m, p) = T0(p) + D(m, p) assume
 * pristine machines; the fault layer probes the *sensitivity* of
 * those models.  Three fault families are supported:
 *
 *  - LINK faults: a deterministic subset of links is degraded (wire
 *    serialisation slowed by 1/link_degrade_factor) or black-holed
 *    (every wire message crossing the link during the fault window
 *    is lost);
 *  - NODE faults (stragglers): a subset of nodes runs all software
 *    overheads straggler_factor times slower — send/receive
 *    overheads, collective entry/stage costs, reduction arithmetic;
 *  - MESSAGE faults: individual wire messages are dropped or
 *    delayed, drawn per injection from the machine's fault RNG.
 *
 * All draws are made from a deterministic RNG seeded by `seed`, so a
 * fault scenario is exactly reproducible; the sweep engine derives a
 * distinct per-point seed the same way it seeds clock skew, keeping
 * `--jobs N` output byte-identical to a serial run.
 *
 * When loss is possible (drops or black holes), the transport
 * switches to an acknowledged protocol: every wire payload waits for
 * a zero-byte ack, retransmitting on timeout with exponential
 * backoff.  What happens when the base retry budget is exhausted is
 * governed by the RecoveryPolicy:
 *
 *  - fail_fast (default): raise fault::FaultError (carrying a
 *    FaultReport naming the link/node and what was in flight);
 *  - retry_escalate: keep retransmitting with further-escalating
 *    backoff for `escalation_budget` extra rounds, recording the
 *    absorbed delay, and throw only once those too are exhausted;
 *  - degrade: never throw.  A message whose route crosses a
 *    black-holed link is rerouted via a cached fallback intermediate
 *    node whose two-leg detour avoids every black-holed link; losses
 *    without a usable detour escalate like retry_escalate, and a
 *    message that still cannot be delivered is absorbed — delivered
 *    out-of-band after one final escalated timeout.  Every recovery
 *    action is tallied in the run's DegradationReport.
 */

#ifndef CCSIM_FAULT_FAULT_SPEC_HH
#define CCSIM_FAULT_FAULT_SPEC_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/field.hh"
#include "util/units.hh"

namespace ccsim::fault {

/**
 * What the transport does when a message exhausts its base retry
 * budget (see the file comment for the full semantics).
 */
enum class RecoveryPolicy {
    FailFast,      //!< throw FaultError immediately (the 1997 answer)
    RetryEscalate, //!< escalate backoff for extra rounds, then throw
    Degrade,       //!< reroute / escalate / absorb — never throw
};

/** Canonical lower-snake name of a policy ("fail_fast", ...). */
const char *policyName(RecoveryPolicy p);

/** Inverse of policyName(); fatal() on unknown names. */
RecoveryPolicy policyFromName(const std::string &name);

/** Complete description of one fault-injection scenario. */
struct FaultSpec
{
    /** Root seed of every deterministic fault draw. */
    std::uint64_t seed = 1;

    // ---- link faults ---------------------------------------------------

    /** Fraction [0,1] of links that are degraded. */
    double link_degrade_rate = 0.0;

    /** Bandwidth multiplier (0,1] of a degraded link (0.5 = half
     *  rate: wire serialisation takes twice as long). */
    double link_degrade_factor = 0.5;

    /** Fraction [0,1] of links that black-hole traffic during the
     *  fault window. */
    double link_blackhole_rate = 0.0;

    /** Simulated time the link-fault window opens. */
    Time window_start = 0;

    /** Window length; <= 0 means the faults persist forever. */
    Time window_duration = 0;

    // ---- node faults (stragglers) --------------------------------------

    /** Fraction [0,1] of nodes that straggle. */
    double straggler_rate = 0.0;

    /** Software-overhead multiplier (>= 1) of a straggling node. */
    double straggler_factor = 2.0;

    // ---- message faults ------------------------------------------------

    /** Probability [0,1] that any wire message is dropped. */
    double msg_drop_rate = 0.0;

    /** Probability [0,1] that a delivered message is delayed. */
    double msg_delay_rate = 0.0;

    /** Delay penalty applied when the delay fault fires. */
    Time msg_delay = 0;

    // ---- retry protocol ------------------------------------------------

    /** Retransmissions allowed per message before failing fast. */
    int retry_budget = 4;

    /** Initial ack timeout before the first retransmission. */
    Time retry_timeout = 100 * time_literals::US;

    /** Timeout multiplier (>= 1) per successive retransmission. */
    double retry_backoff = 2.0;

    // ---- recovery ------------------------------------------------------

    /** What happens once the base retry budget is exhausted. */
    RecoveryPolicy policy = RecoveryPolicy::FailFast;

    /** Extra retransmission rounds granted beyond retry_budget under
     *  retry_escalate / degrade; each round keeps compounding the
     *  exponential backoff and is tallied as an escalation. */
    int escalation_budget = 8;

    /** True when any fault family is active. */
    bool enabled() const;

    /** True when messages can be lost, which switches the transport
     *  to the acknowledged timeout/retransmit protocol. */
    bool lossPossible() const;

    /** Sanity-check all fields; fatal() on user error. */
    void validate() const;
};

/**
 * Deterministically derive a sub-seed (splitmix64 over seed ^ salt);
 * used to give every sweep point its own fault universe from one
 * root seed, independent of worker count or execution order.
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * The one list of FaultSpec's persisted fields: calls
 * `f(Field{key, flag, unit}, storage)` for each, in `--faults` key
 * order.  @p S is FaultSpec to set the fields, or const FaultSpec to
 * read them.  Config files spell each field `fault.<key>`
 * (machine::forEachField) and the `--faults` argument `<flag>`.
 */
template <class S, class F>
    requires std::same_as<std::remove_const_t<S>, FaultSpec>
void
forEachField(S &s, F &&f)
{
    auto field = [&f](std::string_view key, std::string_view flag,
                      auto &v, Unit unit = Unit::Plain) {
        f(Field{{}, key, flag, unit, false}, v);
    };
    constexpr Unit us = Unit::Micros;
    field("seed", "seed", s.seed);
    field("link_degrade_rate", "degrade", s.link_degrade_rate);
    field("link_degrade_factor", "degrade_factor", s.link_degrade_factor);
    field("link_blackhole_rate", "blackhole", s.link_blackhole_rate);
    field("straggler_rate", "straggler", s.straggler_rate);
    field("straggler_factor", "straggler_factor", s.straggler_factor);
    field("msg_drop_rate", "drop", s.msg_drop_rate);
    field("msg_delay_rate", "delay", s.msg_delay_rate);
    field("msg_delay_us", "delay_us", s.msg_delay, us);
    field("window_start_us", "window_start_us", s.window_start, us);
    field("window_duration_us", "window_us", s.window_duration, us);
    field("retry_budget", "retries", s.retry_budget);
    field("retry_timeout_us", "timeout_us", s.retry_timeout, us);
    field("retry_backoff", "backoff", s.retry_backoff);
    field("policy", "policy", s.policy);
    field("escalation_budget", "escalations", s.escalation_budget);
}

/**
 * Parse the CLI's `--faults` argument: comma-separated `<flag>=value`
 * pairs over forEachField()'s short names, e.g.
 *
 *     --faults "straggler=0.05,straggler_factor=3,drop=0.01,seed=7"
 *
 * `policy` takes fail_fast | retry_escalate | degrade.  fatal() on
 * unknown keys or malformed values (listing the valid keys, with a
 * did-you-mean suggestion); the result is validate()d.
 */
FaultSpec parseFaultSpec(const std::string &text);

} // namespace ccsim::fault

#endif // CCSIM_FAULT_FAULT_SPEC_HH
