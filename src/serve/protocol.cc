#include "serve/protocol.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "machine/config_io.hh"
#include "util/error.hh"
#include "util/field.hh"

namespace ccsim::serve {

namespace {

[[noreturn]] void
badRequest(const std::string &what)
{
    throw ConfigError("bad request: " + what +
                      " (see docs/SERVE.md for the grammar)");
}

long long
parseInt(std::string_view key, std::string_view value)
{
    // std::stoll, not std::from_chars: it also takes a leading '+',
    // which the grammar has always accepted.
    const std::string text(value);
    long long v = 0;
    if (!parseWhole(text, v))
        badRequest("key '" + std::string(key) +
                   "' wants an integer, got '" + text + "'");
    return v;
}

machine::Coll
parseOp(std::string_view value)
{
    if (auto op = machine::collFromKey(value))
        return *op;
    badRequest("unknown op '" + std::string(value) + "'");
}

/** Pop the next word off @p rest; empty at the end of the line.
 *  Words split on the separators `std::istream >> std::string` uses. */
std::string_view
nextWord(std::string_view &rest)
{
    auto space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    std::size_t b = 0;
    while (b < rest.size() && space(rest[b]))
        ++b;
    std::size_t e = b;
    while (e < rest.size() && !space(rest[e]))
        ++e;
    std::string_view word = rest.substr(b, e - b);
    rest.remove_prefix(e);
    return word;
}

/** "%.9g" — the snapshot layer's fixed number formatting. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

Request
parseRequest(const std::string &line)
{
    std::string_view rest = line;
    const std::string_view verb_word = nextWord(rest);
    if (verb_word.empty())
        badRequest("empty request");

    Request req;
    if (verb_word == "predict")
        req.verb = Verb::Predict;
    else if (verb_word == "poll")
        req.verb = Verb::Poll;
    else if (verb_word == "metrics")
        req.verb = Verb::Metrics;
    else if (verb_word == "health")
        req.verb = Verb::Health;
    else if (verb_word == "ping")
        req.verb = Verb::Ping;
    else if (verb_word == "shutdown")
        req.verb = Verb::Shutdown;
    else
        badRequest("unknown verb '" + std::string(verb_word) +
                   "' (predict, poll, metrics, health, ping, "
                   "shutdown)");

    bool saw_p = false, saw_op = false, saw_ticket = false;
    for (std::string_view word = nextWord(rest); !word.empty();
         word = nextWord(rest)) {
        std::size_t eq = word.find('=');
        if (eq == std::string_view::npos || eq == 0)
            badRequest("expected key=value, got '" + std::string(word) +
                       "'");
        const std::string_view key = word.substr(0, eq);
        const std::string_view value = word.substr(eq + 1);
        if (value.empty())
            badRequest("key '" + std::string(key) +
                       "' has an empty value");

        if (req.verb == Verb::Poll) {
            if (key != "ticket")
                badRequest("poll understands only ticket=N");
            long long t = parseInt(key, value);
            if (t < 0)
                badRequest("ticket must be non-negative");
            req.ticket = static_cast<std::uint64_t>(t);
            saw_ticket = true;
            continue;
        }
        if (req.verb != Verb::Predict)
            badRequest("'" + std::string(verb_word) +
                       "' takes no keys");

        if (key == "machine") {
            req.machine = value;
        } else if (key == "config") {
            req.config_path = value;
        } else if (key == "selection") {
            req.selection = value;
        } else if (key == "topo") {
            req.topo = value;
        } else if (key == "op") {
            req.op = parseOp(value);
            saw_op = true;
        } else if (key == "algo") {
            // algoFromName raises ConfigError itself, listing the
            // valid spellings.
            req.algo = machine::algoFromName(std::string(value));
        } else if (key == "p") {
            long long p = parseInt(key, value);
            if (p < 1)
                badRequest("p must be >= 1");
            req.p = static_cast<int>(p);
            saw_p = true;
        } else if (key == "m") {
            long long m = parseInt(key, value);
            if (m < 0)
                badRequest("m must be >= 0");
            req.m = m;
            req.has_m = true;
        } else if (key == "tier") {
            if (value == "auto")
                req.tier = TierChoice::Auto;
            else if (value == "fast")
                req.tier = TierChoice::Fast;
            else if (value == "exact")
                req.tier = TierChoice::Exact;
            else
                badRequest("tier must be auto, fast, or exact");
        } else if (key == "wait") {
            if (value == "block")
                req.wait = WaitMode::Block;
            else if (value == "ticket")
                req.wait = WaitMode::Ticket;
            else
                badRequest("wait must be block or ticket");
        } else if (key == "deadline_ms") {
            long long d = parseInt(key, value);
            if (d < 0)
                badRequest("deadline_ms must be >= 0");
            req.deadline_ms = static_cast<int>(d);
        } else {
            badRequest("unknown key '" + std::string(key) + "'");
        }
    }

    if (req.verb == Verb::Poll && !saw_ticket)
        badRequest("poll needs ticket=N");
    if (req.verb == Verb::Predict) {
        if (!saw_op)
            badRequest("predict needs op=<collective>");
        if (!saw_p)
            badRequest("predict needs p=<nodes>");
        // The barrier has no length axis; everything else needs m.
        if (!req.has_m && req.op != machine::Coll::Barrier)
            badRequest("predict needs m=<bytes> for op " +
                       machine::collKey(req.op));
        if (req.op == machine::Coll::Barrier)
            req.m = 0;
    }
    return req;
}

std::string
formatRequest(const Request &req)
{
    switch (req.verb) {
      case Verb::Ping:
        return "ping";
      case Verb::Metrics:
        return "metrics";
      case Verb::Health:
        return "health";
      case Verb::Shutdown:
        return "shutdown";
      case Verb::Poll:
        return "poll ticket=" + std::to_string(req.ticket);
      case Verb::Predict:
        break;
    }

    std::string out = "predict";
    if (!req.config_path.empty())
        out += " config=" + req.config_path;
    else
        out += " machine=" + req.machine;
    if (!req.selection.empty())
        out += " selection=" + req.selection;
    if (!req.topo.empty())
        out += " topo=" + req.topo;
    out += " op=" + machine::collKey(req.op);
    out += " p=" + std::to_string(req.p);
    out += " m=" + std::to_string(req.m);
    if (req.algo != machine::Algo::Auto)
        out += " algo=" + machine::algoName(req.algo);
    out += std::string(" tier=") +
           (req.tier == TierChoice::Auto
                ? "auto"
                : req.tier == TierChoice::Fast ? "fast" : "exact");
    if (req.wait == WaitMode::Ticket)
        out += " wait=ticket";
    if (req.deadline_ms > 0)
        out += " deadline_ms=" + std::to_string(req.deadline_ms);
    return out;
}

std::string
tierName(AnswerTier t)
{
    switch (t) {
      case AnswerTier::Cache:
        return "cache";
      case AnswerTier::Fast:
        return "fast";
      case AnswerTier::Exact:
        return "exact";
    }
    return "?";
}

Answer
Answer::of(const harness::Measurement &meas, AnswerTier t)
{
    Answer a;
    a.tier = t;
    a.approx = false;
    a.machine = meas.machine;
    a.op = meas.op;
    a.algo = meas.algo;
    a.p = meas.p;
    a.m = meas.m;
    a.time_us = meas.us();
    a.max_ps = meas.max_time;
    a.min_ps = meas.min_time;
    a.mean_ps = meas.mean_time;
    return a;
}

std::string
okResponse(const Answer &a)
{
    std::string out = "{\"status\":\"ok\",\"tier\":\"" +
                      tierName(a.tier) + "\",\"approx\":" +
                      (a.approx ? "true" : "false");
    if (a.shed)
        out += ",\"shed\":true";
    out += ",\"machine\":\"" + jsonEscape(a.machine) + "\"";
    out += ",\"op\":\"" + machine::collKey(a.op) + "\"";
    out += ",\"algo\":\"" + machine::algoName(a.algo) + "\"";
    out += ",\"p\":" + std::to_string(a.p);
    out += ",\"m\":" + std::to_string(a.m);
    out += ",\"time_us\":" + num(a.time_us);
    if (!a.approx) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ",\"max_ps\":%" PRId64 ",\"min_ps\":%" PRId64
                      ",\"mean_ps\":%" PRId64,
                      a.max_ps, a.min_ps, a.mean_ps);
        out += buf;
    }
    out += "}";
    return out;
}

std::string
pendingResponse(std::uint64_t ticket)
{
    return "{\"status\":\"pending\",\"ticket\":" +
           std::to_string(ticket) + "}";
}

std::string
errorResponse(const Error &e)
{
    return "{\"status\":\"error\",\"component\":\"" +
           jsonEscape(e.component()) +
           "\",\"exit_code\":" + std::to_string(e.exitCode()) +
           ",\"message\":\"" + jsonEscape(e.what()) + "\"}";
}

std::string
pongResponse()
{
    return "{\"status\":\"ok\",\"pong\":true}";
}

std::string
healthResponse(const HealthInfo &h)
{
    std::string out = "{\"status\":\"ok\",\"health\":\"";
    out += h.draining ? "draining" : "ok";
    out += "\",\"cache_size\":" + std::to_string(h.cache_size);
    out += ",\"cache_max\":" + std::to_string(h.cache_max);
    out += ",\"backfill_depth\":" + std::to_string(h.backfill_depth);
    out += ",\"backfill_max\":" + std::to_string(h.backfill_max);
    out += ",\"shed\":" + std::to_string(h.shed);
    out += ",\"deadline_missed\":" + std::to_string(h.deadline_missed);
    out += ",\"connections\":" + std::to_string(h.connections);
    out += ",\"uptime_s\":" + num(h.uptime_s);
    out += "}";
    return out;
}

std::string
shutdownResponse()
{
    return "{\"status\":\"ok\",\"shutdown\":true}";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace ccsim::serve
