#include "replay/trace_parser.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>

#include "machine/config_io.hh"
#include "mpi/collectives.hh"
#include "util/field.hh"
#include "util/key_value.hh"
#include "util/logging.hh"

namespace ccsim::replay {

namespace {

using machine::Algo;
using machine::Coll;
using Tokens = std::span<const std::string_view>;

/** One line being parsed, with the context diagnostics need. */
struct LineCtx
{
    const std::string *source;
    int line = 0;
    int rank = -1; // known once the rank prefix parsed

    [[noreturn]] void
    fail(const std::string &what) const
    {
        if (rank >= 0)
            raiseError(TraceError(
                strFormat("%s:%d: rank %d: %s", source->c_str(), line,
                          rank, what.c_str())));
        raiseError(TraceError(strFormat("%s:%d: %s", source->c_str(),
                                        line, what.c_str())));
    }
};

/** Call @p item on each item of the comma list @p tok, in order.  A
 *  trailing comma ends the list; any other empty item is passed on. */
template <class F>
void
forEachItem(std::string_view tok, F &&item)
{
    while (!tok.empty()) {
        const std::size_t comma = tok.find(',');
        item(tok.substr(0, comma));
        if (comma == std::string_view::npos)
            return;
        tok.remove_prefix(comma + 1);
    }
}

long long
parseInt(const LineCtx &ctx, std::string_view tok, const char *what)
{
    long long v = 0;
    if (!parseWhole(tok, v))
        ctx.fail(std::string("bad ") + what + " '" + std::string(tok) +
                 "'");
    return v;
}

/** Exact decimal-microsecond parse: digits[.digits{1..6}] -> ps,
 *  at most the largest Time. */
Time
parseMicrosExact(const LineCtx &ctx, std::string_view tok)
{
    const std::size_t dot = tok.find('.');
    const std::string_view whole = tok.substr(0, dot);
    const std::string_view frac = dot == std::string_view::npos
                                      ? std::string_view()
                                      : tok.substr(dot + 1);
    if (whole.empty() || frac.size() > 6 ||
        (dot != std::string_view::npos && frac.empty()))
        ctx.fail("bad duration '" + std::string(tok) +
                 "' (want decimal us, <= 6 fraction digits)");
    auto digits = [](std::string_view s) {
        return std::all_of(s.begin(), s.end(),
                           [](char c) { return c >= '0' && c <= '9'; });
    };
    if (!digits(whole) || !digits(frac))
        ctx.fail("bad duration '" + std::string(tok) + "'");
    const long long us = parseInt(ctx, whole, "duration");
    long long ps_frac = 0; // padded to picoseconds
    for (std::size_t i = 0; i < 6; ++i)
        ps_frac = ps_frac * 10 + (i < frac.size() ? frac[i] - '0' : 0);
    using namespace time_literals;
    constexpr Time kMax = std::numeric_limits<Time>::max();
    if (us > (kMax - ps_frac) / US)
        ctx.fail("bad duration '" + std::string(tok) + "' (more than " +
                 formatMicrosExact(kMax) + " us)");
    return us * US + ps_frac;
}

std::vector<Bytes>
parseByteList(const LineCtx &ctx, std::string_view tok)
{
    std::vector<Bytes> out;
    forEachItem(tok, [&](std::string_view item) {
        Bytes b = parseInt(ctx, item, "byte count");
        if (b < 0)
            ctx.fail("negative byte count in '" + std::string(tok) +
                     "'");
        out.push_back(b);
    });
    if (out.empty())
        ctx.fail("empty byte-count list");
    return out;
}

std::vector<int>
parseRankList(const LineCtx &ctx, std::string_view tok, int np)
{
    std::vector<int> out;
    forEachItem(tok, [&](std::string_view item) {
        long long r = parseInt(ctx, item, "group rank");
        if (r < 0 || r >= np)
            ctx.fail("group rank " + std::string(item) +
                     " outside np " + std::to_string(np));
        out.push_back(static_cast<int>(r));
    });
    if (out.empty())
        ctx.fail("empty group");
    std::vector<int> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        ctx.fail("duplicate rank in group '" + std::string(tok) + "'");
    return out;
}

/** Split "key=value"; fail on anything else. */
std::pair<std::string_view, std::string_view>
splitAttr(const LineCtx &ctx, std::string_view tok)
{
    std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= tok.size())
        ctx.fail("expected key=value attribute, got '" +
                 std::string(tok) + "'");
    return {tok.substr(0, eq), tok.substr(eq + 1)};
}

bool
isAttr(std::string_view tok)
{
    return tok.find('=') != std::string_view::npos;
}

Action
parsePtp(const LineCtx &ctx, ActionKind kind, Tokens toks, int np)
{
    Action a;
    a.kind = kind;
    a.line = ctx.line;
    std::size_t pos = 0;

    auto needPositional = [&](const char *what) {
        if (pos >= toks.size() || isAttr(toks[pos]))
            ctx.fail(std::string("missing ") + what);
        return toks[pos++];
    };

    bool is_send = kind == ActionKind::Send || kind == ActionKind::Isend;
    bool is_recv = kind == ActionKind::Recv || kind == ActionKind::Irecv;

    if (kind == ActionKind::Sendrecv) {
        a.peer = static_cast<int>(
            parseInt(ctx, needPositional("destination rank"), "rank"));
        a.peer2 = static_cast<int>(
            parseInt(ctx, needPositional("source rank"), "rank"));
        a.bytes = parseInt(ctx, needPositional("byte count"), "bytes");
        if (a.peer < 0 || a.peer >= np || a.peer2 < 0 || a.peer2 >= np)
            ctx.fail("sendrecv peer outside np " + std::to_string(np));
    } else if (is_send) {
        a.peer = static_cast<int>(
            parseInt(ctx, needPositional("destination rank"), "rank"));
        a.bytes = parseInt(ctx, needPositional("byte count"), "bytes");
        if (a.peer < 0 || a.peer >= np)
            ctx.fail("destination rank " + std::to_string(a.peer) +
                     " outside np " + std::to_string(np));
    } else if (is_recv) {
        a.peer = static_cast<int>(
            parseInt(ctx, needPositional("source rank"), "rank"));
        if (a.peer < -1 || a.peer >= np)
            ctx.fail("source rank " + std::to_string(a.peer) +
                     " outside np " + std::to_string(np) +
                     " (-1 = any source)");
    }
    if (a.bytes < 0)
        ctx.fail("negative byte count");

    for (; pos < toks.size(); ++pos) {
        auto [key, value] = splitAttr(ctx, toks[pos]);
        if (key == "tag" && kind != ActionKind::Sendrecv)
            a.tag = static_cast<int>(parseInt(ctx, value, "tag"));
        else if (key == "stag" && kind == ActionKind::Sendrecv)
            a.tag = static_cast<int>(parseInt(ctx, value, "tag"));
        else if (key == "rtag" && kind == ActionKind::Sendrecv)
            a.tag2 = static_cast<int>(parseInt(ctx, value, "tag"));
        else
            ctx.fail("unknown attribute '" + std::string(key) + "'");
    }
    return a;
}

Action
parseCollective(const LineCtx &ctx, const mpi::CollOp &row, Tokens toks,
                int np)
{
    const bool vector_variant = row.payload == mpi::Payload::Counts;
    Action a;
    a.kind = ActionKind::Coll;
    a.op = row.op;
    a.vector_variant = vector_variant;
    a.line = ctx.line;
    std::size_t pos = 0;

    if (vector_variant) {
        if (pos >= toks.size() || isAttr(toks[pos]))
            ctx.fail("missing byte-count list");
        a.counts = parseByteList(ctx, toks[pos++]);
    } else if (row.payload != mpi::Payload::None) {
        if (pos >= toks.size() || isAttr(toks[pos]))
            ctx.fail("missing message length");
        a.bytes = parseInt(ctx, toks[pos++], "message length");
        if (a.bytes < 0)
            ctx.fail("negative message length");
    }

    for (; pos < toks.size(); ++pos) {
        auto [key, value] = splitAttr(ctx, toks[pos]);
        if (key == "root" && row.rooted) {
            a.root = static_cast<int>(parseInt(ctx, value, "root"));
        } else if (key == "algo") {
            std::optional<Algo> algo = machine::algoFromKey(value);
            if (!algo)
                ctx.fail("unknown algorithm '" + std::string(value) +
                         "'");
            a.algo = *algo;
            if (a.algo != Algo::Default && a.algo != Algo::Auto &&
                !row.find(a.algo))
                ctx.fail(row.missing(a.algo));
        } else if (key == "group") {
            a.group = parseRankList(ctx, value, np);
        } else {
            ctx.fail("unknown attribute '" + std::string(key) + "'");
        }
    }

    int comm_size = a.group.empty() ? np
                                    : static_cast<int>(a.group.size());
    if (!a.group.empty() &&
        std::find(a.group.begin(), a.group.end(), ctx.rank) ==
            a.group.end())
        ctx.fail("rank is not a member of group");
    if (a.root < 0 || a.root >= comm_size)
        ctx.fail("root " + std::to_string(a.root) +
                 " outside communicator of " +
                 std::to_string(comm_size));
    if (vector_variant &&
        static_cast<int>(a.counts.size()) != comm_size)
        ctx.fail("count list has " + std::to_string(a.counts.size()) +
                 " entries for a communicator of " +
                 std::to_string(comm_size) + " (rank count mismatch)");
    return a;
}

} // namespace

std::string
actionKeyword(ActionKind k, Coll op, bool vector_variant)
{
    switch (k) {
      case ActionKind::Compute:
        return "compute";
      case ActionKind::Send:
        return "send";
      case ActionKind::Isend:
        return "isend";
      case ActionKind::Recv:
        return "recv";
      case ActionKind::Irecv:
        return "irecv";
      case ActionKind::Wait:
        return "wait";
      case ActionKind::Sendrecv:
        return "sendrecv";
      case ActionKind::Coll:
        return mpi::collOp(op, vector_variant).name;
      default:
        panic("actionKeyword: bad kind %d", static_cast<int>(k));
    }
}

Program
TraceParser::parse(std::istream &is, const std::string &name)
{
    Program prog;
    prog.source = name;
    prog.np = 0;

    // One line buffer for the whole stream; the tokens view into it.
    std::string raw;
    std::vector<std::string_view> toks;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        LineCtx ctx{&prog.source, lineno, -1};

        std::string_view rest =
            std::string_view(raw).substr(0, raw.find('#'));
        toks.clear();
        for (std::string_view w = nextWord(rest); !w.empty();
             w = nextWord(rest))
            toks.push_back(w);
        if (toks.empty())
            continue;

        if (toks[0] == "np") {
            if (prog.np > 0)
                ctx.fail("duplicate np directive");
            if (toks.size() != 2)
                ctx.fail("np wants exactly one value");
            long long np = parseInt(ctx, toks[1], "rank count");
            if (np < 1 || np > 1 << 20)
                ctx.fail("rank count " + std::string(toks[1]) +
                         " out of range");
            prog.np = static_cast<int>(np);
            prog.ranks.assign(static_cast<std::size_t>(np), {});
            continue;
        }
        if (prog.np == 0)
            ctx.fail("np directive must precede all actions");

        long long rank = parseInt(ctx, toks[0], "rank");
        if (rank < 0 || rank >= prog.np)
            ctx.fail("rank " + std::string(toks[0]) + " outside np " +
                     std::to_string(prog.np) + " (rank count mismatch)");
        ctx.rank = static_cast<int>(rank);
        if (toks.size() < 2)
            ctx.fail("missing action keyword");
        const std::string_view kw = toks[1];
        const Tokens args = Tokens(toks).subspan(2);

        Action a;
        if (kw == "compute") {
            if (args.size() != 1)
                ctx.fail("compute wants exactly one duration");
            a.kind = ActionKind::Compute;
            a.duration = parseMicrosExact(ctx, args[0]);
            a.line = lineno;
        } else if (kw == "send") {
            a = parsePtp(ctx, ActionKind::Send, args, prog.np);
        } else if (kw == "isend") {
            a = parsePtp(ctx, ActionKind::Isend, args, prog.np);
        } else if (kw == "recv") {
            a = parsePtp(ctx, ActionKind::Recv, args, prog.np);
        } else if (kw == "irecv") {
            a = parsePtp(ctx, ActionKind::Irecv, args, prog.np);
        } else if (kw == "sendrecv") {
            a = parsePtp(ctx, ActionKind::Sendrecv, args, prog.np);
        } else if (kw == "wait") {
            if (!args.empty())
                ctx.fail("wait takes no arguments");
            a.kind = ActionKind::Wait;
            a.line = lineno;
        } else if (kw == mpi::kGatherv.name) {
            a = parseCollective(ctx, mpi::kGatherv, args, prog.np);
        } else if (kw == mpi::kScatterv.name) {
            a = parseCollective(ctx, mpi::kScatterv, args, prog.np);
        } else if (std::optional<Coll> op = machine::collFromKey(kw)) {
            a = parseCollective(ctx, mpi::collOp(*op), args, prog.np);
        } else {
            ctx.fail("unknown collective '" + std::string(kw) + "'");
        }
        prog.ranks[static_cast<std::size_t>(rank)].push_back(
            std::move(a));
    }

    if (prog.np == 0)
        raiseError(TraceError(strFormat(
            "%s: empty trace (no np directive)", name.c_str())));
    return prog;
}

Program
TraceParser::parseFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        raiseError(TraceError(strFormat("cannot open trace file '%s'",
                                        path.c_str())));
    return parse(f, path);
}

std::string
formatMicrosExact(Time t)
{
    using namespace time_literals;
    if (t < 0)
        panic("formatMicrosExact: negative time %lld",
              static_cast<long long>(t));
    long long us = t / US;
    long long frac = t % US;
    std::string out = std::to_string(us);
    if (frac != 0) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "%06lld", frac);
        std::string f(buf);
        while (f.back() == '0')
            f.pop_back();
        out += "." + f;
    }
    return out;
}

std::string
formatAction(const Action &a)
{
    std::ostringstream os;
    os << actionKeyword(a.kind, a.op, a.vector_variant);
    switch (a.kind) {
      case ActionKind::Compute:
        os << ' ' << formatMicrosExact(a.duration);
        break;
      case ActionKind::Send:
      case ActionKind::Isend:
        os << ' ' << a.peer << ' ' << a.bytes;
        if (a.tag != 0)
            os << " tag=" << a.tag;
        break;
      case ActionKind::Recv:
      case ActionKind::Irecv:
        os << ' ' << a.peer;
        if (a.tag != 0)
            os << " tag=" << a.tag;
        break;
      case ActionKind::Wait:
        break;
      case ActionKind::Sendrecv:
        os << ' ' << a.peer << ' ' << a.peer2 << ' ' << a.bytes;
        if (a.tag != 0)
            os << " stag=" << a.tag;
        if (a.tag2 != 0)
            os << " rtag=" << a.tag2;
        break;
      case ActionKind::Coll:
        if (a.vector_variant) {
            os << ' ';
            for (std::size_t i = 0; i < a.counts.size(); ++i)
                os << (i ? "," : "") << a.counts[i];
        } else if (a.op != Coll::Barrier) {
            os << ' ' << a.bytes;
        }
        if (a.root != 0)
            os << " root=" << a.root;
        // Auto is suppressed like Default: both mean "no explicit
        // override", and recording either would make trace bytes
        // depend on which neutral spelling the program used.
        if (a.algo != Algo::Default && a.algo != Algo::Auto)
            os << " algo=" << machine::algoName(a.algo);
        if (!a.group.empty()) {
            os << " group=";
            for (std::size_t i = 0; i < a.group.size(); ++i)
                os << (i ? "," : "") << a.group[i];
        }
        break;
    }
    return os.str();
}

void
writeProgram(const Program &prog, std::ostream &os)
{
    os << "# ccsim trace v1\n";
    os << "np " << prog.np << "\n";
    for (int r = 0; r < prog.np; ++r)
        for (const Action &a : prog.ranks[static_cast<std::size_t>(r)])
            os << r << ' ' << formatAction(a) << '\n';
}

} // namespace ccsim::replay
