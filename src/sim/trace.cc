#include "sim/trace.hh"

#include "util/json.hh"
#include "util/logging.hh"

namespace ccsim::sim {

std::string
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::Compute:
        return "compute";
      case SpanKind::Send:
        return "send";
      case SpanKind::Recv:
        return "recv";
      default:
        panic("spanKindName: bad kind %d", static_cast<int>(k));
    }
}

void
Trace::record(const Span &s)
{
    if (s.end < s.start)
        panic("Trace::record: span ends (%lld) before it starts (%lld)",
              static_cast<long long>(s.end),
              static_cast<long long>(s.start));
    // A traced collective records thousands of spans; grab a big
    // block up front so the hot path never reallocates early and
    // often.
    if (spans_.capacity() == spans_.size())
        spans_.reserve(spans_.empty() ? 4096 : 2 * spans_.size());
    spans_.push_back(s);
    Span &sp = spans_.back();
    if (sp.label.empty() && sp.rank >= 0 &&
        static_cast<std::size_t>(sp.rank) < phase_.size())
        sp.label = phase_[static_cast<std::size_t>(sp.rank)];
}

void
Trace::recordCounter(Time when, const std::string &name, double value)
{
    counters_.push_back(CounterSample{when, name, value});
}

void
Trace::setPhase(int rank, std::string label)
{
    if (rank < 0)
        return;
    if (static_cast<std::size_t>(rank) >= phase_.size())
        phase_.resize(static_cast<std::size_t>(rank) + 1);
    phase_[static_cast<std::size_t>(rank)] = std::move(label);
}

void
Trace::writeChromeJson(std::ostream &os) const
{
    os << "[";
    bool first = true;
    for (const Span &s : spans_) {
        if (!first)
            os << ",";
        first = false;
        const std::string &name =
            s.label.empty() ? spanKindName(s.kind) : s.label;
        os << "\n  {\"name\": \"" << jsonEscape(name) << "\""
           << ", \"ph\": \"X\""
           << ", \"ts\": " << toMicros(s.start)
           << ", \"dur\": " << toMicros(s.duration())
           << ", \"pid\": 0"
           << ", \"tid\": " << s.rank << ", \"args\": {\"kind\": \""
           << spanKindName(s.kind) << "\", \"bytes\": " << s.bytes
           << ", \"peer\": " << s.peer << "}}";
    }
    for (const CounterSample &c : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  {\"name\": \"" << jsonEscape(c.name) << "\""
           << ", \"ph\": \"C\""
           << ", \"ts\": " << toMicros(c.when)
           << ", \"pid\": 0"
           << ", \"args\": {\"value\": " << c.value << "}}";
    }
    os << "\n]\n";
}

void
Trace::writeCsv(std::ostream &os) const
{
    os << "rank,kind,start_us,end_us,bytes,peer,label\n";
    for (const Span &s : spans_) {
        os << s.rank << ',' << spanKindName(s.kind) << ','
           << toMicros(s.start) << ',' << toMicros(s.end) << ','
           << s.bytes << ',' << s.peer << ',' << s.label << '\n';
    }
}

std::map<int, RankSummary>
Trace::summarize() const
{
    std::map<int, RankSummary> out;
    for (const Span &s : spans_) {
        RankSummary &r = out[s.rank];
        ++r.spans;
        switch (s.kind) {
          case SpanKind::Compute:
            r.compute += s.duration();
            break;
          case SpanKind::Send:
            r.send += s.duration();
            break;
          case SpanKind::Recv:
            r.recv += s.duration();
            break;
        }
    }
    return out;
}

} // namespace ccsim::sim
