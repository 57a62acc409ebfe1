#include "stats/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/json.hh"

namespace ccsim::stats {

namespace {

/** Fixed-format double: snapshots of equal state must serialize
 *  byte-identically regardless of stream locale or precision. */
std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

HistogramSnapshot
HistogramSnapshot::of(const Histogram &h)
{
    HistogramSnapshot s;
    s.count = h.count();
    s.total_weight = h.totalWeight();
    s.weighted_sum = h.weightedSum();
    s.min = h.min();
    s.max = h.max();
    for (int i = 0; i < Histogram::kBuckets; ++i)
        if (h.bucketWeight(i) != 0.0)
            s.buckets.emplace_back(i, h.bucketWeight(i));
    return s;
}

double
HistogramSnapshot::mean() const
{
    return total_weight > 0.0 ? weighted_sum / total_weight : 0.0;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    total_weight += other.total_weight;
    weighted_sum += other.weighted_sum;

    std::vector<std::pair<int, double>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    auto a = buckets.begin();
    auto b = other.buckets.begin();
    while (a != buckets.end() || b != other.buckets.end()) {
        if (b == other.buckets.end() ||
            (a != buckets.end() && a->first < b->first)) {
            merged.push_back(*a++);
        } else if (a == buckets.end() || b->first < a->first) {
            merged.push_back(*b++);
        } else {
            merged.emplace_back(a->first, a->second + b->second);
            ++a;
            ++b;
        }
    }
    buckets = std::move(merged);
}

bool
MetricsSnapshot::empty() const
{
    return counters.empty() && gauges.empty() && histograms.empty() &&
           links.empty();
}

double
MetricsSnapshot::maxLinkUtil() const
{
    double m = 0.0;
    for (const auto &l : links)
        m = std::max(m, l.util);
    return m;
}

double
MetricsSnapshot::totalStallUs() const
{
    double s = 0.0;
    for (const auto &l : links)
        s += l.stall_us;
    return s;
}

double
MetricsSnapshot::totalLinkBusyUs() const
{
    double s = 0.0;
    for (const auto &l : links)
        s += l.busy_us;
    return s;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, v] : other.gauges) {
        auto [it, inserted] = gauges.emplace(name, v);
        if (!inserted)
            it->second = std::max(it->second, v);
    }
    for (const auto &[name, h] : other.histograms)
        histograms[name].merge(h);

    horizon_us = std::max(horizon_us, other.horizon_us);

    std::map<std::string, LinkRow> by_name;
    for (auto &l : links)
        by_name[l.link] = std::move(l);
    for (const auto &l : other.links) {
        LinkRow &row = by_name[l.link];
        row.link = l.link;
        row.bytes += l.bytes;
        row.busy_us += l.busy_us;
        row.stall_us += l.stall_us;
    }
    links.clear();
    for (auto &[name, row] : by_name) {
        row.util = horizon_us > 0.0 ? row.busy_us / horizon_us : 0.0;
        links.push_back(std::move(row));
    }
}

void
MetricsSnapshot::writeCsv(std::ostream &os) const
{
    os << "name,kind,field,value\n";
    os << "horizon_us,meta,value," << fmt(horizon_us) << "\n";
    for (const auto &[name, v] : counters)
        os << name << ",counter,value," << v << "\n";
    for (const auto &[name, v] : gauges)
        os << name << ",gauge,max," << fmt(v) << "\n";
    for (const auto &[name, h] : histograms) {
        os << name << ",histogram,count," << h.count << "\n";
        os << name << ",histogram,mean," << fmt(h.mean()) << "\n";
        os << name << ",histogram,min," << fmt(h.min) << "\n";
        os << name << ",histogram,max," << fmt(h.max) << "\n";
        for (const auto &[bucket, weight] : h.buckets)
            os << name << ",histogram,bucket_le_"
               << fmt(Histogram::bucketUpperBound(bucket)) << ","
               << fmt(weight) << "\n";
    }
    for (const auto &l : links) {
        os << l.link << ",link,bytes," << l.bytes << "\n";
        os << l.link << ",link,busy_us," << fmt(l.busy_us) << "\n";
        os << l.link << ",link,stall_us," << fmt(l.stall_us) << "\n";
        os << l.link << ",link,util," << fmt(l.util) << "\n";
    }
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    os << "{\n  \"horizon_us\": " << fmt(horizon_us) << ",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << v;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << fmt(v);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << h.count << ", \"mean\": "
           << fmt(h.mean()) << ", \"min\": " << fmt(h.min)
           << ", \"max\": " << fmt(h.max) << ", \"buckets\": [";
        bool bfirst = true;
        for (const auto &[bucket, weight] : h.buckets) {
            os << (bfirst ? "" : ", ") << "["
               << fmt(Histogram::bucketUpperBound(bucket)) << ", "
               << fmt(weight) << "]";
            bfirst = false;
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"links\": [";
    first = true;
    for (const auto &l : links) {
        os << (first ? "\n" : ",\n") << "    {\"link\": \""
           << jsonEscape(l.link) << "\", \"bytes\": " << l.bytes
           << ", \"busy_us\": " << fmt(l.busy_us) << ", \"stall_us\": "
           << fmt(l.stall_us) << ", \"util\": " << fmt(l.util) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
}

std::string
MetricsSnapshot::toCsv() const
{
    std::ostringstream oss;
    writeCsv(oss);
    return oss.str();
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream oss;
    writeJson(oss);
    return oss.str();
}

} // namespace ccsim::stats
