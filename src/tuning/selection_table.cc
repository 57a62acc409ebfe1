#include "tuning/selection_table.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "machine/config_io.hh"
#include "util/field.hh"
#include "util/key_value.hh"
#include "util/logging.hh"

namespace ccsim::tuning {

using machine::Algo;
using machine::Coll;

namespace {

bool
ruleLess(const SelectionRule &a, const SelectionRule &b)
{
    return a.p_min != b.p_min ? a.p_min < b.p_min : a.m_min < b.m_min;
}

Coll
collByKey(const std::string &key, int lineno)
{
    if (auto op = machine::collFromKey(key))
        return *op;
    configFatal("selection line %d: unknown collective '%s'", lineno,
                key.c_str());
}

/** Parse "p>=N" / "m>=M" with a non-negative integer bound. */
long long
parseBound(const std::string &token, const char *prefix, int lineno)
{
    std::string pre(prefix);
    if (token.compare(0, pre.size(), pre) != 0)
        configFatal("selection line %d: expected '%s<int>', got '%s'",
                    lineno, prefix, token.c_str());
    long long v = 0;
    if (!parseWhole(token.substr(pre.size()), v) || v < 0)
        configFatal("selection line %d: bad bound '%s'", lineno,
                    token.c_str());
    return v;
}

} // namespace

void
SelectionTable::addRule(Coll op, const SelectionRule &rule)
{
    if (rule.p_min < 2)
        configFatal("selection rule for %s: p>=%d is below the "
                    "smallest communicator (p>=2)",
                    machine::collKey(op).c_str(), rule.p_min);
    if (rule.m_min < 0)
        configFatal("selection rule for %s: negative message-length "
                    "bound m>=%lld", machine::collKey(op).c_str(),
                    static_cast<long long>(rule.m_min));
    if (rule.algo == Algo::Default || rule.algo == Algo::Auto)
        configFatal("selection rule for %s: target algorithm must be "
                    "concrete, not '%s'", machine::collKey(op).c_str(),
                    algoName(rule.algo).c_str());

    auto &rules = rules_[static_cast<size_t>(op)];
    auto pos = std::lower_bound(rules.begin(), rules.end(), rule,
                                ruleLess);
    if (pos != rules.end() && pos->p_min == rule.p_min &&
        pos->m_min == rule.m_min) {
        pos->algo = rule.algo; // same region: last writer wins
        return;
    }
    rules.insert(pos, rule);
}

const std::vector<SelectionRule> &
SelectionTable::rulesFor(Coll op) const
{
    return rules_[static_cast<size_t>(op)];
}

Algo
SelectionTable::choose(Coll op, int p, Bytes m) const
{
    // Rules are sorted ascending by (p_min, m_min), so the last
    // match is the most specific region containing (p, m).
    Algo best = Algo::Default;
    for (const SelectionRule &r : rules_[static_cast<size_t>(op)])
        if (p >= r.p_min && m >= r.m_min)
            best = r.algo;
    return best;
}

bool
SelectionTable::empty() const
{
    for (const auto &rules : rules_)
        if (!rules.empty())
            return false;
    return true;
}

bool
SelectionTable::operator==(const SelectionTable &o) const
{
    return machine_ == o.machine_ && rules_ == o.rules_;
}

void
SelectionTable::save(std::ostream &os) const
{
    os << "# ccsim algorithm selection table\n";
    os << "machine = " << machine_ << "\n";
    for (Coll op : machine::kAllColls) {
        const auto &rules = rules_[static_cast<size_t>(op)];
        if (rules.empty())
            continue;
        os << "\n";
        for (const SelectionRule &r : rules)
            os << machine::collKey(op) << ".rule = p>=" << r.p_min
               << " m>=" << r.m_min << " " << algoName(r.algo) << "\n";
    }
}

void
SelectionTable::saveFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        configFatal("cannot write '%s'", path.c_str());
    save(out);
}

SelectionTable
SelectionTable::load(std::istream &is)
{
    SelectionTable table;
    forEachSetting(is, "selection", [&](const std::string &key,
                                        const std::string &value,
                                        int lineno) {
        if (key == "machine") {
            table.machine_ = value;
            return;
        }

        auto dot = key.find('.');
        if (dot == std::string::npos || key.substr(dot + 1) != "rule")
            configFatal("selection line %d: unknown key '%s' (expected "
                        "'machine' or '<op>.rule')", lineno,
                        key.c_str());
        Coll op = collByKey(key.substr(0, dot), lineno);

        std::istringstream vs(value);
        std::string ptok, mtok, atok, extra;
        vs >> ptok >> mtok >> atok;
        if (atok.empty() || (vs >> extra))
            configFatal("selection line %d: expected "
                        "'p>=<int> m>=<int> <algo>', got '%s'", lineno,
                        value.c_str());

        SelectionRule rule;
        rule.p_min = static_cast<int>(parseBound(ptok, "p>=", lineno));
        rule.m_min =
            static_cast<Bytes>(parseBound(mtok, "m>=", lineno));
        rule.algo = machine::algoFromName(atok);
        table.addRule(op, rule);
    });
    return table;
}

SelectionTable
SelectionTable::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        configFatal("cannot read '%s'", path.c_str());
    return load(in);
}

SelectionTable
fixedTable(const std::string &machine_name)
{
    const std::string lower = lowered(machine_name);
    SelectionTable t;
    auto rule = [&t](Coll op, int p, Bytes m, Algo a) {
        t.addRule(op, {p, m, a});
    };

    if (lower == "sp2") {
        // SP2 (Section 4): the multistage switch gives uniform
        // point-to-point costs, so log-round algorithms win almost
        // everywhere; the paper's own observation that the vendor
        // binomial bcast loses to van de Geijn past the rendezvous
        // switch sets the 16 KB crossover.
        t.setMachine("SP2");
        rule(Coll::Barrier, 2, 0, Algo::Dissemination);
        rule(Coll::Bcast, 2, 0, Algo::Binomial);
        rule(Coll::Bcast, 2, 16384, Algo::ScatterAllgather);
        rule(Coll::Gather, 2, 0, Algo::Binomial);
        rule(Coll::Gather, 2, 4096, Algo::Linear);
        rule(Coll::Scatter, 2, 0, Algo::Binomial);
        rule(Coll::Scatter, 2, 4096, Algo::Linear);
        rule(Coll::Allgather, 2, 0, Algo::RecursiveDoubling);
        rule(Coll::Allgather, 2, 8192, Algo::Ring);
        rule(Coll::Alltoall, 2, 0, Algo::Bruck);
        rule(Coll::Alltoall, 2, 1024, Algo::Pairwise);
        rule(Coll::Reduce, 2, 0, Algo::Binomial);
        rule(Coll::Allreduce, 2, 0, Algo::RecursiveDoubling);
        rule(Coll::Allreduce, 2, 8192, Algo::Rabenseifner);
        rule(Coll::ReduceScatter, 2, 0, Algo::RecursiveHalving);
        rule(Coll::Scan, 2, 0, Algo::RecursiveDoubling);
    } else if (lower == "t3d") {
        // T3D (Section 5): the hardware AND-tree barrier is
        // unbeatable; high link bandwidth plus the BLT make
        // bandwidth-bound algorithms attractive earlier than on the
        // SP2 (lower crossovers).
        t.setMachine("T3D");
        rule(Coll::Barrier, 2, 0, Algo::Hardware);
        rule(Coll::Bcast, 2, 0, Algo::Binomial);
        rule(Coll::Bcast, 2, 8192, Algo::ScatterAllgather);
        rule(Coll::Gather, 2, 0, Algo::Binomial);
        rule(Coll::Gather, 2, 2048, Algo::Linear);
        rule(Coll::Scatter, 2, 0, Algo::Binomial);
        rule(Coll::Scatter, 2, 2048, Algo::Linear);
        rule(Coll::Allgather, 2, 0, Algo::RecursiveDoubling);
        rule(Coll::Allgather, 2, 4096, Algo::Ring);
        rule(Coll::Alltoall, 2, 0, Algo::Bruck);
        rule(Coll::Alltoall, 2, 512, Algo::Pairwise);
        rule(Coll::Reduce, 2, 0, Algo::Binomial);
        rule(Coll::Allreduce, 2, 0, Algo::RecursiveDoubling);
        rule(Coll::Allreduce, 2, 4096, Algo::Rabenseifner);
        rule(Coll::ReduceScatter, 2, 0, Algo::RecursiveHalving);
        rule(Coll::Scan, 2, 0, Algo::RecursiveDoubling);
    } else if (lower == "paragon") {
        // Paragon (Section 6): per-message software dominates (NX
        // overheads), so minimizing message count matters more than
        // on the other machines; the 2-D mesh also penalizes the
        // non-neighbor exchanges of recursive doubling at scale.
        t.setMachine("Paragon");
        rule(Coll::Barrier, 2, 0, Algo::Dissemination);
        rule(Coll::Bcast, 2, 0, Algo::Binomial);
        rule(Coll::Bcast, 2, 32768, Algo::ScatterAllgather);
        rule(Coll::Gather, 2, 0, Algo::Binomial);
        rule(Coll::Gather, 2, 8192, Algo::Linear);
        rule(Coll::Scatter, 2, 0, Algo::Binomial);
        rule(Coll::Scatter, 2, 8192, Algo::Linear);
        rule(Coll::Allgather, 2, 0, Algo::RecursiveDoubling);
        rule(Coll::Allgather, 2, 8192, Algo::Ring);
        rule(Coll::Alltoall, 2, 0, Algo::Bruck);
        rule(Coll::Alltoall, 2, 2048, Algo::Pairwise);
        rule(Coll::Reduce, 2, 0, Algo::Binomial);
        rule(Coll::Allreduce, 2, 0, Algo::ReduceBcast);
        rule(Coll::Allreduce, 2, 8192, Algo::Rabenseifner);
        rule(Coll::ReduceScatter, 2, 0, Algo::RecursiveHalving);
        rule(Coll::Scan, 2, 0, Algo::RecursiveDoubling);
    } else {
        configFatal("no built-in selection table for '%s' "
                    "(SP2, T3D, Paragon)", machine_name.c_str());
    }
    return t;
}

Algo
resolveAlgo(const machine::MachineConfig &cfg, Coll op, int p, Bytes m,
            Algo requested)
{
    Algo a = requested;
    if (a == Algo::Auto) {
        a = cfg.selection ? cfg.selection->choose(op, p, m)
                          : Algo::Default;
    }
    if (a == Algo::Default)
        a = cfg.algorithmFor(op);
    return a;
}

void
attachSelection(machine::MachineConfig &cfg,
                const std::string &name_or_path)
{
    const std::string lower = lowered(name_or_path);
    if (lower == "sp2" || lower == "t3d" || lower == "paragon") {
        cfg.selection = std::make_shared<const SelectionTable>(
            fixedTable(name_or_path));
        return;
    }
    cfg.selection = std::make_shared<const SelectionTable>(
        SelectionTable::loadFile(name_or_path));
}

} // namespace ccsim::tuning
