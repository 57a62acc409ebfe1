#include "util/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/field.hh"
#include "util/key_value.hh"
#include "util/logging.hh"

namespace ccsim::cli {

Options &
Options::flag(const std::string &name, const std::string &help)
{
    decls_.push_back({name, help, ""});
    return *this;
}

Options &
Options::value(const std::string &name, const std::string &help,
               const std::string &placeholder)
{
    decls_.push_back({name, help, placeholder});
    return *this;
}

const Options::Decl *
Options::find(const std::string &name) const
{
    for (const Decl &d : decls_)
        if (d.name == name)
            return &d;
    return nullptr;
}

const Options::Decl &
Options::declared(const std::string &name) const
{
    const Decl *d = find(name);
    if (!d)
        panic("option --%s read but never declared for %s",
              name.c_str(), prog_.c_str());
    return *d;
}

void
Options::parse(int argc, char **argv, int start)
{
    for (int i = start; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("expected --option, got '%s'\n%s", arg.c_str(),
                  usage().c_str());
        std::string key = arg.substr(2);
        if (key == "help") {
            std::printf("%s", usage().c_str());
            std::exit(0);
        }
        const Decl *d = find(key);
        if (!d) {
            std::vector<std::string> names;
            for (const Decl &decl : decls_)
                names.push_back(decl.name);
            std::string hint = closestMatch(key, names);
            if (!hint.empty())
                fatal("unknown option '--%s' (did you mean "
                      "'--%s'?)\n%s", key.c_str(), hint.c_str(),
                      usage().c_str());
            fatal("unknown option '--%s'\n%s", key.c_str(),
                  usage().c_str());
        }
        if (d->placeholder.empty()) {
            values_[key].assign(1, '1');
        } else {
            if (i + 1 >= argc)
                fatal("--%s needs a value\n%s", key.c_str(),
                      usage().c_str());
            values_[key] = argv[++i];
        }
    }
}

bool
Options::has(const std::string &name) const
{
    declared(name);
    return values_.count(name) != 0;
}

bool
Options::declares(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
Options::get(const std::string &name, const std::string &fallback) const
{
    declared(name);
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

long long
Options::getInt(const std::string &name, long long fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end()) {
        declared(name);
        return fallback;
    }
    long long v = 0;
    if (!parseWhole(it->second, v))
        fatal("bad integer for --%s: '%s'", name.c_str(),
              it->second.c_str());
    return v;
}

std::vector<std::string>
Options::getList(const std::string &name,
                 const std::string &fallback) const
{
    return splitList(get(name, fallback));
}

std::string
Options::usage() const
{
    std::ostringstream os;
    os << "usage: " << prog_;
    for (const Decl &d : decls_) {
        os << " [--" << d.name;
        if (!d.placeholder.empty())
            os << " " << d.placeholder;
        os << "]";
    }
    os << "\n";
    for (const Decl &d : decls_) {
        std::string lhs = "--" + d.name;
        if (!d.placeholder.empty())
            lhs += " " + d.placeholder;
        os << "  " << lhs;
        for (std::size_t i = lhs.size(); i < 22; ++i)
            os << ' ';
        os << d.help << "\n";
    }
    return os.str();
}

namespace {

/** Plain dynamic-programming Levenshtein distance. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

std::string
closestMatch(const std::string &given,
             const std::vector<std::string> &candidates)
{
    const std::string g = lowered(given);
    // A typo plausibly reaches its target within max(2, len/3)
    // edits; anything farther would suggest unrelated names.
    const std::size_t budget = std::max<std::size_t>(2, g.size() / 3);
    std::string best;
    std::size_t best_dist = budget + 1;
    for (const std::string &c : candidates) {
        // d == 0 still suggests: a case-mangled spelling ("--Jobs")
        // is unknown to the case-sensitive schema but lowers to an
        // exact candidate.
        std::size_t d = editDistance(g, lowered(c));
        if (d < best_dist) {
            best_dist = d;
            best = c;
        }
    }
    return best;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string item;
    std::stringstream ss(s);
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace ccsim::cli
