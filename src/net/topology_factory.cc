#include "net/topology_factory.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "net/dragonfly.hh"
#include "net/fat_tree.hh"
#include "net/fully_connected.hh"
#include "net/hierarchical.hh"
#include "net/hypercube.hh"
#include "net/mesh2d.hh"
#include "net/omega.hh"
#include "net/torus3d.hh"
#include "util/cli.hh"
#include "util/error.hh"

namespace ccsim::net {
namespace {

[[noreturn]] void
specFail(const std::string &spec, const std::string &why)
{
    throw ConfigError("bad topology spec '" + spec + "': " + why);
}

/** Strictly parse a positive integer field of a spec. */
int
parsePositive(const std::string &spec, const std::string &field,
              const std::string &what)
{
    if (field.empty())
        specFail(spec, "empty " + what);
    long v = 0;
    for (char ch : field) {
        if (!std::isdigit(static_cast<unsigned char>(ch)))
            specFail(spec, what + " '" + field +
                               "' is not a positive integer");
        v = v * 10 + (ch - '0');
        if (v > 1'000'000'000L)
            specFail(spec, what + " '" + field + "' is out of range");
    }
    if (v < 1)
        specFail(spec, what + " must be >= 1");
    return static_cast<int>(v);
}

/** Split @p s on @p sep, keeping empty items (they are errors the
 *  caller reports with context). */
std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

/** Parse "AxBxC..." into exactly @p want positive dimensions. */
std::vector<int>
parseDims(const std::string &spec, const std::string &params,
          std::size_t want, const std::string &shape)
{
    auto fields = splitOn(params, 'x');
    if (fields.size() != want)
        specFail(spec, "expected " + shape + ", got '" + params + "'");
    std::vector<int> dims;
    for (const auto &f : fields)
        dims.push_back(parsePositive(spec, f, "dimension"));
    return dims;
}

/** Check explicit dimensions multiply out to the machine size. */
void
checkProduct(const std::string &spec, const std::vector<int> &dims,
             int p)
{
    long long prod = 1;
    for (int d : dims)
        prod *= d;
    if (prod != p) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "dimensions give %lld nodes but the machine "
                      "has %d",
                      prod, p);
        specFail(spec, buf);
    }
}

/** A spec's optional `hier:CHIPSxCORES/` prefix and the inner spec
 *  after it; chips == 0 when there is no prefix. */
struct HierSplit
{
    int chips = 0;
    int cores = 0;
    std::string inner;
};

HierSplit
splitHier(const std::string &spec)
{
    if (spec.empty())
        specFail(spec, "empty spec");
    if (spec.rfind("hier:", 0) != 0)
        return {0, 0, spec};
    const std::string rest = spec.substr(5);
    const auto slash = rest.find('/');
    if (slash == std::string::npos)
        specFail(spec, "hier needs CHIPSxCORES/inner-spec");
    auto shape =
        parseDims(spec, rest.substr(0, slash), 2, "CHIPSxCORES");
    return {shape[0], shape[1], rest.substr(slash + 1)};
}

std::unique_ptr<Topology>
makeInner(const std::string &spec, const std::string &inner, int p)
{
    std::string family = inner;
    std::string params;
    if (auto colon = inner.find(':'); colon != std::string::npos) {
        family = inner.substr(0, colon);
        params = inner.substr(colon + 1);
    }
    const bool has_params = family.size() < inner.size();

    // A single node has no fabric to shape: every family (and every
    // `hier:` inner of one node) is one fully-connected node, and
    // its parameters go unchecked.
    const auto &families = topologyFamilies();
    if (p == 1 && family != "hier" &&
        std::find(families.begin(), families.end(), family) !=
            families.end())
        return std::make_unique<FullyConnected>(1);

    if (family == "mesh2d") {
        auto [rows, cols] = meshDimsFor(p);
        if (has_params) {
            auto d = parseDims(spec, params, 2, "ROWSxCOLS");
            checkProduct(spec, d, p);
            rows = d[0];
            cols = d[1];
        }
        return std::make_unique<Mesh2D>(rows, cols);
    }
    if (family == "torus3d") {
        auto [nx, ny, nz] = torusDimsFor(p);
        if (has_params) {
            auto d = parseDims(spec, params, 3, "XxYxZ");
            checkProduct(spec, d, p);
            nx = d[0];
            ny = d[1];
            nz = d[2];
        }
        return std::make_unique<Torus3D>(nx, ny, nz);
    }
    if (family == "omega") {
        int radix = 4;
        if (has_params)
            radix = parsePositive(spec, params, "switch radix");
        if (radix < 2)
            specFail(spec, "switch radix must be >= 2");
        return std::make_unique<Omega>(p, radix);
    }
    if (family == "hypercube") {
        if (has_params)
            specFail(spec, "hypercube takes no parameters");
        if ((p & (p - 1)) != 0)
            specFail(spec, "hypercube needs a power-of-two node "
                           "count, got " +
                               std::to_string(p));
        return std::make_unique<Hypercube>(p);
    }
    if (family == "fully-connected") {
        if (has_params)
            specFail(spec, "fully-connected takes no parameters");
        return std::make_unique<FullyConnected>(p);
    }
    if (family == "dragonfly") {
        if (!has_params)
            return Dragonfly::balancedFor(p);
        auto d = parseDims(spec, params, 3, "GROUPSxROUTERSxNODES");
        checkProduct(spec, d, p);
        return std::make_unique<Dragonfly>(d[0], d[1], d[2]);
    }
    if (family == "fattree") {
        if (!has_params)
            return FatTree::balancedFor(p);
        auto blocks = splitOn(params, ';');
        if (blocks.size() != 3)
            specFail(spec, "expected L;d1,..,dL;u1,..,uL, got '" +
                               params + "'");
        const std::size_t levels = static_cast<std::size_t>(
            parsePositive(spec, blocks[0], "level count"));
        std::vector<int> down, up;
        for (const auto &f : splitOn(blocks[1], ','))
            down.push_back(parsePositive(spec, f, "down radix"));
        for (const auto &f : splitOn(blocks[2], ','))
            up.push_back(parsePositive(spec, f, "up radix"));
        if (down.size() != levels || up.size() != levels)
            specFail(spec,
                     "level count says " + blocks[0] + " but got " +
                         std::to_string(down.size()) + " down and " +
                         std::to_string(up.size()) + " up radices");
        checkProduct(spec, down, p);
        return std::make_unique<FatTree>(std::move(down),
                                         std::move(up));
    }

    std::string msg = "unknown topology family '" + family + "'";
    if (auto hint = cli::closestMatch(family, topologyFamilies());
        !hint.empty())
        msg += " (did you mean '" + hint + "'?)";
    specFail(spec, msg);
}

} // namespace

const std::vector<std::string> &
topologyFamilies()
{
    static const std::vector<std::string> families{
        "mesh2d",    "torus3d",        "omega",     "hypercube",
        "fattree",   "fully-connected", "dragonfly", "hier",
    };
    return families;
}

void
checkTopologySpec(const std::string &spec)
{
    makeInner(spec, splitHier(spec).inner, 1);
}

std::unique_ptr<Topology>
makeTopology(const std::string &spec, int p)
{
    if (p < 1)
        throw ConfigError("bad topology spec '" + spec +
                          "': machine needs at least 1 node, got " +
                          std::to_string(p));
    const HierSplit split = splitHier(spec);
    if (split.chips == 0)
        return makeInner(spec, spec, p);
    const long long per_node = 1LL * split.chips * split.cores;
    if (p % per_node != 0) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "%d ranks do not divide into %lld per node", p,
                      per_node);
        specFail(spec, buf);
    }
    return std::make_unique<Hierarchical>(
        makeInner(spec, split.inner, static_cast<int>(p / per_node)),
        split.chips, split.cores);
}

} // namespace ccsim::net
