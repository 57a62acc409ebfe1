#include "machine/config_io.hh"

#include <fstream>
#include <map>
#include <mutex>

#include "net/topology_factory.hh"
#include "util/key_value.hh"
#include "util/logging.hh"

namespace ccsim::machine {

namespace {

/** Set @p v from the value of config line @p key. */
template <class T>
void
readValue(T &v, Unit unit, const std::string &key,
          const std::string &value)
{
    if constexpr (std::is_same_v<T, Algo>) {
        v = algoFromName(value);
        // "auto" is a per-call request resolved through a selection
        // table; a machine's configured choice is what Auto falls
        // back TO, so it must be concrete.
        if (v == Algo::Auto)
            configFatal("'%s' cannot be 'auto': the machine default "
                        "is what auto falls back to",
                        key.c_str());
    } else if constexpr (std::is_same_v<T, fault::RecoveryPolicy>) {
        v = fault::policyFromName(value);
    } else if (const char *kind = readField(value, v, unit)) {
        configFatal("bad %s value '%s' for key '%s'", kind,
                    value.c_str(), key.c_str());
    }
}

/**
 * Apply config line @p key (line @p lineno) through the reading
 * field walk; when no field has that key, say which part of it is
 * unknown.
 */
void
applySetting(MachineConfig &cfg, const std::string &key,
             const std::string &value, int lineno)
{
    const std::size_t dot = key.find('.');
    const bool scoped = dot != std::string::npos;
    const std::string_view scope =
        scoped ? std::string_view(key).substr(0, dot) : "";
    const std::string_view field =
        std::string_view(key).substr(scoped ? dot + 1 : 0);
    bool found = false;
    bool known_scope = false;
    forEachField(cfg, [&](const Field &f, auto &v) {
        // A dotted key names a scoped field, a plain key a top-level
        // one (".name" is not `name`).
        if (found || f.scope != scope || f.scope.empty() == scoped)
            return;
        known_scope = true;
        if (f.key == field) {
            found = true;
            readValue(v, f.unit, key, value);
        }
    });
    if (found)
        return;
    if (!scoped)
        configFatal("unknown key '%s'", key.c_str());
    if (collFromKey(scope))
        configFatal("unknown collective field '%s'", key.c_str());
    if (!known_scope)
        configFatal("config line %d: unknown collective '%s'", lineno,
                    std::string(scope).c_str());
    configFatal("unknown %s field '%s'", std::string(scope).c_str(),
                key.c_str());
}

/**
 * The keys older files used to name the fabric next to `topology`.
 * They are read, never written: fold() turns them into the one spec
 * with their old precedence.
 */
struct LegacyTopologyKeys
{
    std::string spec; //!< topology_spec; "none" and unset are empty
    int radix = 4;    //!< switch_radix (the omega default)
    int chips = 0;    //!< hierarchy.chips; 0 means flat
    int cores = 1;    //!< hierarchy.cores

    /** Take @p key if it is a legacy one; false otherwise. */
    bool
    take(const std::string &key, const std::string &value)
    {
        if (key == "topology_spec")
            spec = value == "none" ? "" : value;
        else if (key == "switch_radix")
            readValue(radix, Unit::Plain, key, value);
        else if (key == "hierarchy.chips")
            readValue(chips, Unit::Plain, key, value);
        else if (key == "hierarchy.cores")
            readValue(cores, Unit::Plain, key, value);
        else
            return false;
        return true;
    }

    void
    fold(std::string &topology) const
    {
        if (!spec.empty()) { // topology_spec overrides all the rest
            topology = spec;
            return;
        }
        if (topology == "omega" && radix != 4)
            topology += ":" + std::to_string(radix);
        if (chips != 0)
            topology = "hier:" + std::to_string(chips) + "x" +
                       std::to_string(cores) + "/" + topology;
    }
};

} // namespace

std::string
collKey(Coll op)
{
    if (op < Coll::Barrier || op >= Coll::NumColl)
        panic("collKey: bad collective %d", static_cast<int>(op));
    return std::string(kCollKeys[static_cast<std::size_t>(op)]);
}

std::optional<Coll>
collFromKey(std::string_view key)
{
    for (Coll op : kAllColls)
        if (kCollKeys[static_cast<std::size_t>(op)] == key)
            return op;
    return std::nullopt;
}

std::optional<Algo>
algoFromKey(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(Algo::Auto); ++i) {
        Algo a = static_cast<Algo>(i);
        if (algoName(a) == name)
            return a;
    }
    return std::nullopt;
}

Algo
algoFromName(const std::string &name)
{
    if (std::optional<Algo> a = algoFromKey(name))
        return *a;
    std::string valid;
    for (int i = 0; i <= static_cast<int>(Algo::Auto); ++i) {
        if (!valid.empty())
            valid += ", ";
        valid += algoName(static_cast<Algo>(i));
    }
    configFatal("unknown algorithm '%s' (valid: %s)", name.c_str(),
                valid.c_str());
}

MachineConfig
presetByName(const std::string &name)
{
    // Case-insensitive: "paragon" from a shell is as valid as
    // "Paragon" from the paper.
    const std::string lower = lowered(name);
    if (lower == "sp2")
        return sp2Config();
    if (lower == "t3d")
        return t3dConfig();
    if (lower == "paragon")
        return paragonConfig();
    if (lower == "ideal")
        return idealConfig();
    configFatal("unknown preset '%s' (SP2, T3D, Paragon, Ideal)",
                name.c_str());
}

void
saveConfig(const MachineConfig &cfg, std::ostream &os)
{
    os.precision(12); // lossless round trip for all calibrations
    os << "# ccsim machine configuration\n";
    std::string_view block; // a blank line opens each block
    forEachField(cfg, [&](const Field &f, const auto &v) {
        if (f.omitted)
            return;
        if (f.scope != block) {
            os << "\n";
            block = f.scope;
        }
        if (!f.scope.empty())
            os << f.scope << ".";
        os << f.key << " = ";
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            os << (v ? "true" : "false");
        else if constexpr (std::is_same_v<T, Algo>)
            os << algoName(v);
        else if constexpr (std::is_same_v<T, fault::RecoveryPolicy>)
            os << fault::policyName(v);
        else if constexpr (!std::is_same_v<T, Time>)
            os << v;
        else if (f.unit == Unit::Micros)
            os << toMicros(v);
        else if (f.unit == Unit::Nanos)
            os << toNanos(v);
        else
            os << v;
        os << "\n";
    });
}

void
saveConfigFile(const MachineConfig &cfg, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        configFatal("cannot write '%s'", path.c_str());
    saveConfig(cfg, out);
}

MachineConfig
loadConfig(std::istream &is)
{
    MachineConfig cfg = idealConfig();
    cfg.name = "custom";

    LegacyTopologyKeys legacy;
    bool first_setting = true;
    forEachSetting(is, "config", [&](const std::string &key,
                                     const std::string &value,
                                     int lineno) {
        if (key == "base") {
            if (!first_setting)
                configFatal("config line %d: 'base' must be the first "
                            "setting", lineno);
            std::string name = cfg.name;
            cfg = presetByName(value);
            cfg.name = name;
        } else if (!legacy.take(key, value)) {
            applySetting(cfg, key, value, lineno);
        }
        first_setting = false;
    });
    legacy.fold(cfg.topology);
    try {
        net::checkTopologySpec(cfg.topology);
    } catch (const ConfigError &e) {
        raiseError(e);
    }
    cfg.validate();
    return cfg;
}

MachineConfig
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        configFatal("cannot read '%s'", path.c_str());
    return loadConfig(in);
}

namespace {

/**
 * The shared-config registry behind sharedPreset()/sharedConfigFile():
 * parse + validate once per distinct source, hand out immutable
 * handles forever after.  Config descriptions are a few hundred
 * bytes and the set of distinct sources a process touches is tiny,
 * so entries are never evicted.
 */
struct ConfigRegistry
{
    std::mutex mu;
    std::map<std::string, ConfigHandle> by_key;
};

ConfigRegistry &
configRegistry()
{
    static ConfigRegistry r;
    return r;
}

ConfigHandle
cachedConfig(const std::string &key,
             MachineConfig (*load)(const std::string &),
             const std::string &arg)
{
    ConfigRegistry &r = configRegistry();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.by_key.find(key);
        if (it != r.by_key.end())
            return it->second;
    }
    // Parse outside the lock (file I/O, and load may raise
    // ConfigError); a racing duplicate parse is harmless — last one
    // in wins and both results are identical.
    ConfigHandle handle =
        std::make_shared<const MachineConfig>(load(arg));
    handle->validate();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.by_key.emplace(key, std::move(handle)).first->second;
}

} // namespace

ConfigHandle
sharedPreset(const std::string &name)
{
    return cachedConfig("preset:" + lowered(name), presetByName, name);
}

ConfigHandle
sharedConfigFile(const std::string &path)
{
    return cachedConfig("file:" + path, loadConfigFile, path);
}

} // namespace ccsim::machine
