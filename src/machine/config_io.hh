/**
 * @file
 * MachineConfig serialization: a simple `key = value` text format so
 * downstream users can define their own machines (or perturb the
 * calibrated presets) without recompiling.
 *
 * Format: one `key = value` per line; `#` starts a comment; a
 * `base = SP2|T3D|Paragon|Ideal` line (first, optional) starts from
 * a preset instead of the ideal defaults.  Per-collective keys are
 * scoped as `<op>.<field>`, e.g.
 *
 * @verbatim
 *     name = MyCluster
 *     base = SP2
 *     link_bandwidth_mbs = 100
 *     topology = hier:2x4/fattree:2;4,4;1,2
 *     hierarchy.chip_bandwidth_mbs = 4000
 *     bcast.algorithm = scatter-allgather
 *     bcast.per_stage_us = 12
 * @endverbatim
 *
 * The keys are the ones forEachField() (machine_config.hh) lists:
 * that walk is the one field list behind saveConfig(), loadConfig()
 * and the point key.  `topology` is a net::makeTopology spec
 * (docs/TOPOLOGY.md); an unknown family is rejected on load.
 * `hierarchy.*` keys set the link parameters of a `hier:` fabric's
 * multi-core nodes, and `fault.*` keys the FaultSpec
 * (fault::forEachField; docs/FAULTS.md).
 *
 * Older files named the fabric in several keys, which still load:
 * `topology_spec` (`none` clears it) replaces `topology` outright;
 * otherwise `switch_radix` applies to a bare `omega` and
 * `hierarchy.chips`/`hierarchy.cores` wrap the spec in `hier:CxK/`.
 * They fold into `topology` at the end of the load.
 *
 * saveConfig() emits a complete round-trippable file: one `topology`
 * line, the `hierarchy.*` block only for a `hier:` fabric, the
 * `fault.*` block only when faults are enabled, and the
 * per-collective overrides only when set.  loadConfig() accepts every
 * block and is strict: unknown keys, malformed values, or
 * out-of-range settings raise ConfigError.
 */

#ifndef CCSIM_MACHINE_CONFIG_IO_HH
#define CCSIM_MACHINE_CONFIG_IO_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "machine/machine_config.hh"
#include "util/error.hh"

namespace ccsim::machine {

/** Write @p cfg as a complete key = value document. */
void saveConfig(const MachineConfig &cfg, std::ostream &os);

/** saveConfig() to a file (ConfigError on I/O failure). */
void saveConfigFile(const MachineConfig &cfg, const std::string &path);

/** Parse a config document (see file comment for the format). */
MachineConfig loadConfig(std::istream &is);

/** loadConfig() from a file (ConfigError if unreadable). */
MachineConfig loadConfigFile(const std::string &path);

/** Preset lookup by name ("SP2", "T3D", "Paragon", "Ideal");
 *  case-insensitive, so CLI spellings like "paragon" work. */
MachineConfig presetByName(const std::string &name);

/**
 * Shared-handle preset lookup: the preset is built and validated
 * once per process and the immutable description handed out to every
 * caller, so concurrent sessions (the `ccsim serve` daemon's
 * connections, sweep workers) instantiate Machines from it without
 * copying or re-parsing.  Thread-safe; ConfigError on unknown names.
 */
ConfigHandle sharedPreset(const std::string &name);

/** Shared-handle analogue of loadConfigFile(): parsed and validated
 *  once per distinct path, then cached for the process lifetime
 *  (edits to the file after the first load are not observed).
 *  Thread-safe; ConfigError if unreadable or malformed. */
ConfigHandle sharedConfigFile(const std::string &path);

/** Key-name slug of a collective ("alltoall", "reduce_scatter"...). */
std::string collKey(Coll op);

/** Inverse of collKey(); nullopt for a name that is no collective's
 *  key (each caller reports that in its own terms). */
std::optional<Coll> collFromKey(std::string_view key);

/** Inverse of algoName(), every spelling including "auto" and
 *  "default"; nullopt for a name that is no algorithm's (each caller
 *  reports that in its own terms). */
std::optional<Algo> algoFromKey(std::string_view name);

/**
 * algoFromKey() for the CLI, the machine-config loader and the
 * selection-table loader: unknown names raise ConfigError listing the
 * valid spellings (not a generic parse error), so `--algo binomal`
 * and a typo in a config file fail identically and catchably.
 */
Algo algoFromName(const std::string &name);

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_CONFIG_IO_HH
