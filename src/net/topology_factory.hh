/**
 * @file
 * makeTopology: build any topology from a compact spec string, the
 * one way a MachineConfig names its fabric (`topology`), shared by
 * `--topo`, config files, the serve wire protocol, and programmatic
 * callers.
 *
 * Grammar (EBNF-ish; every parameter block is optional — an omitted
 * block picks a balanced shape for the requested node count):
 *
 * @verbatim
 *     spec      := "hier:" CHIPSxCORES "/" inner | inner
 *     inner     := family [ ":" params ]
 *     family    := mesh2d | torus3d | omega | hypercube
 *                | fully-connected | fattree | dragonfly
 *     mesh2d    params:  ROWSxCOLS            e.g. mesh2d:8x16
 *     torus3d   params:  XxYxZ                e.g. torus3d:8x4x4
 *     omega     params:  RADIX                e.g. omega:4
 *     dragonfly params:  GROUPSxROUTERSxNODES e.g. dragonfly:16x8x4
 *     fattree   params:  L;d1,..,dL;u1,..,uL  e.g. fattree:2;4,4;1,2
 * @endverbatim
 *
 * Explicit dimensions must multiply out to exactly the machine's
 * node count p; `hier:CxK/inner` gives the inner topology p/(C*K)
 * nodes and requires that division to be exact.  `omega` takes any
 * p >= 2 (ports past p are padding); a single node is one
 * fully-connected node whatever the family.  Malformed or
 * impossible specs raise ccsim::ConfigError (CLI exit code 5) with a
 * "did you mean" hint on misspelled family names.
 */

#ifndef CCSIM_NET_TOPOLOGY_FACTORY_HH
#define CCSIM_NET_TOPOLOGY_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "net/topology.hh"

namespace ccsim::net {

/** Build the topology described by @p spec for @p p nodes (ranks).
 *  ccsim::ConfigError on malformed specs; see the file comment for
 *  the grammar. */
std::unique_ptr<Topology> makeTopology(const std::string &spec, int p);

/** The checks on @p spec that need no node count: the `hier:`
 *  prefix and the family name.  ccsim::ConfigError (with the
 *  did-you-mean hint) on failure. */
void checkTopologySpec(const std::string &spec);

/** The valid family names, for help text and did-you-mean hints. */
const std::vector<std::string> &topologyFamilies();

} // namespace ccsim::net

#endif // CCSIM_NET_TOPOLOGY_FACTORY_HH
