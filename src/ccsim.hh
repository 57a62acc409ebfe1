/**
 * @file
 * ccsim — single public umbrella header.
 *
 * Applications (the examples, the CLI, external users) include only
 * this header; everything re-exported here is the stable surface of
 * the library:
 *
 *  - machine::MachineConfig + the paper presets, machine::Machine,
 *    config file I/O;
 *  - net::Topology / RouteCursor / makeTopology — the analytic
 *    routing surface (docs/TOPOLOGY.md): stream a route one link at
 *    a time in O(1) memory, or build any fabric from a spec string
 *    ("fattree:2;4,4;1,2", "hier:2x4/dragonfly", ...);
 *  - mpi::Comm — the collective API rank programs run against;
 *  - harness::measureCollective / SweepSpec / SweepRunner — the
 *    Section 2 measurement procedure and the parallel sweep engine;
 *  - tuning — SelectionTable (the per-(op, p, m) decision map behind
 *    Algo::Auto), the built-in fixed tables for the paper's
 *    machines, the empirical tuner (tuneMachine), and the shared
 *    --algo/--selection CLI surface;
 *  - model — Table 3 expressions, paper-style fitting, Hockney fits,
 *    and the closed-form predictor;
 *  - fault — FaultSpec / FaultInjector / FaultReport for
 *    deterministic fault-injection scenarios;
 *  - replay — TraceParser / Recorder / Replayer: record any run as a
 *    plain-text action trace and replay it on any machine;
 *  - machine::Probe — the one observation object of a Machine: its
 *    consumers are the metric groups (read back as a
 *    stats::MetricsSnapshot, docs/METRICS.md), an attached sim::Trace,
 *    and one machine::CallListener such as the replay Recorder;
 *  - serve — the prediction service (docs/SERVE.md): the wire
 *    protocol, the three-tier Server behind `ccsim serve`, the
 *    blocking Client behind `ccsim query`, and the FastPath
 *    fitted-model store the examples build tables from;
 *  - ccsim::Error and its typed subclasses (FatalError, PanicError,
 *    fault::FaultError, replay::TraceError, ccsim::ConfigError) —
 *    catch the base once, exit with exitCode();
 *  - cli::Options — the one flag-schema parser every binary uses;
 *  - sim::Trace plus the util table/units/logging helpers the above
 *    hand out in their interfaces.
 *
 * Headers under src/ not reachable from here (sim/simulator.hh,
 * net/network.hh and the concrete topology headers, the msg/
 * transport, the collective algorithm internals) are library
 * internals: they may change layout or signature without notice.
 * See docs/EXTENDING.md for the internal-header map and how to grow
 * the simulator itself.
 */

#ifndef CCSIM_CCSIM_HH
#define CCSIM_CCSIM_HH

#include "fault/fault_injector.hh"
#include "fault/fault_report.hh"
#include "fault/fault_spec.hh"
#include "harness/measure.hh"
#include "harness/sweep.hh"
#include "machine/config_io.hh"
#include "machine/machine.hh"
#include "machine/machine_config.hh"
#include "machine/probe.hh"
#include "model/fit.hh"
#include "model/hockney.hh"
#include "model/paper_data.hh"
#include "model/predictor.hh"
#include "mpi/comm.hh"
#include "net/topology.hh"
#include "net/topology_factory.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"
#include "replay/trace_parser.hh"
#include "serve/backfill.hh"
#include "serve/client.hh"
#include "serve/fastpath.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/trace.hh"
#include "stats/metrics.hh"
#include "stats/snapshot.hh"
#include "tuning/selection_cli.hh"
#include "tuning/selection_table.hh"
#include "tuning/tuner.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/field.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/units.hh"

#endif // CCSIM_CCSIM_HH
