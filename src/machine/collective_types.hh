/**
 * @file
 * Collective operation and algorithm identifiers.
 *
 * These live in the machine layer (not the MPI layer) because a
 * MachineConfig carries per-operation calibration: which algorithm
 * the vendor MPI used and how much software the implementation
 * layered on top of raw messaging.  The MPI layer consumes them.
 */

#ifndef CCSIM_MACHINE_COLLECTIVE_TYPES_HH
#define CCSIM_MACHINE_COLLECTIVE_TYPES_HH

#include <array>
#include <string>
#include <string_view>

#include "util/units.hh"

namespace ccsim::machine {

/** The collective operations evaluated by the paper (Table 1). */
enum class Coll
{
    Barrier = 0,
    Bcast,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Reduce,
    Allreduce,
    ReduceScatter,
    Scan,
    NumColl
};

constexpr int kNumColl = static_cast<int>(Coll::NumColl);

/** All collectives, in declaration order. */
constexpr std::array<Coll, kNumColl> kAllColls = {
    Coll::Barrier,  Coll::Bcast,         Coll::Gather,
    Coll::Scatter,  Coll::Allgather,     Coll::Alltoall,
    Coll::Reduce,   Coll::Allreduce,     Coll::ReduceScatter,
    Coll::Scan,
};

/** Config-key slug of each collective, in declaration order: the one
 *  spelling behind collKey() and collFromKey() (config_io.hh). */
constexpr std::array<std::string_view, kNumColl> kCollKeys = {
    "barrier",  "bcast",  "gather",    "scatter",        "allgather",
    "alltoall", "reduce", "allreduce", "reduce_scatter", "scan",
};

/** The seven operations the paper's Table 3 fits (its naming). */
constexpr std::array<Coll, 7> kPaperColls = {
    Coll::Barrier, Coll::Bcast,  Coll::Gather, Coll::Scatter,
    Coll::Alltoall, Coll::Reduce, Coll::Scan,
};

/** Printable operation name ("broadcast", "total exchange", ...). */
std::string collName(Coll c);

/** Implementation algorithms selectable per collective. */
enum class Algo
{
    Default = 0,       //!< machine's configured choice
    Linear,            //!< sequential fan-in/out at the root
    Binomial,          //!< binomial tree
    Dissemination,     //!< dissemination (barrier/allgather)
    Pairwise,          //!< XOR-partner pairwise exchange (alltoall)
    Ring,              //!< ring shifts
    Bruck,             //!< Bruck log-round algorithm
    RecursiveDoubling, //!< recursive doubling
    ScatterAllgather,  //!< van de Geijn bcast (scatter + allgather)
    ReduceBcast,       //!< allreduce as reduce + bcast
    RecursiveHalving,  //!< reduce-scatter halving exchange
    Rabenseifner,      //!< allreduce as reduce-scatter + allgather
    Pipelined,         //!< segmented chain pipeline (long bcast)
    Hardware,          //!< dedicated hardware (T3D barrier tree)

    /**
     * Resolve through the machine's active selection table (the
     * tuned per-(op, p, m) decision map, see src/tuning).  When no
     * table is attached, or the table has no rule for the point,
     * Auto degrades to Default — the machine's configured choice —
     * so it is always safe as a call-site default.
     */
    Auto,
};

/** Printable algorithm name. */
std::string algoName(Algo a);

/**
 * Per-collective software calibration: what the vendor's MPI layers
 * on top of raw point-to-point messaging.
 */
struct CollCosts
{
    /** One-time CPU cost per rank to enter the collective call. */
    Time entry = 0;

    /** Extra CPU cost per algorithm stage (tree level, exchange
     *  round, or per-message for linear fan-in/out). */
    Time per_stage = 0;

    /**
     * Extra CPU cost per payload byte handled in a stage
     * (nanoseconds/byte).  Models the vendor MPI's internal
     * packetization / bookkeeping per-byte costs, which dominate the
     * measured long-message coefficients well beyond raw wire rate.
     */
    double per_stage_ns_per_byte = 0.0;

    /** Override the machine's reduce/scan combine bandwidth (MB/s)
     *  inside this collective (<= 0 keeps the machine default). */
    double reduce_bandwidth_override_mbs = 0.0;

    /** Override the transport send overhead inside this collective
     *  (< 0 keeps the machine default).  Models vendor fast paths
     *  such as the Paragon NX scan. */
    Time send_overhead_override = -1;

    /** Override the transport receive overhead likewise. */
    Time recv_overhead_override = -1;
};

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_COLLECTIVE_TYPES_HH
