// Deterministic virtual-time engine simulation.
//
// The replay simulator (async_sim.hpp) validates the paper's governing
// iterations (8)/(9) with its own correction-sum arithmetic; what it cannot
// certify is that the *code we ship* — the compile-time-specialized update
// functors of core/kernels.hpp driven by the Philox direction planner of
// core/engine.hpp — obeys the execution model the proofs assume.  This
// module closes that gap, FoundationDB-style: a single-threaded
// discrete-event scheduler runs the production single-RHS update kernel at
// P *virtual* workers (64–1024, far beyond host cores), with concurrency
// expressed purely as data:
//
//  * Directions come from the real detail::DirectionPlan.  The shared scope
//    tiles one global Philox stream across workers, so the engine replays
//    that stream in global update order j = 0, 1, ...; the multiset is
//    identical to every physical team size, and at P = 1 the sequence is
//    exactly the sequential `rgs` stream.
//  * Visibility is a pluggable schedule: any ConsistentDelayModel /
//    InconsistentDelayModel from delay_models.hpp, or the nnz-proportional
//    EventDrivenSchedule (event_sim.hpp) whose P virtual processors give
//    each update a duration of overhead + nnz(row), jittered from a
//    separately keyed stream (Assumption A-4 independence).
//  * Each step j materializes the stale state x_{K(j)} *in place*: the
//    deltas of invisible updates are subtracted from the iterate, the real
//    kernel's compute seam (SingleRhsUpdate::delta) evaluates
//    beta * (b_r - A_r x_{K(j)}) / A_rr with the production scan
//    arithmetic, the reverted coordinates are restored bit-exactly from
//    saved bits, and the increment commits onto the *current* iterate with
//    the kernel's apply path — precisely iteration (9)'s
//    "compute from x_{K(j)}, write onto x_j".
//
// Everything is a pure function of (seed, P, delay model): no threads, no
// clocks, no global state.  A fixed configuration is therefore bit-identical
// across repeated invocations and across host core counts — race-dependent
// behaviour reproduces exactly in CI — and the error trace it emits is
// SimResult-compatible so the theorem-conformance layer (theory/bounds.hpp)
// consumes both simulators interchangeably.
//
// What virtual time does and does not validate is documented in
// docs/DESIGN.md ("Simulation of the execution model").
#pragma once

#include <cstdint>
#include <vector>

#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/simulate/async_sim.hpp"
#include "asyrgs/simulate/delay_models.hpp"
#include "asyrgs/simulate/event_sim.hpp"
#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Parameters of a virtual-engine run.  SimOptions is reused verbatim so
/// replay-simulator call sites translate one for one; `iterations` counts
/// global coordinate updates, `seed` keys the direction stream.
using VirtualEngineOptions = SimOptions;

/// Runs the production update kernel under a consistent-read schedule
/// (iteration (8)): step j computes from the snapshot x_{k(j)}.  `a` must be
/// square with a strictly positive diagonal.  An optional alias table
/// `sampler` (sampling/direction_sampler.hpp) maps the Philox stream as the
/// threaded engine maps it for kWeighted draws, so weighted virtual runs
/// replay the production draw path; it must outlive the call and hold one
/// weight per row.  nullptr keeps the raw stream bit-identical to every
/// pre-sampling trace.
SimResult run_virtual_consistent(const CsrMatrix& a,
                                 const std::vector<double>& b,
                                 const std::vector<double>& x0,
                                 const std::vector<double>& x_star,
                                 const ConsistentDelayModel& delay,
                                 const VirtualEngineOptions& options,
                                 const AliasTable* sampler = nullptr);

/// Runs the production update kernel under an inconsistent-read schedule
/// (iteration (9)): step j sees x_0 plus the visible set K(j).
SimResult run_virtual_inconsistent(const CsrMatrix& a,
                                   const std::vector<double>& b,
                                   const std::vector<double>& x0,
                                   const std::vector<double>& x_star,
                                   const InconsistentDelayModel& delay,
                                   const VirtualEngineOptions& options);

/// Outcome of an event-driven virtual run: the error trace plus the realized
/// delay structure of the schedule that produced it.
struct VirtualEventResult {
  SimResult result;
  DelayStats stats;   ///< realized max/mean delay, mean in-flight
  index_t tau = 0;    ///< tau-hat = stats.max_delay (the measured A-3' bound)
};

/// Builds the nnz-proportional EventDrivenSchedule for `event.processors`
/// virtual workers and runs the kernel under it.  The schedule's direction
/// stream and the replay's are forced to agree (`event.seed` keys both;
/// `options.seed` is ignored in favour of it).  `event.iterations` is the
/// authoritative update count.
VirtualEventResult run_virtual_event(const CsrMatrix& a,
                                     const std::vector<double>& b,
                                     const std::vector<double>& x0,
                                     const std::vector<double>& x_star,
                                     const EventSimOptions& event,
                                     const VirtualEngineOptions& options);

}  // namespace asyrgs
