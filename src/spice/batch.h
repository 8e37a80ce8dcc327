#ifndef ARK_SPICE_BATCH_H
#define ARK_SPICE_BATCH_H

/**
 * @file
 * Batched SPICE transient execution — the circuit-side twin of the
 * ODE ensemble engine (sim/batch.h), and the one sweep loop every
 * SPICE sweep runs through.
 *
 * A validation sweep runs hundreds of netlists that are mostly the
 * same circuit with different parameter values (mismatch-sampled
 * instances of one topology). The sweep exploits that:
 *
 *  1. every netlist is assembled into a SparseMnaSystem (CSR stamps);
 *  2. instances are grouped by structure (same unknowns, sparsity
 *     patterns, dynamic-row mask, and source placement — see
 *     SparseMnaSystem::sharesStructure);
 *  3. each group's leader factors the trapezoidal companion matrix
 *     (2M/h + K) once — symbolic analysis, pivot order, and fill
 *     pattern; members rebind it with a numeric-only refactorization
 *     (or share the factors outright when their matrix values are
 *     bit-identical), then back-substitute per step;
 *  4. instances execute in parallel on sim::BatchRunner::shared()'s
 *     persistent worker pool via parallelFor — no per-call thread
 *     spawn.
 *
 * Where the factored operators of step 3 come from is pluggable: a
 * detail::StepperSource is asked for each one (leader, rebound member,
 * or standalone) and may serve it from elsewhere instead of building
 * it. TransientBatch::run passes no source, so every operator is
 * built in place; engine::Session::runSweep passes one backed by its
 * content-addressed artifact cache. Everything else — grouping,
 * execution control, progress, telemetry and the ledger — is this
 * file's single loop.
 *
 * Failures are per-instance and structured (TransientResult::failure
 * with TransientAbort::BadInput / SingularMatrix / NonfiniteState /
 * Cancelled / DeadlineExceeded), never exceptions: one singular or
 * diverging netlist does not take down the sweep. Batch-level
 * misconfiguration (dt <= 0, t1 < t0) still throws support::SimError,
 * since it invalidates every instance alike.
 *
 * Execution control mirrors the ODE ensemble engine: a stop token
 * cancels cooperatively (running instances abort at their next step
 * with a Cancelled failure, not-yet-started instances are skipped), a
 * wall-clock deadline retires work the same way with
 * DeadlineExceeded, and a progress callback ticks once per completed
 * instance — completed, failed, or skipped alike — strictly
 * increasing to the total. Everything finished before a stop or
 * deadline is returned untouched.
 *
 * Results are positionally ordered and independent of the thread
 * count and of the stepper source; the sparse path matches the serial
 * dense transient to rounding (<= 1e-12 relative, property-tested).
 */

#include <functional>
#include <memory>
#include <vector>

#include "spice/mna.h"
#include "spice/netlist.h"
#include "support/error.h"
#include "support/ledger.h"

namespace ark::spice {

/** Controls for a batched transient sweep. */
struct TransientBatchOptions
{
    /**
     * CSR assembly + shared-structure factorization reuse (the fast
     * path). Off runs the dense MnaSystem path per instance —
     * ablation benchmarks and differential tests.
     */
    bool sparse = true;

    /**
     * Worker threads; 0 picks the hardware concurrency. Rides the
     * process-wide sim::BatchRunner pool, so SPICE sweeps and ODE
     * ensembles share one set of parked workers.
     */
    unsigned numThreads = 0;

    /**
     * Optional completion callback: invoked with (completed, total)
     * as each instance finishes — including failed and skipped
     * instances — mirroring sim::EnsembleOptions::progress.
     * `completed` is strictly increasing and reaches `total` exactly
     * once. Serialized internally but possibly invoked from worker
     * threads; keep it cheap and do not call back into the batch API
     * from inside it.
     */
    std::function<void(std::size_t completed, std::size_t total)> progress;

    /**
     * Cooperative cancellation (sim::EnsembleOptions::stop parity):
     * instances not yet started are skipped, running instances abort
     * at their next step; affected results carry a
     * TransientAbort::Cancelled failure with the samples recorded
     * before the abort.
     */
    std::stop_token stop;

    /**
     * Wall-clock deadline checked at the same granularity as `stop`;
     * affected results carry TransientAbort::DeadlineExceeded, and
     * instances that finished before the cutoff are returned
     * bit-identical to an unbounded run. Unset = no deadline.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * Optional flight recorder (sim::EnsembleOptions::ledger parity):
     * one telemetry::RunLedger::Record per instance at the flush
     * points the sweep already has — solve path (dense/sparse),
     * structure group as the block id, sample count, and the
     * structured failure. Observation-only; must outlive the call.
     */
    telemetry::RunLedger *ledger = nullptr;
};

/** What a batch run did, beyond the per-instance results. */
struct TransientBatchStats
{
    /**
     * Distinct netlist structures the sweep grouped into (each costs
     * one symbolic factorization). 0 on the dense ablation path,
     * which does not group.
     */
    std::size_t structureGroups = 0;
};

/**
 * Batched trapezoidal transient runner. Stateless apart from its
 * options; run() may be called concurrently from different
 * TransientBatch instances (the shared pool serializes internally).
 */
class TransientBatch
{
  public:
    explicit TransientBatch(
        TransientBatchOptions options = TransientBatchOptions{})
        : options_(options)
    {
    }

    const TransientBatchOptions &options() const { return options_; }

    /**
     * Runs every netlist over [t0, t1] with step dt from a zero
     * initial state, sampling every step. Outcomes are positionally
     * ordered; per-instance problems land in the corresponding
     * result's structured failure. `stats`, when given, receives a
     * summary of the run.
     * @throws support::SimError for dt <= 0 or t1 < t0 (batch-level
     *         misconfiguration).
     */
    std::vector<TransientResult>
    run(const std::vector<const Netlist *> &netlists, double t0,
        double t1, double dt, TransientBatchStats *stats = nullptr) const;

    /** Convenience overload for owned netlists. */
    std::vector<TransientResult>
    run(const std::vector<Netlist> &netlists, double t0, double t1,
        double dt, TransientBatchStats *stats = nullptr) const;

  private:
    TransientBatchOptions options_;
};

namespace detail {

/**
 * Maps an assembly/factorization error to the structured per-instance
 * failure a sweep reports: ErrorKind::Sim (singular companion) ->
 * SingularMatrix, everything else -> BadInput. Shared by the sweep
 * and the session supervisor's serial retries so both report
 * byte-identical failures for the same event.
 */
TransientFailure errorFailure(const support::ArkError &error, double t0);

/**
 * The ledger record of one finished sweep instance, as a standalone
 * block: sample counts stand in for accepted steps (one sample per
 * step plus the initial state) and failures carry their structured
 * reason. The sweep's flush and the supervisor's retries both start
 * from it and fill in what only they know (group, cache, attempt).
 */
telemetry::RunLedger::Record
sweepRecord(const TransientResult &result, std::uint64_t runId,
            std::size_t index, telemetry::RunLedger::Tier tier);

using StepperPtr = std::shared_ptr<const TransientStepper>;

/** A factored operator handed out by a StepperSource. */
struct StepperLookup
{
    StepperPtr stepper;
    bool hit = false; ///< Served without calling `build`.
};

/**
 * Where the sweep gets a factored operator. Called with the system
 * whose values choose the pivot order (the group leader, or the
 * instance itself when it factors standalone), the system the factors
 * are bound to, the step sizes they are prepared for (dt and the
 * fractional final step), and a thunk that builds them. Must return
 * exactly the bits `build` would — results may not depend on the
 * source. Called concurrently from the sweep's workers; an exception
 * fails the instance as one from `build` would.
 */
using StepperSource = std::function<StepperLookup(
    const SparseMnaSystem &pivotSource, const SparseMnaSystem &bound,
    double dt, double finalH, const std::function<StepperPtr()> &build)>;

/**
 * The batched sweep behind TransientBatch::run (no source: every
 * operator built in place) and engine::Session::runSweep (a cached
 * source). Same contract as TransientBatch::run; the dense path
 * (options.sparse = false) ignores `source`. With a source, ledger
 * records carry each instance's cache outcome; a member sharing its
 * leader's factors inherits the leader's.
 */
std::vector<TransientResult>
runSweep(const std::vector<const Netlist *> &netlists, double t0,
         double t1, double dt, const TransientBatchOptions &options,
         const StepperSource &source, TransientBatchStats *stats);

} // namespace detail

/**
 * Distinct structure groups a sweep of these netlists factors (the
 * same grouping TransientBatch::run applies internally). Assembly
 * only — no factorization; unassemblable netlists count no group.
 * Lets chunked sweeps report the global structure count without
 * running anything.
 */
std::size_t
countStructureGroups(const std::vector<const Netlist *> &netlists);

} // namespace ark::spice

#endif // ARK_SPICE_BATCH_H
