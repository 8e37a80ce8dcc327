#include "spice/batch.h"

#include <exception>
#include <memory>
#include <mutex>
#include <optional>

#include "sim/batch.h"
#include "support/error.h"
#include "support/ledger.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "support/watchdog.h"

namespace ark::spice {

using detail::cancelledFailure;
using detail::deadlineFailure;
using support::cat;
using support::SimError;

namespace detail {

TransientFailure
errorFailure(const support::ArkError &error, double t0)
{
    TransientAbort reason = error.kind() == support::ErrorKind::Sim
                                ? TransientAbort::SingularMatrix
                                : TransientAbort::BadInput;
    return TransientFailure{reason, 0, t0, error.message()};
}

telemetry::RunLedger::Record
sweepRecord(const TransientResult &result, std::uint64_t runId,
            std::size_t index, telemetry::RunLedger::Tier tier)
{
    telemetry::RunLedger::Record record;
    record.runId = runId;
    record.index = index;
    record.workload = telemetry::RunLedger::Workload::Spice;
    record.tier = tier;
    record.blockId = index;
    record.stepsAccepted =
        result.ok() ? (result.size() > 0 ? result.size() - 1 : 0)
                    : result.failure->step;
    record.ok = result.ok();
    if (result.failure.has_value()) {
        record.failureReason = transientAbortName(result.failure->reason);
        record.failureMessage = result.failure->message;
    }
    return record;
}

} // namespace detail

namespace {

using detail::errorFailure;
using detail::StepperLookup;
using detail::StepperPtr;

void
rethrowFirst(std::vector<std::exception_ptr> &errors)
{
    for (std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

/**
 * Groups assembled systems by shared structure. leaderOf[i] is the
 * group leader's index (or systems.size() for null slots); `leaders`
 * lists one index per group. The scan is quadratic in the number of
 * distinct structures only.
 */
void
groupByStructure(
    const std::vector<std::unique_ptr<SparseMnaSystem>> &systems,
    std::vector<std::size_t> &leaderOf, std::vector<std::size_t> &leaders)
{
    const std::size_t count = systems.size();
    leaderOf.assign(count, count);
    leaders.clear();
    for (std::size_t i = 0; i < count; ++i) {
        if (!systems[i])
            continue;
        for (std::size_t leader : leaders) {
            if (systems[leader]->sharesStructure(*systems[i])) {
                leaderOf[i] = leader;
                break;
            }
        }
        if (leaderOf[i] == count) {
            leaders.push_back(i);
            leaderOf[i] = i;
        }
    }
}

/** A fresh operator for `system`, with its final step prepared. */
StepperPtr
buildStepper(const SparseMnaSystem &system, double dt, double finalH)
{
    auto built = std::make_shared<TransientStepper>(system, dt);
    // Non-divisible grids end on one fractional step; factor its
    // operator once here so members share (or numerically refactor)
    // it instead of one-off-factoring per instance.
    built->prepareFinalStep(system, finalH);
    return built;
}

} // namespace

std::size_t
countStructureGroups(const std::vector<const Netlist *> &netlists)
{
    std::vector<std::unique_ptr<SparseMnaSystem>> systems;
    systems.reserve(netlists.size());
    for (const Netlist *netlist : netlists) {
        support::panicIf(netlist == nullptr,
                         "countStructureGroups: null netlist");
        try {
            systems.push_back(std::make_unique<SparseMnaSystem>(*netlist));
        } catch (const support::ArkError &) {
            systems.push_back(nullptr); // unassemblable: no group
        }
    }
    std::vector<std::size_t> leaderOf, leaders;
    groupByStructure(systems, leaderOf, leaders);
    return leaders.size();
}

std::vector<TransientResult>
detail::runSweep(const std::vector<const Netlist *> &netlists, double t0,
                 double t1, double dt, const TransientBatchOptions &options,
                 const StepperSource &source, TransientBatchStats *stats)
{
    if (stats)
        *stats = TransientBatchStats{};
    if (dt <= 0.0) {
        throw SimError(
            cat("TransientBatch: dt must be positive, got ", dt));
    }
    if (t1 < t0) {
        throw SimError(cat("TransientBatch: t1 (", t1, ") precedes t0 (",
                           t0, ")"));
    }
    const std::size_t count = netlists.size();
    std::vector<TransientResult> results(count);
    if (count == 0)
        return results;
    for (const Netlist *netlist : netlists)
        support::panicIf(netlist == nullptr,
                         "TransientBatch: null netlist");

    std::vector<std::exception_ptr> errors(count);
    telemetry::StallWatchdog::Run watchdogRun("spice_sweep", count);
    sim::detail::ProgressTicker progress(options.progress, count,
                                         watchdogRun);
    const TransientControl control{options.stop, options.deadline};
    // Per-instance prelude shared by both solve paths: a slot that
    // already failed (assembly), a requested stop, or a passed
    // deadline skips `body`; errors become structured failures (or are
    // rethrown after the sweep when they are not Ark errors); every
    // instance ticks progress exactly once.
    auto runInstance = [&](std::size_t i, const auto &body) {
        if (results[i].failure.has_value()) {
            // Nothing to run: assembly already failed.
        } else if (options.stop.stop_requested()) {
            // Skipped before starting: no samples at all.
            results[i].failure = cancelledFailure(t0, 0);
        } else if (sim::detail::deadlinePassed(options.deadline)) {
            results[i].failure = deadlineFailure(t0, 0);
        } else {
            try {
                body();
            } catch (const support::ArkError &error) {
                results[i].failure = errorFailure(error, t0);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        progress.tick();
    };
    const std::uint64_t ledgerRun =
        options.ledger != nullptr
            ? options.ledger->beginRun(
                  telemetry::RunLedger::Workload::Spice, count)
            : 0;

    if (!options.sparse) {
        // Dense ablation path: independent assembly + transient per
        // instance, parallelized but with no factor sharing.
        sim::BatchRunner::shared().parallelFor(
            count, options.numThreads, [&](std::size_t i) {
                runInstance(i, [&] {
                    MnaSystem system(*netlists[i]);
                    results[i] = transient(system, t0, t1, dt, {}, control);
                });
            });
        if (options.ledger != nullptr)
            for (std::size_t i = 0; i < count; ++i)
                if (!errors[i])
                    options.ledger->append(sweepRecord(
                        results[i], ledgerRun, i,
                        telemetry::RunLedger::Tier::Dense));
        rethrowFirst(errors);
        return results;
    }

    // Phase 1: assemble every netlist (cheap, value-independent
    // structure). Assembly rejects land as BadInput failures.
    std::vector<std::unique_ptr<SparseMnaSystem>> systems(count);
    for (std::size_t i = 0; i < count; ++i) {
        try {
            systems[i] = std::make_unique<SparseMnaSystem>(*netlists[i]);
        } catch (const support::ArkError &error) {
            results[i].failure = errorFailure(error, t0);
        }
    }

    // Phase 2: group instances by shared structure.
    std::vector<std::size_t> leaderOf, leaders;
    groupByStructure(systems, leaderOf, leaders);
    if (stats)
        stats->structureGroups = leaders.size();
    if (telemetry::metricsEnabled()) {
        static telemetry::Counter &sweeps =
            telemetry::Registry::shared().counter("ark.spice.sweeps");
        static telemetry::Counter &sweepInstances =
            telemetry::Registry::shared().counter(
                "ark.spice.sweep_instances");
        static telemetry::Counter &groups =
            telemetry::Registry::shared().counter("ark.spice.groups");
        static telemetry::Histogram &groupSize =
            telemetry::Registry::shared().histogram(
                "ark.spice.group_size");
        sweeps.add();
        sweepInstances.add(count);
        groups.add(leaders.size());
        for (std::size_t leader : leaders) {
            std::uint64_t members = 0;
            for (std::size_t i = 0; i < count; ++i)
                if (leaderOf[i] == leader)
                    ++members;
            groupSize.record(members);
        }
    }
    telemetry::ScopedSpan sweepSpan("ark.spice.sweep", count);

    // Phase 3: each group leader's companion matrix is factored
    // exactly once — the symbolic analysis (and, for value-identical
    // members, the numeric factorization) the whole group reuses.
    // Factorization happens lazily inside the worker jobs under a
    // per-leader once-flag, so heterogeneous sweeps (many singleton
    // groups) factor concurrently instead of serializing up front. A
    // leader whose own values are singular leaves no shared stepper;
    // members then factor individually. Every operator comes through
    // `lookup`: the source when there is one, else built in place.
    const double finalH = finalStepSize(t0, t1, dt);
    auto lookup = [&](const SparseMnaSystem &pivotSource,
                      const SparseMnaSystem &bound,
                      const std::function<StepperPtr()> &build) {
        return source ? source(pivotSource, bound, dt, finalH, build)
                      : StepperLookup{build(), false};
    };
    std::vector<StepperLookup> leaderStepper(count);
    std::vector<std::unique_ptr<std::once_flag>> leaderOnce(count);
    for (std::size_t leader : leaders)
        leaderOnce[leader] = std::make_unique<std::once_flag>();
    // Per-instance cache provenance for the ledger; None when no
    // source was consulted (no source, or the slot never ran).
    using CacheOutcome = telemetry::RunLedger::CacheOutcome;
    std::vector<CacheOutcome> cacheOutcome(count, CacheOutcome::None);

    // Phase 4: per-instance transient on the shared worker pool.
    sim::BatchRunner::shared().parallelFor(
        count, options.numThreads, [&](std::size_t i) {
            runInstance(i, [&] {
                const SparseMnaSystem &system = *systems[i];
                const std::size_t leader = leaderOf[i];
                const SparseMnaSystem &leaderSystem = *systems[leader];
                std::call_once(*leaderOnce[leader], [&] {
                    try {
                        leaderStepper[leader] =
                            lookup(leaderSystem, leaderSystem, [&] {
                                return buildStepper(leaderSystem, dt,
                                                    finalH);
                            });
                    } catch (...) {
                        // Leader factorization failed (singular, out
                        // of memory, ...): leave no shared stepper;
                        // each member factors on its own and reports
                        // whatever recurs through its own handler.
                    }
                });
                const StepperPtr &shared = leaderStepper[leader].stepper;
                StepperLookup resolved;
                if (shared && system.sharesMatrixValues(leaderSystem)) {
                    // Bit-identical matrices: share the leader's
                    // factors outright (solve is const/thread-safe).
                    resolved = leaderStepper[leader];
                } else if (shared) {
                    // Same structure, different values: copy the
                    // symbolic skeleton and refactor numerically.
                    resolved = lookup(leaderSystem, system, [&] {
                        auto rebound =
                            std::make_shared<TransientStepper>(*shared);
                        rebound->rebind(system);
                        return StepperPtr(std::move(rebound));
                    });
                } else {
                    resolved = lookup(system, system, [&] {
                        return buildStepper(system, dt, finalH);
                    });
                }
                if (source)
                    cacheOutcome[i] = resolved.hit ? CacheOutcome::Hit
                                                   : CacheOutcome::Miss;
                results[i] = resolved.stepper->run(system, t0, t1, {},
                                                   control);
            });
        });
    if (options.ledger != nullptr) {
        std::vector<std::size_t> groupSize(count, 0);
        for (std::size_t i = 0; i < count; ++i)
            if (leaderOf[i] < count)
                ++groupSize[leaderOf[i]];
        for (std::size_t i = 0; i < count; ++i) {
            if (errors[i])
                continue;
            telemetry::RunLedger::Record record = sweepRecord(
                results[i], ledgerRun, i, telemetry::RunLedger::Tier::Sparse);
            if (leaderOf[i] < count) { // unassemblable slots stand alone
                record.blockId = leaderOf[i];
                record.lanes = groupSize[leaderOf[i]];
            }
            record.cache = cacheOutcome[i];
            options.ledger->append(std::move(record));
        }
    }
    rethrowFirst(errors);
    return results;
}

std::vector<TransientResult>
TransientBatch::run(const std::vector<const Netlist *> &netlists,
                    double t0, double t1, double dt,
                    TransientBatchStats *stats) const
{
    return detail::runSweep(netlists, t0, t1, dt, options_, {}, stats);
}

std::vector<TransientResult>
TransientBatch::run(const std::vector<Netlist> &netlists, double t0,
                    double t1, double dt,
                    TransientBatchStats *stats) const
{
    std::vector<const Netlist *> pointers;
    pointers.reserve(netlists.size());
    for (const Netlist &netlist : netlists)
        pointers.push_back(&netlist);
    return run(pointers, t0, t1, dt, stats);
}

} // namespace ark::spice
