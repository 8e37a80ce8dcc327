#include "engine/session.h"

#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "compiler/compiler.h"
#include "support/error.h"
#include "support/logging.h"
#include "validator/validator.h"

namespace ark::engine {

namespace {

/** True when a supervised ensemble retry can change the outcome. */
bool
retryableSimFailure(const sim::SimFailure &failure)
{
    return failure.reason == sim::AbortReason::Diverged ||
           failure.reason == sim::AbortReason::Fault ||
           failure.reason == sim::AbortReason::BudgetExhausted;
}

/** Tallies the terminal failure mix of a finished batch. */
void
countOutcomes(const std::vector<sim::SimResult> &results,
                 RunReport &report)
{
    for (const sim::SimResult &result : results) {
        if (!result.failure)
            continue;
        switch (result.failure->reason) {
        case sim::AbortReason::BudgetExhausted: ++report.budgetHits; break;
        case sim::AbortReason::DeadlineExceeded:
            ++report.deadlineHits;
            break;
        case sim::AbortReason::Cancelled: ++report.cancelled; break;
        default: break;
        }
    }
}

void
countOutcomes(const std::vector<spice::TransientResult> &results,
                   RunReport &report)
{
    for (const spice::TransientResult &result : results) {
        if (!result.failure)
            continue;
        switch (result.failure->reason) {
        case spice::TransientAbort::DeadlineExceeded:
            ++report.deadlineHits;
            break;
        case spice::TransientAbort::Cancelled: ++report.cancelled; break;
        default: break;
        }
    }
}

/**
 * Publishes a supervised run's final tallies to the registry. The
 * report is the source of truth (exactly one increment per action
 * taken), so the registry counters inherit its definitions.
 */
void
flushReportCounters(const RunReport &report)
{
    if (!telemetry::metricsEnabled())
        return;
    static telemetry::Counter &scalarRetries =
        telemetry::Registry::shared().counter(
            "ark.session.scalar_retries");
    static telemetry::Counter &relaxedRetries =
        telemetry::Registry::shared().counter(
            "ark.session.relaxed_retries");
    static telemetry::Counter &denseFallbacks =
        telemetry::Registry::shared().counter(
            "ark.session.dense_fallbacks");
    static telemetry::Counter &budgetHits =
        telemetry::Registry::shared().counter("ark.session.budget_hits");
    static telemetry::Counter &deadlineHits =
        telemetry::Registry::shared().counter(
            "ark.session.deadline_hits");
    static telemetry::Counter &cancelled =
        telemetry::Registry::shared().counter("ark.session.cancelled");
    scalarRetries.add(report.scalarRetries);
    relaxedRetries.add(report.relaxedRetries);
    denseFallbacks.add(report.denseFallbacks);
    budgetHits.add(report.budgetHits);
    deadlineHits.add(report.deadlineHits);
    cancelled.add(report.cancelled);
}

/**
 * Resets `report` for a supervised run over `instances` and resolves
 * its flight recorder: an explicitly configured ledger (run options
 * first, then the session) captures the records; otherwise a
 * reporting run gets its own, attached to the report so callers can
 * export it without pre-wiring one.
 */
telemetry::RunLedger *
beginReport(RunReport &report, std::size_t instances,
            telemetry::RunLedger *configured, bool reporting)
{
    report = RunReport{};
    report.instances = instances;
    if (configured == nullptr && reporting) {
        report.ledger = std::make_shared<telemetry::RunLedger>();
        return report.ledger.get();
    }
    return configured;
}

/**
 * Opens one record per first-attempt failure (recordOf[i] is instance
 * i's record) and returns the failed positions `retryable` sends up
 * the retry ladder.
 */
template <typename Result, typename Retryable>
std::vector<std::size_t>
openRecords(const std::vector<Result> &results, RunReport &report,
            std::vector<std::size_t> &recordOf, Retryable retryable)
{
    recordOf.assign(results.size(), results.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok())
            continue;
        ++report.firstAttemptFailures;
        recordOf[i] = report.records.size();
        report.records.emplace_back().index = i;
        if (retryable(*results[i].failure))
            pending.push_back(i);
    }
    return pending;
}

/**
 * Closes a supervised run: settles every record as recovered or not
 * (keeping the final failure message), tallies the terminal failure
 * mix, and publishes the report's counters.
 */
template <typename Result>
void
closeReport(const std::vector<Result> &results, RunReport &report)
{
    for (RunReport::InstanceRecord &record : report.records) {
        record.recovered = results[record.index].ok();
        if (record.recovered)
            ++report.recovered;
        else {
            ++report.unrecovered;
            record.finalError = results[record.index].failure->message;
        }
    }
    countOutcomes(results, report);
    flushReportCounters(report);
}

} // namespace

telemetry::MetricsSnapshot
Session::metricsSnapshot() const
{
    telemetry::Registry &registry = telemetry::Registry::shared();
    // Residency gauges come from CacheStats at snapshot time (the
    // cache cannot publish sizes itself without registry writes under
    // its own lock on every mutation).
    static telemetry::Gauge &systemsCached =
        registry.gauge("ark.cache.systems_cached");
    static telemetry::Gauge &steppersCached =
        registry.gauge("ark.cache.steppers_cached");
    const CacheStats cacheStats = cache().stats();
    systemsCached.set(static_cast<double>(cacheStats.systemsCached));
    steppersCached.set(static_cast<double>(cacheStats.steppersCached));
    return registry.snapshot();
}

SystemPtr
Session::compile(const dg::Graph &graph, const lang::Language &lang) const
{
    if (!options_.caching) {
        validator::validateOrThrow(graph, lang);
        return std::make_shared<const compiler::OdeSystem>(
            compiler::compile(graph, lang));
    }
    return cache().system(graph, lang);
}

std::vector<sim::SimResult>
Session::runEnsemble(const std::vector<SystemPtr> &systems, double t0,
                     double t1, const sim::EnsembleOptions &options) const
{
    static telemetry::Histogram &ensembleNs =
        telemetry::Registry::shared().histogram("ark.session.ensemble_ns");
    telemetry::ScopedSpan span("ark.session.ensemble", systems.size());
    telemetry::ScopedTimer timer(ensembleNs);
    std::vector<const compiler::OdeSystem *> pointers;
    pointers.reserve(systems.size());
    for (const SystemPtr &system : systems) {
        support::panicIf(system == nullptr,
                         "Session::runEnsemble: null system");
        pointers.push_back(system.get());
    }
    // The session-level flight recorder applies unless the per-run
    // options brought their own (observation-only either way).
    sim::EnsembleOptions effective = options;
    if (effective.ledger == nullptr)
        effective.ledger = options_.ledger;
    return sim::simulateEnsemble(pointers, t0, t1, effective);
}

std::vector<spice::TransientResult>
Session::runSweep(const std::vector<const spice::Netlist *> &netlists,
                  double t0, double t1, double dt,
                  const spice::TransientBatchOptions &options,
                  SweepStats *stats) const
{
    static telemetry::Histogram &sweepNs =
        telemetry::Registry::shared().histogram("ark.session.sweep_ns");
    telemetry::ScopedSpan span("ark.session.sweep", netlists.size());
    telemetry::ScopedTimer timer(sweepNs);
    if (stats)
        *stats = SweepStats{};
    // The session-level flight recorder applies unless the per-run
    // options brought their own (observation-only either way).
    spice::TransientBatchOptions effective = options;
    if (effective.ledger == nullptr)
        effective.ledger = options_.ledger;

    // The cache is a stepper source for the one sweep loop: each
    // operator is addressed by (pattern, pivot-source values, bound
    // values, dt, finalH), so a cached stepper holds exactly the bits
    // the sweep would build — leader factors, a member's numeric
    // rebind of them, or a standalone factorization. Fingerprints are
    // taken inside the sweep's workers, off the serial phase.
    std::atomic<std::size_t> factorHits{0};
    std::atomic<std::size_t> factorMisses{0};
    spice::detail::StepperSource source;
    if (options_.caching) {
        source = [&, &artifacts = cache()](
                     const spice::SparseMnaSystem &pivotSource,
                     const spice::SparseMnaSystem &bound, double stepDt,
                     double finalH,
                     const std::function<StepperPtr()> &build) {
            const MnaFingerprint fp = fingerprintMna(bound);
            const Fingerprint pivotValues =
                &pivotSource == &bound ? fp.values
                                       : fingerprintMna(pivotSource).values;
            spice::detail::StepperLookup lookup;
            lookup.stepper = artifacts.stepper(
                stepperKey(fp, pivotValues, fp.values, stepDt, finalH),
                build, &lookup.hit);
            ++(lookup.hit ? factorHits : factorMisses);
            return lookup;
        };
    }
    spice::TransientBatchStats batchStats;
    std::vector<spice::TransientResult> results = spice::detail::runSweep(
        netlists, t0, t1, dt, effective, source, &batchStats);
    if (stats)
        *stats = SweepStats{batchStats.structureGroups, factorHits.load(),
                            factorMisses.load()};
    return results;
}

std::vector<sim::SimResult>
Session::runEnsemble(const std::vector<SystemPtr> &systems, double t0,
                     double t1, const sim::EnsembleOptions &options,
                     const RunPolicy &policy, RunReport *report) const
{
    RunReport local;
    RunReport &rep = report ? *report : local;
    sim::EnsembleOptions opts = options;
    opts.ledger =
        beginReport(rep, systems.size(),
                    opts.ledger ? opts.ledger : options_.ledger,
                    report != nullptr);
    telemetry::RunLedger *ledger = opts.ledger;

    // First attempt: the normal batch. With the supervisor on, faults
    // are captured as structured failures so they become retryable
    // data; off (maxAttempts 1), it is bit-identical to the plain
    // overload, including the exception-rethrow contract.
    sim::EnsembleOptions firstOptions = opts;
    if (policy.maxAttempts > 1)
        firstOptions.structuredFaults = true;
    std::vector<sim::SimResult> results =
        runEnsemble(systems, t0, t1, firstOptions);
    std::vector<std::size_t> recordOf;
    std::vector<std::size_t> pending =
        openRecords(results, rep, recordOf, retryableSimFailure);

    const double baseDt =
        options.sim.dt > 0.0 ? options.sim.dt : (t1 - t0) / 1000.0;
    for (int attempt = 2;
         attempt <= policy.maxAttempts && !pending.empty(); ++attempt) {
        if (options.stop.stop_requested() ||
            sim::detail::deadlinePassed(options.deadline))
            break; // the caller asked for the stop: no more attempts

        // Rung 0 is the pure scalar re-run (when retryScalar); each
        // further rung degrades dt and tolerances cumulatively.
        const int rung = policy.retryScalar ? attempt - 2 : attempt - 1;
        const bool relaxed = policy.relaxOnRetry && rung >= 1;
        sim::EnsembleOptions retryOptions = opts;
        retryOptions.structuredFaults = true;
        retryOptions.progress = {}; // progress ticked on attempt 1
        // Retry batches record into a scratch ledger whose records are
        // remapped below: the batch engine indexes the compacted retry
        // batch, the ledger speaks original batch positions.
        telemetry::RunLedger retryLedger;
        retryOptions.ledger = ledger != nullptr ? &retryLedger : nullptr;
        if (policy.retryScalar)
            retryOptions.laneBatching = false;
        if (relaxed) {
            double dtScale = 1.0, tolScale = 1.0;
            for (int r = 0; r < rung; ++r) {
                dtScale *= policy.dtFactor;
                tolScale *= policy.tolFactor;
            }
            retryOptions.sim.dt = baseDt * dtScale;
            retryOptions.sim.absTol = options.sim.absTol * tolScale;
            retryOptions.sim.relTol = options.sim.relTol * tolScale;
        }

        std::vector<SystemPtr> retrySystems;
        retrySystems.reserve(pending.size());
        for (std::size_t index : pending)
            retrySystems.push_back(systems[index]);
        std::vector<sim::SimResult> retried =
            runEnsemble(retrySystems, t0, t1, retryOptions);

        if (ledger != nullptr) {
            // Re-home the scratch records: original batch position,
            // the main run's id, and the rung that produced them.
            // Tier/width/block provenance stays as the engine wrote
            // it.
            for (telemetry::RunLedger::Record rec :
                 retryLedger.records()) {
                rec.runId = ledger->lastRunId();
                rec.index = pending[rec.index];
                rec.attempt = attempt;
                rec.action =
                    relaxed
                        ? telemetry::RunLedger::RetryAction::RelaxedRetry
                        : telemetry::RunLedger::RetryAction::ScalarRetry;
                ledger->append(std::move(rec));
            }
        }

        std::vector<std::size_t> still;
        for (std::size_t j = 0; j < pending.size(); ++j) {
            const std::size_t index = pending[j];
            RunReport::InstanceRecord &record =
                rep.records[recordOf[index]];
            ++record.attempts;
            if (relaxed) {
                record.actions.push_back(
                    RunReport::Action::RelaxedRetry);
                ++rep.relaxedRetries;
            } else {
                record.actions.push_back(RunReport::Action::ScalarRetry);
                ++rep.scalarRetries;
            }
            results[index] = std::move(retried[j]);
            if (!results[index].ok() &&
                retryableSimFailure(*results[index].failure))
                still.push_back(index);
        }
        pending = std::move(still);
    }

    closeReport(results, rep);
    return results;
}

std::vector<spice::TransientResult>
Session::runSweep(const std::vector<const spice::Netlist *> &netlists,
                  double t0, double t1, double dt,
                  const spice::TransientBatchOptions &options,
                  const RunPolicy &policy, RunReport *report,
                  SweepStats *stats) const
{
    RunReport local;
    RunReport &rep = report ? *report : local;
    spice::TransientBatchOptions opts = options;
    opts.ledger =
        beginReport(rep, netlists.size(),
                    opts.ledger ? opts.ledger : options_.ledger,
                    report != nullptr);
    telemetry::RunLedger *ledger = opts.ledger;
    std::vector<spice::TransientResult> results =
        runSweep(netlists, t0, t1, dt, opts, stats);

    // SingularMatrix falls back to the dense transient (partial
    // pivoting succeeds where the sparse static-order refactorization
    // collapsed); NonfiniteState re-runs sparse at a degraded dt when
    // relaxOnRetry allows it. Retries are rare, so they run serially
    // on the calling thread.
    auto sweepRetryable = [&](const spice::TransientFailure &failure) {
        if (failure.reason == spice::TransientAbort::SingularMatrix)
            return policy.denseFallback;
        if (failure.reason == spice::TransientAbort::NonfiniteState)
            return policy.relaxOnRetry;
        return false;
    };
    std::vector<std::size_t> recordOf;
    std::vector<std::size_t> pending =
        openRecords(results, rep, recordOf, sweepRetryable);

    const spice::TransientControl control{options.stop, options.deadline};
    for (int attempt = 2;
         attempt <= policy.maxAttempts && !pending.empty(); ++attempt) {
        if (options.stop.stop_requested() ||
            sim::detail::deadlinePassed(options.deadline))
            break;
        double relaxedDt = dt;
        for (int r = 0; r < attempt - 1; ++r)
            relaxedDt *= policy.dtFactor;

        std::vector<std::size_t> still;
        for (std::size_t index : pending) {
            RunReport::InstanceRecord &record =
                rep.records[recordOf[index]];
            ++record.attempts;
            const spice::TransientAbort reason =
                results[index].failure->reason;
            const bool denseRetry =
                reason == spice::TransientAbort::SingularMatrix;
            try {
                if (denseRetry) {
                    record.actions.push_back(
                        RunReport::Action::DenseFallback);
                    ++rep.denseFallbacks;
                    spice::MnaSystem dense(*netlists[index]);
                    results[index] = spice::transient(dense, t0, t1, dt,
                                                      {}, control);
                } else {
                    record.actions.push_back(
                        RunReport::Action::RelaxedRetry);
                    ++rep.relaxedRetries;
                    spice::SparseMnaSystem sparse(*netlists[index]);
                    results[index] = spice::transient(
                        sparse, t0, t1, relaxedDt, {}, control);
                }
            } catch (const support::ArkError &error) {
                results[index].failure =
                    spice::detail::errorFailure(error, t0);
            }
            if (ledger != nullptr) {
                // Serial retries bypass the sweep, so the supervisor
                // writes their records itself: standalone block, no
                // cache consult, tier per the rung taken.
                telemetry::RunLedger::Record rec = spice::detail::sweepRecord(
                    results[index], ledger->lastRunId(), index,
                    denseRetry ? telemetry::RunLedger::Tier::Dense
                               : telemetry::RunLedger::Tier::Sparse);
                rec.attempt = attempt;
                rec.action =
                    denseRetry
                        ? telemetry::RunLedger::RetryAction::DenseFallback
                        : telemetry::RunLedger::RetryAction::RelaxedRetry;
                ledger->append(std::move(rec));
            }
            if (results[index].failure &&
                sweepRetryable(*results[index].failure))
                still.push_back(index);
        }
        pending = std::move(still);
    }

    closeReport(results, rep);
    return results;
}

} // namespace ark::engine
