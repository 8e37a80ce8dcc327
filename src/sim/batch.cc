#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "expr/rewrite.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/ledger.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "support/watchdog.h"

namespace ark::sim {

using support::cat;
using support::SimError;

namespace {

/** Lazily-grown pool cap; parked workers are cheap but not free. */
constexpr unsigned kMaxPoolThreads = 64;

SimResult
cancelledResult(double t)
{
    SimResult result;
    result.failure = detail::cancelledFailure(t, 0);
    return result;
}

SimResult
deadlineResult(double t)
{
    SimResult result;
    result.failure = detail::deadlineFailure(t, 0);
    return result;
}

/** Message for an in-flight exception (structured fault capture). */
std::string
currentExceptionMessage()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

/**
 * Persistent worker pool. Workers are std::jthread, parked on a
 * condition variable between batches and woken per run() generation;
 * job indices are claimed with an atomic counter (work stealing), and
 * the calling thread drains alongside the workers. run() returns only
 * after every claimed job has finished AND every worker has left its
 * drain loop, so the job closure can safely live on the caller's
 * stack.
 */
class BatchRunner::Pool
{
  public:
    ~Pool()
    {
        // jthread destructors request stop; wake the parked workers so
        // they observe it.
        for (std::jthread &worker : workers_)
            worker.request_stop();
        cv_.notify_all();
    }

    unsigned
    size() const
    {
        std::lock_guard lock(m_);
        return static_cast<unsigned>(workers_.size());
    }

    /** Grows the pool to `target` workers (capped). */
    void
    ensure(unsigned target)
    {
        target = std::min(target, kMaxPoolThreads);
        std::lock_guard lock(m_);
        while (workers_.size() < target) {
            unsigned index = static_cast<unsigned>(workers_.size());
            workers_.emplace_back([this, index](std::stop_token st) {
                workerLoop(st, index);
            });
        }
    }

    /**
     * Runs job(0..count) using the calling thread plus up to
     * `activeWorkers` pool workers. The job must capture its own
     * exceptions (a throw would terminate a worker).
     */
    void
    run(std::size_t count, unsigned activeWorkers,
        const std::function<void(std::size_t)> &job)
    {
        if (count == 0)
            return;
        // One batch at a time: a second caller resetting next_/count_
        // mid-generation would re-issue indices and let run() return
        // while workers still hold the first batch's job closure.
        std::lock_guard runLock(runMutex_);
        {
            std::lock_guard lock(m_);
            ++generation_;
            count_ = count;
            job_ = &job;
            active_ = activeWorkers;
            finished_ = 0;
            next_.store(0, std::memory_order_relaxed);
        }
        cv_.notify_all();
        drain(&job, count, /*stolen=*/false);
        std::unique_lock lock(m_);
        doneCv_.wait(lock, [&] {
            return finished_ == count_ && draining_ == 0;
        });
        job_ = nullptr;
    }

  private:
    void
    drain(const std::function<void(std::size_t)> *job, std::size_t count,
          bool stolen)
    {
        static telemetry::Counter &tasks =
            telemetry::Registry::shared().counter("ark.sim.pool.tasks");
        static telemetry::Counter &steals =
            telemetry::Registry::shared().counter("ark.sim.pool.steals");
        for (std::size_t i = next_.fetch_add(1); i < count;
             i = next_.fetch_add(1)) {
            tasks.add();
            if (stolen)
                steals.add();
            (*job)(i);
            std::lock_guard lock(m_);
            if (++finished_ == count_)
                doneCv_.notify_all();
        }
    }

    void
    workerLoop(std::stop_token st, unsigned index)
    {
        static telemetry::Counter &parks =
            telemetry::Registry::shared().counter("ark.sim.pool.parks");
        static telemetry::Counter &wakes =
            telemetry::Registry::shared().counter("ark.sim.pool.wakes");
        static telemetry::Counter &busyNs =
            telemetry::Registry::shared().counter("ark.sim.pool.busy_ns");
        std::uint64_t seen = 0;
        while (true) {
            const std::function<void(std::size_t)> *job;
            std::size_t count;
            {
                std::unique_lock lock(m_);
                parks.add();
                bool live = cv_.wait(lock, st, [&] {
                    return job_ != nullptr && generation_ != seen &&
                           index < active_;
                });
                if (!live)
                    return; // stop requested (pool teardown)
                wakes.add();
                seen = generation_;
                job = job_;
                count = count_;
                ++draining_;
            }
            // Busy time covers the whole drain (jobs claimed by this
            // worker); the clock is only read when collection is on.
            const bool timed = telemetry::metricsEnabled();
            const std::uint64_t begin =
                timed ? telemetry::detail::nowNs() : 0;
            drain(job, count, /*stolen=*/true);
            if (timed)
                busyNs.add(telemetry::detail::nowNs() - begin);
            std::lock_guard lock(m_);
            if (--draining_ == 0 && finished_ == count_)
                doneCv_.notify_all();
        }
    }

    std::mutex runMutex_; ///< Serializes whole run() calls.
    mutable std::mutex m_;
    std::condition_variable_any cv_; ///< Workers park here.
    std::condition_variable doneCv_; ///< run() completion.
    std::uint64_t generation_ = 0;
    std::size_t count_ = 0;
    unsigned active_ = 0;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::atomic<std::size_t> next_{0};
    std::size_t finished_ = 0;  ///< Jobs completed this generation.
    unsigned draining_ = 0;     ///< Workers inside their drain loop.
    std::vector<std::jthread> workers_;
};

BatchRunner::BatchRunner() : pool_(std::make_unique<Pool>()) {}

BatchRunner::~BatchRunner() = default;

unsigned
BatchRunner::poolThreads() const
{
    return pool_->size();
}

void
BatchRunner::parallelFor(std::size_t count, unsigned numThreads,
                         const std::function<void(std::size_t)> &job)
{
    if (count == 0)
        return;
    if (numThreads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        numThreads = hw ? hw : 1;
    }
    unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(numThreads, count));
    if (effective <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            job(i);
        return;
    }
    pool_->ensure(effective - 1);
    pool_->run(count, effective - 1, job);
}

BatchRunner &
BatchRunner::shared()
{
    static BatchRunner runner;
    return runner;
}

std::vector<SimResult>
BatchRunner::run(const compiler::OdeSystem &system,
                 const std::vector<std::vector<double>> &initialStates,
                 double t0, double t1, const EnsembleOptions &options)
{
    return runImpl(&system, &initialStates, nullptr, t0, t1, options);
}

std::vector<SimResult>
BatchRunner::run(const std::vector<const compiler::OdeSystem *> &systems,
                 double t0, double t1, const EnsembleOptions &options)
{
    for (const compiler::OdeSystem *system : systems)
        support::panicIf(system == nullptr,
                         "simulateEnsemble: null system");
    return runImpl(nullptr, nullptr, &systems, t0, t1, options);
}

std::vector<SimResult>
BatchRunner::runImpl(const compiler::OdeSystem *homogeneous,
                     const std::vector<std::vector<double>> *initialStates,
                     const std::vector<const compiler::OdeSystem *> *systems,
                     double t0, double t1, const EnsembleOptions &options)
{
    const std::size_t count =
        homogeneous ? initialStates->size() : systems->size();
    if (count == 0)
        return {};
    if (t1 <= t0)
        throw SimError("simulate: t1 must exceed t0");

    auto systemOf = [&](std::size_t i) -> const compiler::OdeSystem & {
        return homogeneous ? *homogeneous : *(*systems)[i];
    };
    auto initialOf = [&](std::size_t i) -> const std::vector<double> & {
        return homogeneous ? (*initialStates)[i]
                           : (*systems)[i]->initialState();
    };
    for (std::size_t i = 0; i < count; ++i) {
        if (initialOf(i).size() != systemOf(i).size()) {
            throw SimError(cat("simulate: initial state has ",
                               initialOf(i).size(),
                               " entries, system has ",
                               systemOf(i).size()));
        }
    }

    // Partition into jobs: a stable group-by-structure pass collects
    // every instance sharing one fused program (interleaved batches
    // like [A, B, A, B, ...] still lane-batch per structure), then
    // each class splits into blocks of up to kMaxLanes. Partitioning
    // depends only on the batch, never on thread count, and results
    // are written by original index, so ordering is preserved. Both
    // integrators lane-batch; Rk4 blocks run the fixed-step driver,
    // Dopri5 blocks the step-voting adaptive driver.
    const bool laneEligible = options.laneBatching;
    const bool fma = options.sim.tapeFma;
    // Resolved once per batch (ARK_TAPE_REASSOC override folded in)
    // so every member of a lane class selects the same tape variant.
    const bool reassoc = expr::reassocEnabled(options.sim.tapeReassoc);
    // Resolved once per batch: the option gated by the ARK_JIT_FORCE
    // override. Kernel resolution itself stays per block (per merged
    // structure), so a mixed batch jits what it can.
    const bool jitOn = expr::jitEnabled(options.sim.jit);
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t i = 0; i < count; ++i) {
        if (laneEligible) {
            bool placed = false;
            for (std::vector<std::size_t> &cls : classes) {
                const compiler::OdeSystem &leader =
                    systemOf(cls.front());
                if (&systemOf(i) == &leader ||
                    expr::LaneTape::compatible(
                        leader.rhsTape(fma, reassoc),
                        systemOf(i).rhsTape(fma, reassoc))) {
                    cls.push_back(i);
                    placed = true;
                    break;
                }
            }
            if (placed)
                continue;
        }
        classes.push_back({i});
    }
    // One pool job per block: the members' instance indices.
    std::vector<std::vector<std::size_t>> jobs;
    for (const std::vector<std::size_t> &cls : classes) {
        for (std::size_t base = 0; base < cls.size();
             base += expr::LaneTape::kMaxLanes) {
            std::size_t blockSize = std::min(
                expr::LaneTape::kMaxLanes, cls.size() - base);
            jobs.emplace_back(cls.begin() + base,
                              cls.begin() + base + blockSize);
        }
    }

    // Flight recorder and stall watchdog are observation-only: the
    // ledger gets one record per instance after the pool drains, the
    // watchdog a heartbeat per completed instance. Cost when off: one
    // null-pointer check / one relaxed load.
    const std::uint64_t ledgerRun =
        options.ledger != nullptr
            ? options.ledger->beginRun(
                  telemetry::RunLedger::Workload::Ode, count)
            : 0;
    telemetry::StallWatchdog::Run watchdogRun("ode_ensemble", count);

    telemetry::ScopedSpan ensembleSpan("ark.sim.ensemble", count);
    if (telemetry::metricsEnabled()) {
        static telemetry::Counter &ensembles =
            telemetry::Registry::shared().counter("ark.sim.ensembles");
        static telemetry::Counter &instances =
            telemetry::Registry::shared().counter("ark.sim.instances");
        // Occupancy: lanes carried vs. SoA width paid, by width class.
        static telemetry::Counter &blockLanes =
            telemetry::Registry::shared().counter("ark.sim.block_lanes");
        static telemetry::Counter &blockWidth =
            telemetry::Registry::shared().counter("ark.sim.block_width");
        static telemetry::Counter *blocksByWidth[4] = {
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w1"),
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w2"),
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w4"),
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w8"),
        };
        ensembles.add();
        instances.add(count);
        for (const std::vector<std::size_t> &members : jobs) {
            const std::size_t lanes = members.size();
            std::size_t width = 1, widthClass = 0;
            while (width < lanes) {
                width *= 2;
                ++widthClass;
            }
            blockLanes.add(lanes);
            blockWidth.add(width);
            blocksByWidth[widthClass]->add();
        }
    }

    std::vector<SimResult> results(count);
    std::vector<std::exception_ptr> errors(count);
    // Per-job JIT provenance for the ledger flush below: a job is
    // "jit" only when a kernel actually ran (not merely requested).
    std::vector<char> jitUsed(jobs.size(), 0);
    // Per-instance progress: both block drivers report each instance
    // the moment it completes (finish, divergence retirement, or
    // cancellation), so the completed count ticks consistently at
    // every block width and stays strictly increasing under lane
    // retirement.
    detail::ProgressTicker progress(options.progress, count, watchdogRun);

    auto runJob = [&](std::size_t jobIndex) {
        const std::vector<std::size_t> &members = jobs[jobIndex];
        std::size_t reported = 0;
        std::function<void(std::size_t)> laneDone =
            [&](std::size_t done) {
                reported += done;
                progress.tick(done);
            };
        try {
            if (support::FaultInjector::shouldFire(
                    support::FaultSite::WorkerTask))
                throw SimError("fault injection: worker task fault");
            if (options.stop.stop_requested()) {
                // Skipped before starting: no samples at all.
                for (std::size_t member : members)
                    results[member] = cancelledResult(t0);
                laneDone(members.size());
            } else if (detail::deadlinePassed(options.deadline)) {
                for (std::size_t member : members)
                    results[member] = deadlineResult(t0);
                laneDone(members.size());
            } else {
                telemetry::ScopedSpan span("ark.sim.lane_block",
                                           members.size());
                std::vector<const expr::FusedTape *> tapes;
                std::vector<const std::vector<double> *> inits;
                std::vector<const compiler::OdeSystem *> blockSystems;
                tapes.reserve(members.size());
                inits.reserve(members.size());
                blockSystems.reserve(members.size());
                for (std::size_t member : members) {
                    tapes.push_back(
                        &systemOf(member).rhsTape(fma, reassoc));
                    inits.push_back(&initialOf(member));
                    blockSystems.push_back(&systemOf(member));
                }
                bool usedJit = false;
                std::vector<SimResult> block = detail::integrateBlock(
                    tapes, inits, blockSystems, t0, t1, options.sim, jitOn,
                    options.stop, options.deadline, laneDone, usedJit);
                jitUsed[jobIndex] = usedJit;
                for (std::size_t k = 0; k < members.size(); ++k)
                    results[members[k]] = std::move(block[k]);
            }
        } catch (...) {
            if (options.structuredFaults) {
                // Capture the escape as a per-instance Fault failure:
                // the retry supervisor treats it as data, and the
                // batch as a whole no longer throws for it.
                std::string what = currentExceptionMessage();
                for (std::size_t member : members) {
                    SimResult faulted;
                    faulted.failure = detail::faultFailure(t0, what);
                    results[member] = std::move(faulted);
                }
            } else {
                for (std::size_t member : members)
                    errors[member] = std::current_exception();
            }
        }
        // A thrown block (step collapse, budget) still accounts for
        // every member so `completed` reaches `total` exactly once.
        if (reported < members.size())
            progress.tick(members.size() - reported);
    };

    unsigned requested = options.numThreads;
    if (requested == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        requested = hw ? hw : 1;
    }
    unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(requested, jobs.size()));
    if (effective <= 1) {
        for (std::size_t jobIndex = 0; jobIndex < jobs.size(); ++jobIndex)
            runJob(jobIndex);
    } else {
        pool_->ensure(effective - 1);
        pool_->run(jobs.size(), effective - 1, runJob);
    }

    if (options.ledger != nullptr) {
        // One pass at the flush point the metrics block already uses:
        // per-job tier/width/block plus each result's step counters
        // and structured failure. Instances about to rethrow have no
        // result to describe and are skipped.
        for (std::size_t jobIndex = 0; jobIndex < jobs.size();
             ++jobIndex) {
            const std::vector<std::size_t> &members = jobs[jobIndex];
            std::size_t width = 1;
            while (width < members.size())
                width *= 2;
            for (std::size_t member : members) {
                if (errors[member])
                    continue;
                const SimResult &result = results[member];
                telemetry::RunLedger::Record record;
                record.runId = ledgerRun;
                record.index = member;
                record.workload = telemetry::RunLedger::Workload::Ode;
                record.tier =
                    jitUsed[jobIndex]
                        ? telemetry::RunLedger::Tier::Jit
                        : (members.size() > 1
                               ? telemetry::RunLedger::Tier::Lane
                               : telemetry::RunLedger::Tier::Scalar);
                record.laneWidth = width;
                record.lanes = members.size();
                record.blockId = jobIndex;
                record.stepsAccepted = result.steps;
                record.stepsRejected = result.rejectedSteps;
                record.ok = result.ok();
                if (result.failure.has_value()) {
                    record.failureReason =
                        abortReasonName(result.failure->reason);
                    record.failureMessage = result.failure->message;
                }
                options.ledger->append(std::move(record));
            }
        }
    }

    for (std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return results;
}

} // namespace ark::sim
