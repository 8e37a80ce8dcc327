#ifndef ARK_SIM_BATCH_H
#define ARK_SIM_BATCH_H

/**
 * @file
 * Lane-parallel batch execution engine for ensemble simulation.
 *
 * BatchRunner partitions an N-instance batch into blocks of 1 to
 * expr::LaneTape::kMaxLanes instances that share one fused program
 * structure and integrates each block through the one RK4 or Dopri5
 * driver in sim.cc (detail::integrateBlock) — the same drivers
 * simulate() runs at width 1. A block steps over a structure-of-arrays
 * state block: one instruction stream, all lanes per dispatch.
 *
 *  - Rk4 blocks step the shared grid; every lane's trajectory is
 *    bit-identical to serial simulate() of that instance.
 *  - Dopri5 blocks vote on one shared step: per step, every lane gets
 *    its own embedded error estimate, the block accepts only when
 *    every active lane's error test passes, and the next shared step
 *    size is the minimum of the per-lane PI controller outputs.
 *    Rejections are charged only to the lanes whose error exceeded 1
 *    (per-lane rejection masking). A diverging lane (nonfinite error
 *    estimate or accepted state) retires on the spot with a
 *    structured failure while the rest keep integrating, and so does
 *    a lane whose step budget runs out (shared accepted steps plus
 *    the lane's own rejections reaching maxSteps retires THAT lane
 *    with BudgetExhausted — a stiff instance cannot take down its
 *    lane-mates); when survivors fit a narrower SoA width the block
 *    compacts, down to a W=1 block for a lone survivor. The shared
 *    voted grid makes multi-lane adaptive trajectories
 *    tolerance-level equivalent to serial Dopri5 (every accepted step
 *    satisfied every lane's error test; empirically the voted grid,
 *    being the min over lanes, tracks a tight reference closer than
 *    the single-instance runs do), NOT bitwise — and still
 *    bit-identical across thread counts, because the voting sequence
 *    depends only on the block assignment.
 *
 * Instances lane batching cannot group — structurally heterogeneous
 * programs (fused programs differing beyond Const immediates —
 * per-lane constant tables absorb parameter differences only), the
 * lone member of a structure class, and every instance of a
 * laneBatching=false ablation run — become one-member blocks, whose
 * results are bit-identical to serial simulate() for both
 * integrators. The ledger reports such an instance as tier "scalar"
 * with lane width 1.
 *
 * Jobs run on a persistent std::jthread worker pool owned by the
 * runner and reused across calls — no per-call thread spawn/join. The
 * pool parks on a condition variable between batches and grows lazily
 * to the requested concurrency.
 *
 * Determinism: block partitioning depends only on the batch, never on
 * thread count or scheduling; each block integrates independently, so
 * results at any thread count equal the single-thread results.
 * EnsembleOptions::progress ticks per completed instance — including
 * lanes that retire mid-block — strictly increasing to the total.
 * SimOptions::tapeFma routes every block through the FMA-contracted
 * tape variant uniformly, so the identity contracts above hold for
 * either setting.
 *
 * Failure discipline (the arkd-prerequisite contract): divergence,
 * budget exhaustion, cancellation, and deadline expiry are always
 * structured per-instance failures — never exceptions — at every
 * block width and under both integrators. Exceptions are reserved
 * for caller errors and step-size collapse; with
 * EnsembleOptions::structuredFaults even those are captured as
 * AbortReason::Fault failures on the affected instances instead of
 * rethrowing, which is how the engine::Session retry supervisor
 * turns faults into retryable work.
 */

#include <memory>
#include <vector>

#include "sim/sim.h"

namespace ark::sim {

/**
 * Persistent-pool ensemble runner. One instance may be shared across
 * threads (calls are serialized internally); most callers want the
 * process-wide shared() runner, which sim::simulateEnsemble routes
 * through.
 */
class BatchRunner
{
  public:
    BatchRunner();
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /**
     * Homogeneous batch: one system, N initial states. Same contract
     * as sim::simulateEnsemble (ordering, determinism, structured
     * failures, throw semantics).
     */
    std::vector<SimResult>
    run(const compiler::OdeSystem &system,
        const std::vector<std::vector<double>> &initialStates, double t0,
        double t1, const EnsembleOptions &options = EnsembleOptions{});

    /**
     * Heterogeneous batch: N distinct systems, each from its compiled
     * initial state. Instances whose fused programs are structurally
     * identical (e.g. per-chip mismatch variants of one circuit) are
     * lane-batched together; the rest run as one-member blocks.
     */
    std::vector<SimResult>
    run(const std::vector<const compiler::OdeSystem *> &systems,
        double t0, double t1,
        const EnsembleOptions &options = EnsembleOptions{});

    /**
     * Generic batch primitive on the same persistent pool: runs
     * job(0..count-1) with the calling thread participating alongside
     * up to numThreads-1 workers (0 picks the hardware concurrency;
     * the pool is capped at count). Non-ODE batch workloads — the
     * sparse SPICE transient engine (spice::TransientBatch) — ride
     * this instead of spawning their own threads. The job MUST NOT
     * throw: capture exceptions per index and rethrow after the call.
     */
    void parallelFor(std::size_t count, unsigned numThreads,
                     const std::function<void(std::size_t)> &job);

    /** Worker threads currently parked in the pool. */
    unsigned poolThreads() const;

    /** Process-wide runner backing sim::simulateEnsemble. */
    static BatchRunner &shared();

  private:
    class Pool;

    std::vector<SimResult>
    runImpl(const compiler::OdeSystem *homogeneous,
            const std::vector<std::vector<double>> *initialStates,
            const std::vector<const compiler::OdeSystem *> *systems,
            double t0, double t1, const EnsembleOptions &options);

    std::unique_ptr<Pool> pool_;
};

} // namespace ark::sim

#endif // ARK_SIM_BATCH_H
