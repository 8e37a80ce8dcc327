#include "sim/sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

#include "engine/jit.h"
#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "expr/rewrite.h"
#include "sim/batch.h"
#include "sim/dopri5.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/logging.h"
#include "support/telemetry.h"

namespace ark::sim {

using support::cat;
using support::SimError;

void
Trajectory::addSample(double t, const std::vector<double> &state,
                      const std::vector<double> *deriv)
{
    if (times_.empty())
        stateDim_ = state.size();
    support::panicIf(state.size() != stateDim_,
                     "Trajectory::addSample: state dimension changed");
    support::panicIf(deriv && deriv->size() != stateDim_,
                     "Trajectory::addSample: deriv dimension mismatch");
    times_.push_back(t);
    states_.insert(states_.end(), state.begin(), state.end());
    // Invariant: derivs_ mirrors states_ only while every sample has
    // carried a derivative; the first omission drops slopes for good
    // (misaligned Hermite data must never survive silently).
    if (derivsDropped_)
        return;
    if (deriv) {
        derivs_.insert(derivs_.end(), deriv->begin(), deriv->end());
    } else {
        derivs_.clear();
        derivs_.shrink_to_fit();
        derivsDropped_ = true;
    }
}

void
Trajectory::reserve(std::size_t samples, std::size_t stateDim)
{
    times_.reserve(samples);
    states_.reserve(samples * stateDim);
    if (!derivsDropped_)
        derivs_.reserve(samples * stateDim);
}

std::span<const double>
Trajectory::state(std::size_t sample) const
{
    support::panicIf(sample >= times_.size(),
                     "Trajectory::state: sample out of range");
    return {states_.data() + sample * stateDim_, stateDim_};
}

std::vector<double>
Trajectory::series(int stateIndex) const
{
    auto idx = static_cast<std::size_t>(stateIndex);
    support::panicIf(idx >= stateDim_ && !times_.empty(),
                     "Trajectory::series: state index out of range");
    std::vector<double> out;
    out.reserve(times_.size());
    for (std::size_t s = 0; s < times_.size(); ++s)
        out.push_back(states_[s * stateDim_ + idx]);
    return out;
}

double
Trajectory::sampleAt(int stateIndex, double t) const
{
    if (times_.empty())
        throw SimError("sampleAt on an empty trajectory");
    auto idx = static_cast<std::size_t>(stateIndex);
    support::panicIf(idx >= stateDim_,
                     "Trajectory::sampleAt: state index out of range");
    if (t <= times_.front())
        return states_[idx];
    if (t >= times_.back())
        return states_[(times_.size() - 1) * stateDim_ + idx];
    auto it = std::lower_bound(times_.begin(), times_.end(), t);
    std::size_t hi = static_cast<std::size_t>(it - times_.begin());
    std::size_t lo = hi - 1;
    double span = times_[hi] - times_[lo];
    if (span <= 0)
        return states_[lo * stateDim_ + idx];
    double y0 = states_[lo * stateDim_ + idx];
    double y1 = states_[hi * stateDim_ + idx];
    if (hasDerivs()) {
        // Cubic Hermite using the recorded slopes.
        double s = (t - times_[lo]) / span;
        double s2 = s * s;
        double s3 = s2 * s;
        double m0 = derivs_[lo * stateDim_ + idx];
        double m1 = derivs_[hi * stateDim_ + idx];
        return (2 * s3 - 3 * s2 + 1) * y0 +
               (s3 - 2 * s2 + s) * span * m0 +
               (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * span * m1;
    }
    double alpha = (t - times_[lo]) / span;
    return y0 + alpha * (y1 - y0);
}

std::vector<double>
Trajectory::resample(int stateIndex, double t0, double t1,
                     std::size_t n) const
{
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double t = n > 1 ? t0 + (t1 - t0) * static_cast<double>(i) /
                               static_cast<double>(n - 1)
                         : t0;
        out.push_back(sampleAt(stateIndex, t));
    }
    return out;
}

namespace {

/**
 * Step-voting and retirement tallies, accumulated locally by the
 * drivers (which already track steps/rejections for SimResult) and
 * flushed to the registry once per block — per-step instrumentation
 * would violate the telemetry overhead budget.
 */
struct VoteStats
{
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t retirements = 0;

    ~VoteStats() { flush(); }

    void
    flush() const
    {
        if (!telemetry::metricsEnabled())
            return;
        static telemetry::Counter &acceptedVotes =
            telemetry::Registry::shared().counter("ark.sim.vote.accepted");
        static telemetry::Counter &rejectedVotes =
            telemetry::Registry::shared().counter("ark.sim.vote.rejected");
        static telemetry::Counter &laneRetirements =
            telemetry::Registry::shared().counter(
                "ark.sim.lane_retirements");
        acceptedVotes.add(accepted);
        rejectedVotes.add(rejected);
        laneRetirements.add(retirements);
    }
};

using Deadline = std::optional<std::chrono::steady_clock::time_point>;
using detail::deadlinePassed;

/**
 * One lane block's RHS, routed through the JIT native kernel when
 * one resolves and the lane interpreter otherwise. Resolution
 * happens once per block (a cache hit after the first compile); every
 * failure mode — jit off, no toolchain, compile failure — leaves
 * kernel_ null and the block runs interpreted with identical results.
 * The kernel path replays the interpreter's deterministic TapeNan
 * poison site so fault-injection tests see one behavior on both tiers.
 */
class BlockEvaluator
{
  public:
    BlockEvaluator(const expr::LaneTape &tape, bool jitOn)
        : tape_(tape),
          kernel_(jitOn ? engine::jitKernel(tape) : nullptr)
    {
    }

    bool jitted() const { return kernel_ != nullptr; }

    void
    eval(const double *state, double t, double *out, double *regs) const
    {
        if (kernel_ != nullptr) {
            kernel_->call(state, t, out, tape_.constants().data());
            if (support::FaultInjector::shouldFire(
                    support::FaultSite::TapeNan) &&
                tape_.numOutputs() > 0) {
                out[0] = std::numeric_limits<double>::quiet_NaN();
            }
            return;
        }
        tape_.evalInto(state, t, out, regs);
    }

  private:
    const expr::LaneTape &tape_;
    expr::JitKernelPtr kernel_;
};

/** First nonfinite entry of a lane's strided column, or -1. */
int
firstNonfinite(const double *column, std::size_t n, std::size_t stride)
{
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(column[i * stride]))
            return static_cast<int>(i);
    return -1;
}

/**
 * Classical fixed-step RK4 over one lane block (1..8 instances on one
 * shared time grid). The stage arithmetic is elementwise and LaneTape
 * evaluates every lane bit-identically to FusedTape::evalInto, so a
 * lane's trajectory depends neither on its block-mates nor on the
 * block width: simulate()'s W=1 block and the same instance in a W=8
 * ensemble block agree bit for bit. A lane whose state goes nonfinite
 * is masked out with a structured failure (recording stops, its
 * columns keep computing ignored garbage; lanes never mix, so the
 * rest of the block is unaffected). Budget exhaustion is likewise
 * structural: all lanes share one fixed grid, so when the step budget
 * runs out every still-active lane retires with a BudgetExhausted
 * failure — exactly what each would have reported alone.
 */
std::vector<SimResult>
runLaneRk4(const expr::LaneTape &tape, const BlockEvaluator &rhs,
           const std::vector<const std::vector<double> *> &initials,
           const std::vector<const compiler::OdeSystem *> &systems,
           double t0, double t1, const SimOptions &options,
           const std::stop_token &stop, const Deadline &deadline,
           const std::function<void(std::size_t)> &laneDone)
{
    const std::size_t lanes = tape.lanes();
    const std::size_t width = tape.width();
    const std::size_t n = tape.numOutputs();
    const std::size_t m = n * width;
    std::vector<SimResult> results(lanes);
    VoteStats stats;

    // SoA blocks, lane-minor; padding lanes replicate lane 0 so their
    // (discarded) arithmetic stays finite.
    std::vector<double> state(m), k1(m), k2(m), k3(m), k4(m), tmp(m);
    std::vector<double> regs(tape.scratchSize());
    for (std::size_t l = 0; l < width; ++l) {
        const std::vector<double> &src = *initials[l < lanes ? l : 0];
        for (std::size_t i = 0; i < n; ++i)
            state[i * width + l] = src[i];
    }

    std::vector<char> alive(lanes, 1);
    std::size_t aliveCount = lanes;
    // Retires every live lane whose state column went nonfinite.
    auto retireDiverged = [&](double t, std::size_t steps) {
        for (std::size_t l = 0; l < lanes; ++l) {
            if (!alive[l])
                continue;
            int bad = firstNonfinite(state.data() + l, n, width);
            if (bad < 0)
                continue;
            results[l].steps = steps;
            results[l].failure =
                detail::divergedFailure(*systems[l], bad, t, steps);
            alive[l] = 0;
            --aliveCount;
            ++stats.retirements;
            laneDone(1);
        }
    };
    retireDiverged(t0, 0);
    if (aliveCount == 0)
        return results;

    const double dt = options.dt > 0 ? options.dt : (t1 - t0) / 1000.0;
    std::size_t estimate =
        options.recordDt > 0
            ? static_cast<std::size_t>((t1 - t0) / options.recordDt) + 4
            : static_cast<std::size_t>((t1 - t0) / dt) + 4;
    estimate = std::min<std::size_t>(estimate, std::size_t{1} << 20);
    for (std::size_t l = 0; l < lanes; ++l)
        if (alive[l])
            results[l].trajectory.reserve(estimate, n);

    const double recordDt = options.recordDt;
    double lastRecord = -1.0;
    std::vector<double> sample(n), slope(n);
    // All lanes share the time grid, so one record gate serves the
    // whole block; dead lanes are simply skipped.
    auto record = [&](double t, bool force) {
        if (!(force || recordDt <= 0.0 ||
              t - lastRecord >= recordDt * (1.0 - 1e-12)))
            return;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (!alive[l])
                continue;
            for (std::size_t i = 0; i < n; ++i) {
                sample[i] = state[i * width + l];
                slope[i] = k1[i * width + l];
            }
            results[l].trajectory.addSample(t, sample, &slope);
        }
        lastRecord = t;
    };

    double t = t0;
    std::size_t steps = 0;
    // k1 doubles as the recorded slope at each sample AND the next
    // step's first stage: (state, t) is unchanged between the
    // end-of-step evaluation and the loop top, so each step costs four
    // block evaluations, not five.
    rhs.eval(state.data(), t, k1.data(), regs.data());
    record(t, true);

    while (t < t1 - 1e-15 * std::max(1.0, std::fabs(t1))) {
        double h = std::min(dt, t1 - t);
        if (steps >= options.maxSteps) {
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!alive[l])
                    continue;
                results[l].steps = steps;
                results[l].failure = detail::budgetFailure(t, steps);
            }
            laneDone(aliveCount);
            return results;
        }
        if (stop.stop_requested() || deadlinePassed(deadline)) {
            const bool cancel = stop.stop_requested();
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!alive[l])
                    continue;
                results[l].steps = steps;
                results[l].failure =
                    cancel ? detail::cancelledFailure(t, steps)
                           : detail::deadlineFailure(t, steps);
            }
            laneDone(aliveCount);
            return results;
        }
        for (std::size_t j = 0; j < m; ++j)
            tmp[j] = state[j] + 0.5 * h * k1[j];
        rhs.eval(tmp.data(), t + 0.5 * h, k2.data(), regs.data());
        for (std::size_t j = 0; j < m; ++j)
            tmp[j] = state[j] + 0.5 * h * k2[j];
        rhs.eval(tmp.data(), t + 0.5 * h, k3.data(), regs.data());
        for (std::size_t j = 0; j < m; ++j)
            tmp[j] = state[j] + h * k3[j];
        rhs.eval(tmp.data(), t + h, k4.data(), regs.data());
        for (std::size_t j = 0; j < m; ++j) {
            state[j] += h / 6.0 *
                        (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        }
        t += h;
        ++steps;
        stats.accepted = steps;
        retireDiverged(t, steps);
        if (aliveCount == 0)
            return results;
        rhs.eval(state.data(), t, k1.data(), regs.data());
        record(t, false);
    }
    record(t, true);
    for (std::size_t l = 0; l < lanes; ++l)
        if (alive[l])
            results[l].steps = steps;
    laneDone(aliveCount);
    return results;
}

/**
 * Lane-synchronized adaptive Dopri5 over one block ("step voting").
 *
 * Every lane advances on ONE shared step size: per step the block
 * evaluates the six Dormand-Prince stages plus the FSAL stage for all
 * lanes at once, computes a per-lane error norm, and
 *
 *  - accepts the step only when every active lane's error test
 *    passes, advancing all of them on the shared grid; the next step
 *    size is the minimum of the per-lane PI controller outputs (the
 *    most cautious lane wins the vote);
 *  - otherwise rejects the step for the whole block, charging a
 *    rejection only to the lanes whose error actually exceeded 1
 *    (per-lane rejection masking) and shrinking by the controller
 *    factor of the worst lane.
 *
 * A lane whose error estimate or accepted state goes nonfinite is
 * retired on the spot with a structured divergence failure and stops
 * voting; the rest of the block integrates on. When enough lanes
 * retire that a narrower SoA width would hold the survivors, the
 * block compacts (state/slope columns are re-merged into a fresh
 * LaneTape of the smaller width), down to a W=1 block for a lone
 * survivor. A W=1 block steps exactly like any other block, so a
 * one-member job is simply the narrowest case of this driver.
 *
 * Numerics: the shared grid makes trajectories tolerance-level
 * equivalent to running each instance alone in a W=1 block (every
 * accepted step satisfied every lane's error test), not bitwise; with
 * one lane the vote is that lane's own PI controller, so simulate()
 * and a one-member ensemble job agree bit for bit. The voting
 * sequence depends only on the block membership, so results are
 * bit-identical across thread counts. Step collapse on the shared
 * step still throws for the block as a unit (a tolerance/step-floor
 * misconfiguration, not a per-instance property); budget exhaustion
 * is charged per lane — a lane retires with a structured
 * BudgetExhausted failure once the shared accepted steps plus ITS OWN
 * voted-down rejections reach maxSteps, and the healthy lanes
 * integrate on.
 */
class LaneDopri5
{
  public:
    LaneDopri5(const std::vector<const expr::FusedTape *> &tapes,
               const std::vector<const std::vector<double> *> &initials,
               const std::vector<const compiler::OdeSystem *> &systems,
               double t0, double t1, const SimOptions &options,
               const std::stop_token &stop, const Deadline &deadline,
               const std::function<void(std::size_t)> &laneDone,
               bool jitOn)
        : tapes_(tapes), systems_(systems), options_(options),
          stop_(stop), deadline_(deadline), laneDone_(laneDone),
          jitOn_(jitOn),
          n_(tapes.front()->numOutputs()), t1_(t1),
          end_(t1 - 1e-15 * std::max(1.0, std::fabs(t1))),
          hMax_(options.maxDt > 0 ? options.maxDt : (t1 - t0) / 10.0),
          t_(t0), h_(options.dt > 0 ? options.dt : (t1 - t0) / 1000.0),
          recordDt_(options.recordDt), results_(tapes.size())
    {
        for (std::size_t member = 0; member < initials.size(); ++member) {
            const std::vector<double> &init = *initials[member];
            int bad = firstNonfinite(init.data(), init.size(), 1);
            if (bad >= 0) {
                results_[member].failure = detail::divergedFailure(
                    *systems_[member], bad, t0, 0);
                laneDone_(1);
                continue;
            }
            Lane lane;
            lane.member = member;
            lane.state = init;
            active_.push_back(std::move(lane));
        }
        std::size_t estimate =
            recordDt_ > 0
                ? static_cast<std::size_t>((t1 - t0) / recordDt_) + 4
                : 256;
        estimate = std::min<std::size_t>(estimate, std::size_t{1} << 20);
        for (const Lane &lane : active_)
            results_[lane.member].trajectory.reserve(estimate, n_);
    }

    ~LaneDopri5()
    {
        stats_.accepted = steps_;
        stats_.rejected = rejectedShared_;
        // stats_'s own destructor flushes to the registry.
    }

    /** True when any block ran a JIT kernel — drives the run
     *  ledger's tier attribution. */
    bool usedJit() const { return usedJit_; }

    std::vector<SimResult>
    run()
    {
        // The first block evaluation also produces the k1 slope for
        // the initial record; after a compaction the slopes carry
        // over and nothing is re-recorded.
        bool initial = true;
        while (!active_.empty() && runBlock(initial) == Status::Compact)
            initial = false;
        return results_;
    }

  private:
    enum class Status { Done, Compact };

    /** Per-lane state that survives block compaction. */
    struct Lane
    {
        std::size_t member = 0;    ///< Index into the job's results.
        std::vector<double> state; ///< Current state (n_).
        std::vector<double> k1;    ///< FSAL slope at (t_, state).
        double prevErr = 1.0;      ///< Last accepted error norm.
        std::size_t rejected = 0;  ///< Steps this lane voted down.
    };

    bool
    recordGateOpen(double t, bool force) const
    {
        return force || recordDt_ <= 0.0 ||
               t - lastRecord_ >= recordDt_ * (1.0 - 1e-12);
    }

    /** Integrates the current active set as one lane block. */
    Status
    runBlock(bool initial)
    {
        std::vector<const expr::FusedTape *> blockTapes;
        blockTapes.reserve(active_.size());
        for (const Lane &lane : active_)
            blockTapes.push_back(tapes_[lane.member]);
        std::optional<expr::LaneTape> merged =
            expr::LaneTape::merge(blockTapes);
        // The batch partition already verified compatibility.
        support::panicIf(!merged.has_value(),
                         "LaneDopri5: block merge failed");
        const expr::LaneTape &tape = *merged;
        const BlockEvaluator rhs(tape, jitOn_);
        if (rhs.jitted())
            usedJit_ = true;
        const std::size_t L = active_.size();
        const std::size_t W = tape.width();
        const std::size_t m = n_ * W;

        std::vector<double> state(m), next(m), tmp(m);
        std::vector<double> k1(m), k2(m), k3(m), k4(m), k5(m), k6(m),
            k7(m);
        std::vector<double> regs(tape.scratchSize());
        std::vector<double> err(L, 0.0);
        std::vector<char> alive(L, 1);
        std::size_t aliveCount = L;
        // SoA columns, lane-minor; padding lanes replicate slot 0 so
        // their (discarded) arithmetic stays finite.
        for (std::size_t s = 0; s < W; ++s) {
            const Lane &src = active_[s < L ? s : 0];
            for (std::size_t i = 0; i < n_; ++i)
                state[i * W + s] = src.state[i];
            if (!initial) {
                for (std::size_t i = 0; i < n_; ++i)
                    k1[i * W + s] = src.k1[i];
            }
        }

        std::vector<double> sample(n_), slope(n_);
        auto record = [&](double t, bool force) {
            if (!recordGateOpen(t, force))
                return;
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s])
                    continue;
                for (std::size_t i = 0; i < n_; ++i) {
                    sample[i] = state[i * W + s];
                    slope[i] = k1[i * W + s];
                }
                results_[active_[s].member].trajectory.addSample(
                    t, sample, &slope);
            }
            lastRecord_ = t;
        };

        auto retireDiverged = [&](std::size_t s, int var) {
            SimResult &r = results_[active_[s].member];
            r.steps = steps_;
            r.rejectedSteps = active_[s].rejected;
            r.failure = detail::divergedFailure(*systems_[active_[s].member],
                                                var, t_, steps_);
            alive[s] = 0;
            --aliveCount;
            ++stats_.retirements;
            laneDone_(1);
        };

        if (initial) {
            rhs.eval(state.data(), t_, k1.data(), regs.data());
            record(t_, true);
        }

        using detail::Dopri5;
        while (t_ < end_) {
            h_ = std::min(h_, t1_ - t_);
            h_ = std::min(h_, hMax_);
            if (h_ < 1e-18 * std::max(1.0, std::fabs(t_)))
                throw SimError(cat("step size collapsed at t=", t_));
            // Per-lane budget: shared accepted steps plus the lane's
            // own voted-down rejections (steps + rejectedSteps for a
            // one-member block). Only the exhausted lane retires; its
            // block-mates vote on.
            bool budgetRetired = false;
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s] ||
                    steps_ + active_[s].rejected < options_.maxSteps)
                    continue;
                SimResult &r = results_[active_[s].member];
                r.steps = steps_;
                r.rejectedSteps = active_[s].rejected;
                r.failure = detail::budgetFailure(t_, steps_);
                alive[s] = 0;
                --aliveCount;
                ++stats_.retirements;
                laneDone_(1);
                budgetRetired = true;
            }
            if (aliveCount == 0)
                return Status::Done;
            if (budgetRetired && aliveCount <= W / 2) {
                compactInto(state, k1, alive, W);
                return Status::Compact;
            }
            if (stop_.stop_requested() || deadlinePassed(deadline_)) {
                const bool cancel = stop_.stop_requested();
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    SimResult &r = results_[active_[s].member];
                    r.steps = steps_;
                    r.rejectedSteps = active_[s].rejected;
                    r.failure =
                        cancel ? detail::cancelledFailure(t_, steps_)
                               : detail::deadlineFailure(t_, steps_);
                }
                laneDone_(aliveCount);
                return Status::Done;
            }

            const double h = h_;
            for (std::size_t j = 0; j < m; ++j)
                tmp[j] = state[j] + h * Dopri5::a21 * k1[j];
            rhs.eval(tmp.data(), t_ + Dopri5::c2 * h, k2.data(),
                     regs.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a31 * k1[j] + Dopri5::a32 * k2[j]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c3 * h, k3.data(),
                     regs.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a41 * k1[j] + Dopri5::a42 * k2[j] +
                              Dopri5::a43 * k3[j]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c4 * h, k4.data(),
                     regs.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a51 * k1[j] + Dopri5::a52 * k2[j] +
                              Dopri5::a53 * k3[j] + Dopri5::a54 * k4[j]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c5 * h, k5.data(),
                     regs.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a61 * k1[j] + Dopri5::a62 * k2[j] +
                              Dopri5::a63 * k3[j] + Dopri5::a64 * k4[j] +
                              Dopri5::a65 * k5[j]);
            }
            rhs.eval(tmp.data(), t_ + h, k6.data(), regs.data());
            for (std::size_t j = 0; j < m; ++j) {
                next[j] = state[j] +
                          h * (Dopri5::b1 * k1[j] + Dopri5::b3 * k3[j] +
                               Dopri5::b4 * k4[j] + Dopri5::b5 * k5[j] +
                               Dopri5::b6 * k6[j]);
            }
            rhs.eval(next.data(), t_ + h, k7.data(), regs.data());

            // Per-lane scaled error norms (5th vs embedded 4th).
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s])
                    continue;
                double norm = 0.0;
                for (std::size_t i = 0; i < n_; ++i) {
                    const std::size_t j = i * W + s;
                    double y4 =
                        state[j] +
                        h * (Dopri5::e1 * k1[j] + Dopri5::e3 * k3[j] +
                             Dopri5::e4 * k4[j] + Dopri5::e5 * k5[j] +
                             Dopri5::e6 * k6[j] + Dopri5::e7 * k7[j]);
                    double scale = options_.absTol +
                                   options_.relTol *
                                       std::max(std::fabs(state[j]),
                                                std::fabs(next[j]));
                    double e = (next[j] - y4) / scale;
                    norm += e * e;
                }
                err[s] = std::sqrt(norm / static_cast<double>(n_));
            }

            // A nonfinite error estimate retires the lane right here:
            // error control can never accept it again, and the reject
            // branch would grind the step toward collapse while
            // integrating NaNs. The survivors keep voting.
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s] || std::isfinite(err[s]))
                    continue;
                int bad = firstNonfinite(next.data() + s, n_, W);
                if (bad < 0)
                    bad = firstNonfinite(k7.data() + s, n_, W);
                retireDiverged(s, bad);
            }
            if (aliveCount == 0)
                return Status::Done;

            double worst = 0.0;
            for (std::size_t s = 0; s < L; ++s)
                if (alive[s])
                    worst = std::max(worst, err[s]);

            if (worst <= 1.0) {
                t_ += h;
                ++steps_;
                state.swap(next);
                k1.swap(k7); // FSAL: last stage is next first stage
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    int bad = firstNonfinite(state.data() + s, n_, W);
                    if (bad >= 0)
                        retireDiverged(s, bad);
                }
                record(t_, false);
                if (aliveCount == 0)
                    return Status::Done;
                // Step voting: the most cautious lane sets the pace.
                double factor = Dopri5::acceptFactor(err[0], 1.0);
                bool haveFactor = false;
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    double f = Dopri5::acceptFactor(err[s],
                                                    active_[s].prevErr);
                    factor = haveFactor ? std::min(factor, f) : f;
                    haveFactor = true;
                    active_[s].prevErr = err[s];
                }
                h_ *= factor;
            } else {
                ++rejectedShared_;
                for (std::size_t s = 0; s < L; ++s)
                    if (alive[s] && err[s] > 1.0)
                        ++active_[s].rejected;
                h_ *= Dopri5::rejectFactor(worst);
            }

            // Too few survivors to pay for this width: extract the
            // live columns and let the caller rebuild narrower — but
            // only while integration work remains. Compacting on the
            // very step that reached t1 would skip the forced final
            // record below and end the surviving trajectories on the
            // last gated sample instead of t1.
            if (aliveCount < L && t_ < end_ && aliveCount <= W / 2) {
                compactInto(state, k1, alive, W);
                return Status::Compact;
            }
        }

        record(t_, true);
        for (std::size_t s = 0; s < L; ++s) {
            if (!alive[s])
                continue;
            SimResult &r = results_[active_[s].member];
            r.steps = steps_;
            r.rejectedSteps = active_[s].rejected;
        }
        laneDone_(aliveCount);
        return Status::Done;
    }

    /** Saves surviving columns into active_ and drops retired lanes. */
    void
    compactInto(const std::vector<double> &state,
                const std::vector<double> &k1,
                const std::vector<char> &alive, std::size_t W)
    {
        std::vector<Lane> survivors;
        survivors.reserve(active_.size());
        for (std::size_t s = 0; s < active_.size(); ++s) {
            if (!alive[s])
                continue;
            Lane lane = std::move(active_[s]);
            lane.state.resize(n_);
            lane.k1.resize(n_);
            for (std::size_t i = 0; i < n_; ++i) {
                lane.state[i] = state[i * W + s];
                lane.k1[i] = k1[i * W + s];
            }
            survivors.push_back(std::move(lane));
        }
        active_ = std::move(survivors);
    }

    const std::vector<const expr::FusedTape *> &tapes_;
    const std::vector<const compiler::OdeSystem *> &systems_;
    const SimOptions &options_;
    const std::stop_token &stop_;
    const Deadline &deadline_;
    const std::function<void(std::size_t)> &laneDone_;
    const bool jitOn_;     ///< Try JIT kernels per block.
    bool usedJit_ = false; ///< Any block actually ran one.

    const std::size_t n_;  ///< State variables per instance.
    const double t1_;
    const double end_;     ///< t1 minus the loop-exit epsilon.
    const double hMax_;

    double t_;             ///< Shared integration time.
    double h_;             ///< Shared (voted) step size.
    double lastRecord_ = -1.0;
    double recordDt_;
    std::size_t steps_ = 0;          ///< Shared accepted steps.
    std::size_t rejectedShared_ = 0; ///< Shared rejected block steps.
    VoteStats stats_;                ///< Registry tallies, flushed once.
    std::vector<Lane> active_;
    std::vector<SimResult> results_;
};

} // namespace

SimResult
simulate(const compiler::OdeSystem &system, double t0, double t1,
         const SimOptions &options)
{
    return simulate(system, system.initialState(), t0, t1, options);
}

SimResult
simulate(const compiler::OdeSystem &system,
         const std::vector<double> &initial, double t0, double t1,
         const SimOptions &options)
{
    if (t1 <= t0)
        throw SimError("simulate: t1 must exceed t0");
    if (initial.size() != system.size()) {
        throw SimError(cat("simulate: initial state has ",
                           initial.size(), " entries, system has ",
                           system.size()));
    }
    // A one-member block on the calling thread: the integration a
    // singleton ensemble job runs, without the pool or the ledger.
    bool usedJit = false;
    std::vector<SimResult> results = detail::integrateBlock(
        {&system.rhsTape(options.tapeFma,
                         expr::reassocEnabled(options.tapeReassoc))},
        {&initial}, {&system}, t0, t1, options,
        expr::jitEnabled(options.jit), std::stop_token{}, std::nullopt,
        [](std::size_t) {}, usedJit);
    return std::move(results.front());
}

const char *
abortReasonName(AbortReason reason)
{
    switch (reason) {
    case AbortReason::Diverged:
        return "diverged";
    case AbortReason::Cancelled:
        return "cancelled";
    case AbortReason::BudgetExhausted:
        return "budget_exhausted";
    case AbortReason::DeadlineExceeded:
        return "deadline_exceeded";
    case AbortReason::Fault:
        return "fault";
    }
    return "unknown";
}

SimFailure
detail::divergedFailure(const compiler::OdeSystem &system, int var,
                        double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::Diverged;
    failure.step = steps;
    failure.stateIndex = var;
    failure.time = t;
    const char *label =
        var >= 0
            ? system.vars()[static_cast<std::size_t>(var)].node.c_str()
            : "<error estimate>";
    failure.message = cat("state diverged (non-finite ", label,
                          " after step ", steps, " at t=", t, ")");
    return failure;
}

SimFailure
detail::cancelledFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::Cancelled;
    failure.step = steps;
    failure.time = t;
    failure.message = cat("cancelled at t=", t);
    return failure;
}

SimFailure
detail::budgetFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::BudgetExhausted;
    failure.step = steps;
    failure.time = t;
    failure.message =
        cat("step budget exhausted after step ", steps, " at t=", t);
    return failure;
}

SimFailure
detail::deadlineFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::DeadlineExceeded;
    failure.step = steps;
    failure.time = t;
    failure.message = cat("deadline exceeded at t=", t);
    return failure;
}

SimFailure
detail::faultFailure(double t, const std::string &what)
{
    SimFailure failure;
    failure.reason = AbortReason::Fault;
    failure.time = t;
    failure.message = cat("internal fault: ", what);
    return failure;
}

bool
detail::deadlinePassed(const Deadline &deadline)
{
    return deadline && std::chrono::steady_clock::now() >= *deadline;
}

void
detail::ProgressTicker::tick(std::size_t n)
{
    watchdog_.heartbeat();
    if (n == 0 || !callback_)
        return;
    std::lock_guard lock(mutex_);
    completed_ += n;
    callback_(completed_, total_);
}

std::vector<SimResult>
detail::integrateBlock(
    const std::vector<const expr::FusedTape *> &tapes,
    const std::vector<const std::vector<double> *> &initials,
    const std::vector<const compiler::OdeSystem *> &systems, double t0,
    double t1, const SimOptions &options, bool jit,
    const std::stop_token &stop, const Deadline &deadline,
    const std::function<void(std::size_t)> &laneDone, bool &usedJit)
{
    if (options.method == Method::Dopri5) {
        LaneDopri5 driver(tapes, initials, systems, t0, t1, options, stop,
                          deadline, laneDone, jit);
        std::vector<SimResult> results = driver.run();
        usedJit = driver.usedJit();
        return results;
    }
    std::optional<expr::LaneTape> tape = expr::LaneTape::merge(tapes);
    // Callers group only lane-compatible programs into one block.
    support::panicIf(!tape.has_value(), "integrateBlock: lane merge failed");
    const BlockEvaluator rhs(*tape, jit);
    usedJit = rhs.jitted();
    return runLaneRk4(*tape, rhs, initials, systems, t0, t1, options, stop,
                      deadline, laneDone);
}

std::vector<SimResult>
simulateEnsemble(const compiler::OdeSystem &system,
                 const std::vector<std::vector<double>> &initialStates,
                 double t0, double t1, const EnsembleOptions &options)
{
    return BatchRunner::shared().run(system, initialStates, t0, t1,
                                     options);
}

std::vector<SimResult>
simulateEnsemble(const std::vector<const compiler::OdeSystem *> &systems,
                 double t0, double t1, const EnsembleOptions &options)
{
    return BatchRunner::shared().run(systems, t0, t1, options);
}

SimResult
simulateToSteadyState(const compiler::OdeSystem &system, double t0,
                      double tMax, double derivTol,
                      const SimOptions &options)
{
    SimOptions opts = options;
    if (opts.recordDt <= 0)
        opts.recordDt = (tMax - t0) / 2000.0;
    SimResult run = simulate(system, t0, tMax, opts);
    // A diverged run never settled: don't let a quiet early sample of
    // the partial trajectory masquerade as steady state.
    if (!run.ok())
        return run;

    std::vector<double> deriv(system.size());
    std::vector<double> scratch;
    for (std::size_t s = 0; s < run.trajectory.size(); ++s) {
        system.evalRhs(run.trajectory.state(s).data(),
                       run.trajectory.time(s), deriv.data(), scratch);
        double maxDeriv = 0.0;
        for (double d : deriv)
            maxDeriv = std::max(maxDeriv, std::fabs(d));
        if (maxDeriv < derivTol) {
            run.reachedSteadyState = true;
            break;
        }
    }
    return run;
}

} // namespace ark::sim
