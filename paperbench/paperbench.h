#pragma once

// Shared pieces of the paper-workload benchmark: the workload
// interface main.cc times, and the benchmark-owned layer
// trace the replays record into.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/odesystem.h"
#include "support/ledger.h"

namespace paperbench {

/** Monotonic seconds (steady_clock). */
double nowSeconds();

/**
 * Per-layer accounting for one traced replay iteration. Every call
 * into a library layer is wrapped in span(), which adds its wall time
 * to the named metric; calls that run on a single thread also count
 * towards the serial share. Counts are added with count().
 */
class Trace
{
  public:
    template <class F>
    decltype(auto) span(const std::string &metric, bool serial, F &&fn)
    {
        Timer timer{*this, metric, serial, nowSeconds()};
        return fn();
    }

    void count(const std::string &metric, double value);

    /** Adds the ODE records of an ensemble ledger to the sim.* counts. */
    void countEnsemble(const ark::telemetry::RunLedger &ledger);

    /** Adds one compiled system to the compiler.* counts. */
    void countCompiled(const ark::compiler::OdeSystem &system);

    /** Seconds spent in spans, by metric name. */
    const std::map<std::string, double> &seconds() const { return seconds_; }

    /** Counts, by metric name. */
    const std::map<std::string, double> &counts() const { return counts_; }

    double serialSeconds() const { return serial_; }
    double spanSeconds() const;

  private:
    struct Timer
    {
        Trace &trace;
        const std::string &metric;
        bool serial;
        double start;
        ~Timer();
    };

    std::map<std::string, double> seconds_;
    std::map<std::string, double> counts_;
    double serial_ = 0.0;
};

/**
 * One paper workload. main.cc calls prepare() then run() once per
 * iteration (only run() is timed) and check() after every run();
 * replay() re-executes one iteration layer by layer under a Trace.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Items one iteration finishes (trials, responses, instances). */
    virtual std::size_t items() const = 0;

    /** Untimed: pins the cache state the iteration starts from. */
    virtual void prepare() = 0;

    /** One end-to-end iteration through the public entry point. */
    virtual void run() = 0;

    /**
     * Checks the last run()'s output. The first call validates it and
     * keeps it as the reference; later calls also require it to be
     * bit-identical to the reference. Returns "" when correct, else
     * what failed.
     */
    virtual std::string check() = 0;

    /**
     * Replays one iteration, each layer's public function called in
     * pipeline order inside a span, and compares the result with the
     * reference. Returns "" when equal, else what differed.
     */
    virtual std::string replay(Trace &trace) = 0;
};

std::unique_ptr<Workload> makeSec45(std::uint64_t seed);
std::unique_ptr<Workload> makePufCrp(std::uint64_t seed);
std::unique_ptr<Workload> makeMaxcut(std::uint64_t seed);

/**
 * First trial seed for a benchmark seed. The library's sweep runners
 * draw trial t from seedBase + t, so consecutive benchmark seeds would
 * share all but one trial; mixing the seed gives each its own set.
 */
std::uint64_t seedBase(std::uint64_t seed);

/** Bitwise equality of doubles (NaN-safe, -0.0 distinct). */
bool sameBits(double a, double b);
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

} // namespace paperbench
