#include <bit>
#include <chrono>
#include <cstdint>

#include "compiler/odesystem.h"
#include "paperbench.h"
#include "support/rng.h"

namespace paperbench {

namespace tel = ark::telemetry;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Trace::Timer::~Timer()
{
    double elapsed = nowSeconds() - start;
    trace.seconds_[metric] += elapsed;
    if (serial)
        trace.serial_ += elapsed;
}

void
Trace::count(const std::string &metric, double value)
{
    counts_[metric] += value;
}

void
Trace::countEnsemble(const tel::RunLedger &ledger)
{
    for (const tel::RunLedger::Record &record : ledger.records()) {
        if (record.workload != tel::RunLedger::Workload::Ode)
            continue;
        count("sim.steps_accepted", static_cast<double>(record.stepsAccepted));
        count("sim.steps_rejected", static_cast<double>(record.stepsRejected));
        if (record.laneWidth > 1) {
            count("sim.lane_instances", 1);
            // A block of `lanes` live instances pays for `laneWidth`
            // slots; each of its records carries its share.
            count("sim.lane_slots",
                  static_cast<double>(record.laneWidth) /
                      static_cast<double>(record.lanes));
        } else {
            count("sim.scalar_instances", 1);
        }
    }
}

void
Trace::countCompiled(const ark::compiler::OdeSystem &system)
{
    count("compiler.systems", 1);
    count("compiler.tape_ops",
          static_cast<double>(system.rhsTape(false).size()));
}

double
Trace::spanSeconds() const
{
    double total = 0.0;
    for (const auto &[metric, seconds] : seconds_)
        total += seconds;
    return total;
}

std::uint64_t
seedBase(std::uint64_t seed)
{
    return ark::support::Rng(seed).deriveSeed();
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], b[i]))
            return false;
    return true;
}

} // namespace paperbench
