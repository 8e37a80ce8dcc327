// sec45: the §4.5 SPICE cross-validation sweep, 256 random GmC-TLN
// design points per iteration with the shared artifact cache cleared
// first, so every trial is compiled, mapped and factored anew.

#include <algorithm>
#include <optional>

#include "apps/experiments.h"
#include "compiler/compiler.h"
#include "engine/fingerprint.h"
#include "engine/session.h"
#include "paperbench.h"
#include "paradigms/standard.h"
#include "spice/map_tln.h"
#include "support/error.h"
#include "support/linalg.h"
#include "support/logging.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace paperbench {

namespace {

namespace exp = ark::apps::experiments;
namespace ptln = ark::paradigms::tln;
using ark::support::cat;

constexpr int kTrials = 256;

bool
sameStats(const exp::SpiceValidation &a, const exp::SpiceValidation &b)
{
    return a.total == b.total && a.mapped == b.mapped &&
           a.under1pct == b.under1pct && sameBits(a.meanRmse, b.meanRmse) &&
           sameBits(a.maxRmse, b.maxRmse) && a.spiceGroups == b.spiceGroups &&
           a.spiceFactorHits == b.spiceFactorHits &&
           a.spiceFactorMisses == b.spiceFactorMisses;
}

class Sec45 final : public Workload
{
  public:
    explicit Sec45(std::uint64_t seed)
        : registry_(ark::paradigms::makeStandardRegistry()),
          gmc_(registry_.language("gmc-tln")), seedBase_(seedBase(seed))
    {
    }

    std::size_t items() const override { return kTrials; }

    void prepare() override { ark::engine::ArtifactCache::shared().clear(); }

    void run() override
    {
        last_ = exp::runSpiceValidation(gmc_, kTrials, seedBase_);
    }

    std::string check() override
    {
        if (last_.mapped != kTrials || last_.under1pct != kTrials)
            return cat("mapped ", last_.mapped, " and under 1% RMSE ",
                       last_.under1pct, " of ", kTrials, " trials");
        if (!reference_) {
            reference_ = last_;
            return "";
        }
        return sameStats(last_, *reference_)
                   ? ""
                   : "statistics differ from the first iteration";
    }

    std::string replay(Trace &trace) override;

  private:
    ark::lang::LanguageRegistry registry_;
    const ark::lang::Language &gmc_;
    std::uint64_t seedBase_;
    exp::SpiceValidation last_;
    std::optional<exp::SpiceValidation> reference_;
    std::uint64_t keySink_ = 0; ///< Keeps the replayed lookups live.
};

// Mirrors exp::runSpiceValidation step for step (same RNG draws, same
// 128-trial chunks, so lane blocks and results are bit-identical).
std::string
Sec45::replay(Trace &trace)
{
    const double tEnd = 4e-8;
    const double spiceDt = 2e-11;
    const std::size_t compareGrid = 400;
    const bool serial = true;
    const bool parallel = false;

    exp::SpiceValidation report;
    report.total = kTrials;
    ark::engine::Session session;
    std::vector<ark::engine::SystemPtr> systems;
    std::vector<ark::spice::MappedTln> mapped;
    std::uint64_t keys = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        ark::support::Rng rng(seedBase_ + static_cast<std::uint64_t>(trial));
        ptln::LineSpec spec;
        spec.sections = static_cast<int>(rng.uniformInt(3, 12));
        spec.inductance = rng.uniform(0.5e-9, 2e-9);
        spec.capacitance = rng.uniform(0.5e-9, 2e-9);
        spec.sourceConductance = rng.uniform(0.5, 2.0);
        spec.termConductance = rng.uniform(0.5, 2.0);
        spec.pulseWidth = rng.uniform(0.5e-8, 2e-8);
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = rng.deriveSeed();
        ark::dg::Graph graph = [&] {
            if (rng.bernoulli(0.5)) {
                ptln::BranchSpec branch;
                branch.line = spec;
                branch.stubSections = static_cast<int>(rng.uniformInt(1, 4));
                branch.attachAt = static_cast<int>(
                    rng.uniformInt(1, spec.sections - 1));
                return trace.span("paradigms.build_s", serial, [&] {
                    return ptln::buildBranched(gmc_, branch);
                });
            }
            return trace.span("paradigms.build_s", serial,
                              [&] { return ptln::buildLine(gmc_, spec); });
        }();
        // The cache was cleared: a lookup misses and builds, which is
        // validation then lowering.
        keys ^= trace.span("engine.lookup_s", serial, [&] {
            return ark::engine::fingerprintGraph(graph, gmc_).combined.lo;
        });
        trace.span("validator.validate_s", serial,
                   [&] { ark::validator::validateOrThrow(graph, gmc_); });
        systems.push_back(trace.span("compiler.compile_s", serial, [&] {
            return std::make_shared<const ark::compiler::OdeSystem>(
                ark::compiler::compile(graph, gmc_));
        }));
        trace.countCompiled(*systems.back());
        mapped.push_back(trace.span("spice.map_s", serial, [&] {
            return ark::spice::mapTlnToSpice(graph, gmc_);
        }));
        ++report.mapped;
    }
    keySink_ = keys;

    std::vector<const ark::spice::Netlist *> netlists;
    for (const ark::spice::MappedTln &map : mapped)
        netlists.push_back(&map.netlist);
    report.spiceGroups = trace.span("spice.map_s", serial, [&] {
        return static_cast<int>(ark::spice::countStructureGroups(netlists));
    });
    trace.count("spice.structure_groups", report.spiceGroups);

    ark::telemetry::RunLedger ledger;
    ark::sim::EnsembleOptions odeOptions;
    odeOptions.sim.relTol = 1e-8;
    odeOptions.sim.absTol = 1e-12;
    odeOptions.sim.recordDt = tEnd / 2000.0;
    odeOptions.ledger = &ledger;
    ark::spice::TransientBatchOptions batchOptions;

    const int chunk = 128;
    for (int base = 0; base < kTrials; base += chunk) {
        const int end = std::min(kTrials, base + chunk);
        std::vector<const ark::compiler::OdeSystem *> odeSlice;
        std::vector<const ark::spice::Netlist *> netSlice;
        for (int trial = base; trial < end; ++trial) {
            odeSlice.push_back(systems[static_cast<std::size_t>(trial)].get());
            netSlice.push_back(netlists[static_cast<std::size_t>(trial)]);
        }
        std::vector<ark::sim::SimResult> dgResults =
            trace.span("sim.ensemble_s", parallel, [&] {
                return ark::sim::simulateEnsemble(odeSlice, 0.0, tEnd,
                                                  odeOptions);
            });
        ark::engine::SweepStats sweepStats;
        std::vector<ark::spice::TransientResult> spiceResults =
            trace.span("spice.sweep_s", parallel, [&] {
                return session.runSweep(netSlice, 0.0, tEnd, spiceDt,
                                        batchOptions, &sweepStats);
            });
        report.spiceFactorHits += static_cast<int>(sweepStats.factorHits);
        report.spiceFactorMisses += static_cast<int>(sweepStats.factorMisses);

        trace.span("apps.score_s", serial, [&] {
            for (int trial = base; trial < end; ++trial) {
                auto idx = static_cast<std::size_t>(trial);
                auto local = static_cast<std::size_t>(trial - base);
                if (!dgResults[local].ok() || !spiceResults[local].ok())
                    throw ark::support::SimError(
                        cat("sec45 replay trial ", trial, " failed"));
                std::vector<double> dgSeries =
                    dgResults[local].trajectory.resample(
                        systems[idx]->stateIndex(ptln::outputNode(), 0), 0.0,
                        tEnd, compareGrid);
                std::vector<double> spiceAll = spiceResults[local].series(
                    static_cast<std::size_t>(
                        mapped[idx].circuitNodeOf.at(ptln::outputNode())));
                std::vector<double> spiceSeries;
                spiceSeries.reserve(compareGrid);
                for (std::size_t g = 0; g < compareGrid; ++g) {
                    double t = tEnd * static_cast<double>(g) /
                               static_cast<double>(compareGrid - 1);
                    double pos = t / spiceDt;
                    auto lo = static_cast<std::size_t>(pos);
                    lo = std::min(lo, spiceAll.size() - 1);
                    std::size_t hi = std::min(lo + 1, spiceAll.size() - 1);
                    double alpha = pos - static_cast<double>(lo);
                    spiceSeries.push_back(spiceAll[lo] +
                                          alpha * (spiceAll[hi] - spiceAll[lo]));
                }
                double rmse = ark::support::relativeRmse(dgSeries, spiceSeries);
                report.meanRmse += rmse;
                report.maxRmse = std::max(report.maxRmse, rmse);
                if (rmse < 0.01)
                    ++report.under1pct;
            }
        });
    }
    report.meanRmse /= report.total;
    trace.countEnsemble(ledger);
    trace.count("spice.factor_hits", report.spiceFactorHits);
    trace.count("spice.factor_misses", report.spiceFactorMisses);
    trace.count("apps.rmse_max", report.maxRmse);

    return sameStats(report, *reference_)
               ? ""
               : "replayed statistics differ from the end-to-end sweep";
}

} // namespace

std::unique_ptr<Workload>
makeSec45(std::uint64_t seed)
{
    return std::make_unique<Sec45>(seed);
}

} // namespace paperbench
