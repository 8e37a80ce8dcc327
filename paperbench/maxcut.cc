// maxcut: Table 1, 1000 random 4-vertex max-cut instances on the ideal
// (obc) and the offset-afflicted (ofs-obc) oscillator network, scored
// at phase tolerances 0.01*pi and 0.1*pi. The shared artifact cache is
// cleared before every iteration, so each instance is built, validated
// and compiled anew.

#include <array>
#include <numbers>
#include <optional>

#include "apps/experiments.h"
#include "compiler/compiler.h"
#include "engine/fingerprint.h"
#include "engine/session.h"
#include "paperbench.h"
#include "paradigms/standard.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace paperbench {

namespace {

namespace exp = ark::apps::experiments;
namespace pobc = ark::paradigms::obc;
using ark::support::cat;

constexpr int kTrials = 1000;
constexpr double kTight = 0.01 * std::numbers::pi;
constexpr double kLoose = 0.1 * std::numbers::pi;

struct Outcomes
{
    std::vector<exp::MaxcutOutcome> ideal;
    std::vector<exp::MaxcutOutcome> offset;
    /** Table 1: {ideal, offset} x {tight, loose}. */
    std::array<exp::ObcRow, 4> rows{};

    void score()
    {
        rows = {exp::scoreMaxcut(ideal, kTight), exp::scoreMaxcut(ideal, kLoose),
                exp::scoreMaxcut(offset, kTight),
                exp::scoreMaxcut(offset, kLoose)};
    }
};

bool
sameOutcomes(const std::vector<exp::MaxcutOutcome> &a,
             const std::vector<exp::MaxcutOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].instance.edges != b[i].instance.edges ||
            !sameBits(a[i].phases, b[i].phases))
            return false;
    return true;
}

bool
sameOutcomes(const Outcomes &a, const Outcomes &b)
{
    for (std::size_t r = 0; r < a.rows.size(); ++r)
        if (!sameBits(a.rows[r].syncProb, b.rows[r].syncProb) ||
            !sameBits(a.rows[r].solvedProb, b.rows[r].solvedProb))
            return false;
    return sameOutcomes(a.ideal, b.ideal) && sameOutcomes(a.offset, b.offset);
}

class Maxcut final : public Workload
{
  public:
    explicit Maxcut(std::uint64_t seed)
        : registry_(ark::paradigms::makeStandardRegistry()),
          obc_(registry_.language("obc")), ofs_(registry_.language("ofs-obc")),
          seedBase_(seedBase(seed))
    {
    }

    std::size_t items() const override { return 2 * kTrials; }

    void prepare() override { ark::engine::ArtifactCache::shared().clear(); }

    void run() override
    {
        last_.ideal = exp::runMaxcutSims(obc_, false, kTrials, seedBase_);
        last_.offset = exp::runMaxcutSims(ofs_, true, kTrials, seedBase_);
        last_.score();
    }

    std::string check() override
    {
        // The Table-1 shape: the ideal network solves most instances at
        // the tight tolerance, the offset collapses that, and the loose
        // tolerance recovers it.
        double idealTight = last_.rows[0].solvedProb;
        double offsetTight = last_.rows[2].solvedProb;
        double offsetLoose = last_.rows[3].solvedProb;
        if (!(idealTight > 80.0 && offsetTight < idealTight - 10.0 &&
              offsetLoose > offsetTight + 10.0))
            return cat("Table-1 shape broken: ideal tight ", idealTight,
                       "%, offset tight ", offsetTight, "%, offset loose ",
                       offsetLoose, "%");
        if (!reference_) {
            reference_ = last_;
            return "";
        }
        return sameOutcomes(last_, *reference_)
                   ? ""
                   : "outcomes differ from the first iteration";
    }

    std::string replay(Trace &trace) override
    {
        Outcomes replayed;
        replayed.ideal = replaySims(trace, obc_, false);
        replayed.offset = replaySims(trace, ofs_, true);
        trace.span("apps.score_s", true, [&] { replayed.score(); });
        return sameOutcomes(replayed, *reference_)
                   ? ""
                   : "replayed outcomes differ from the end-to-end sims";
    }

  private:
    std::vector<exp::MaxcutOutcome>
    replaySims(Trace &trace, const ark::lang::Language &language,
               bool withOffset);

    ark::lang::LanguageRegistry registry_;
    const ark::lang::Language &obc_;
    const ark::lang::Language &ofs_;
    std::uint64_t seedBase_;
    Outcomes last_;
    std::optional<Outcomes> reference_;
    std::uint64_t keySink_ = 0; ///< Keeps the replayed lookups live.
};

// Mirrors exp::runMaxcutSims step for step (same RNG draws in build
// order, one ensemble dispatch), on a cleared cache.
std::vector<exp::MaxcutOutcome>
Maxcut::replaySims(Trace &trace, const ark::lang::Language &language,
                   bool withOffset)
{
    const bool serial = true;
    const bool parallel = false;
    const double pi = std::numbers::pi;
    ark::engine::Session session;
    std::vector<exp::MaxcutOutcome> outcomes;
    std::vector<ark::engine::SystemPtr> systems;
    for (int trial = 0; trial < kTrials; ++trial) {
        ark::support::Rng rng(seedBase_ + static_cast<std::uint64_t>(trial));
        exp::MaxcutOutcome outcome;
        outcome.instance.numVertices = 4;
        for (int a = 0; a < 4; ++a)
            for (int b = a + 1; b < 4; ++b)
                if (rng.bernoulli(0.5))
                    outcome.instance.edges.emplace_back(a, b);
        pobc::MaxcutSpec spec;
        spec.withOffset = withOffset;
        spec.seed = seedBase_ + static_cast<std::uint64_t>(trial);
        for (int v = 0; v < 4; ++v)
            spec.initPhases.push_back(rng.uniform(0.0, 2.0 * pi));

        ark::dg::Graph graph = trace.span("paradigms.build_s", serial, [&] {
            return pobc::buildMaxcut(language, outcome.instance, spec);
        });
        keySink_ ^= trace.span("engine.lookup_s", serial, [&] {
            return ark::engine::fingerprintGraph(graph, language).combined.lo;
        });
        trace.span("validator.validate_s", serial,
                   [&] { ark::validator::validateOrThrow(graph, language); });
        systems.push_back(trace.span("compiler.compile_s", serial, [&] {
            return std::make_shared<const ark::compiler::OdeSystem>(
                ark::compiler::compile(graph, language));
        }));
        trace.countCompiled(*systems.back());
        outcomes.push_back(std::move(outcome));
    }

    ark::telemetry::RunLedger ledger;
    ark::sim::EnsembleOptions options;
    options.sim.recordDt = 1e-9;
    options.ledger = &ledger;
    std::vector<ark::sim::SimResult> results =
        trace.span("sim.ensemble_s", parallel, [&] {
            return session.runEnsemble(systems, 0.0, 5e-8, options);
        });
    trace.countEnsemble(ledger);

    trace.span("apps.score_s", serial, [&] {
        for (std::size_t trial = 0; trial < results.size(); ++trial) {
            if (!results[trial].ok())
                throw ark::support::SimError(
                    cat("maxcut replay trial ", trial, " failed"));
            const auto &trajectory = results[trial].trajectory;
            auto final = trajectory.state(trajectory.size() - 1);
            for (int v = 0; v < 4; ++v)
                outcomes[trial].phases.push_back(
                    final[static_cast<std::size_t>(
                        systems[trial]->stateIndex(pobc::oscName(v), 0))]);
        }
    });
    return outcomes;
}

} // namespace

std::unique_ptr<Workload>
makeMaxcut(std::uint64_t seed)
{
    return std::make_unique<Maxcut>(seed);
}

} // namespace paperbench
