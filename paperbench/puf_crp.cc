// puf_crp: a 16-challenge x 8-chip CRP battery on the bench/puf_analysis
// PUF design. The first (set-up) iteration fills the artifact cache
// and the nominal waveforms; every timed iteration is all cache hits.

#include <optional>

#include "apps/puf.h"
#include "engine/session.h"
#include "paperbench.h"
#include "paradigms/standard.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/rng.h"

namespace paperbench {

namespace {

using ark::support::cat;
using Responses = std::vector<std::vector<std::vector<std::uint8_t>>>;

constexpr std::uint32_t kChallenges = 16; // every 4-bit challenge
constexpr std::size_t kChips = 8;
constexpr double kNoiseSigma = 0.002; // 2 mV re-measurement noise

ark::apps::PufDesign
design()
{
    ark::apps::PufDesign design;
    design.mainSections = 16;
    design.numBranches = 4;
    design.stubSections = 4;
    return design;
}

/** Mean inter-chip Hamming distance over all challenges. */
double
uniqueness(const Responses &responses)
{
    double sum = 0.0;
    int pairs = 0;
    for (const auto &byChip : responses)
        for (std::size_t a = 0; a < byChip.size(); ++a)
            for (std::size_t b = a + 1; b < byChip.size(); ++b, ++pairs)
                sum += ark::apps::hammingFraction(byChip[a], byChip[b]);
    return sum / pairs;
}

class PufCrp final : public Workload
{
  public:
    explicit PufCrp(std::uint64_t seed)
        : registry_(ark::paradigms::makeStandardRegistry()),
          gmc_(registry_.language("gmc-tln")), puf_(gmc_, design())
    {
        // Every seed runs all 16 challenges, so the work per iteration
        // is the same; the seed picks their order, the chips and the
        // per-(challenge, chip) noise.
        ark::support::Rng rng(seed);
        for (std::uint32_t c = 0; c < kChallenges; ++c)
            challenges_.push_back(c);
        rng.shuffle(challenges_);
        for (std::size_t chip = 0; chip < kChips; ++chip)
            chipSeeds_.push_back(rng.deriveSeed() | 1u); // 0 = nominal
        for (std::size_t i = 0; i < kChallenges * kChips; ++i)
            noiseSeeds_.push_back(rng.deriveSeed());
    }

    std::size_t items() const override { return kChallenges * kChips; }

    // The cache keeps what the set-up iteration compiled.
    void prepare() override {}

    void run() override
    {
        last_ = puf_.responseMatrix(challenges_, chipSeeds_, kNoiseSigma,
                                    noiseSeeds_);
    }

    std::string check() override
    {
        double u = uniqueness(last_);
        if (!(u > 0.25 && u < 0.75))
            return cat("uniqueness ", u, " outside (0.25, 0.75)");
        if (!reference_) {
            reference_ = last_;
            return "";
        }
        return last_ == *reference_
                   ? ""
                   : "responses differ from the first iteration";
    }

    std::string replay(Trace &trace) override;

  private:
    ark::lang::LanguageRegistry registry_;
    const ark::lang::Language &gmc_;
    ark::apps::TlnPuf puf_;
    std::vector<std::uint32_t> challenges_;
    std::vector<std::uint64_t> chipSeeds_;
    std::vector<std::uint64_t> noiseSeeds_;
    Responses last_;
    std::optional<Responses> reference_;
    /** Nominal-device waveform per challenge; the end-to-end path
     *  keeps these inside TlnPuf after the set-up iteration. */
    std::vector<std::vector<double>> nominals_;
};

// Mirrors TlnPuf::responseMatrix on a warm cache: every distinct
// (challenge, chip) system is a cache hit and the nominal waveforms
// are already known, so the ensemble holds the chips only.
std::string
PufCrp::replay(Trace &trace)
{
    const bool serial = true;
    const bool parallel = false;
    const ark::apps::PufDesign &d = puf_.design();
    const ark::engine::Session &session = puf_.session();
    if (nominals_.empty())
        for (std::uint32_t c = 0; c < kChallenges; ++c)
            nominals_.push_back(puf_.waveform(c, 0));

    ark::engine::ArtifactCache &cache = ark::engine::ArtifactCache::shared();
    const std::uint64_t missesBefore = cache.stats().systemMisses;
    std::vector<ark::engine::SystemPtr> systems;
    for (std::uint32_t challenge : challenges_) {
        for (std::uint64_t chipSeed : chipSeeds_) {
            ark::dg::Graph graph = trace.span("paradigms.build_s", serial, [&] {
                return puf_.buildGraph(challenge, chipSeed);
            });
            systems.push_back(trace.span("engine.lookup_s", serial, [&] {
                return session.compile(graph, gmc_);
            }));
        }
    }
    if (cache.stats().systemMisses != missesBefore)
        return "replay missed the cache the set-up iteration filled";

    ark::telemetry::RunLedger ledger;
    ark::sim::EnsembleOptions options;
    options.sim.method = d.simMethod;
    options.sim.dt = d.simDt > 0 ? d.simDt : d.windowEnd / 4000.0;
    options.sim.recordDt = d.windowEnd / 4000.0;
    options.sim.jit = d.jit;
    options.ledger = &ledger;
    std::vector<ark::sim::SimResult> results =
        trace.span("sim.ensemble_s", parallel, [&] {
            return session.runEnsemble(systems, 0.0, d.windowEnd, options);
        });
    trace.countEnsemble(ledger);

    Responses responses = trace.span("apps.score_s", serial, [&] {
        Responses out(challenges_.size());
        for (std::size_t c = 0; c < challenges_.size(); ++c) {
            const std::vector<double> &nominal = nominals_[challenges_[c]];
            for (std::size_t chip = 0; chip < kChips; ++chip) {
                std::size_t i = c * kChips + chip;
                if (!results[i].ok())
                    throw ark::support::SimError(
                        cat("puf_crp replay instance ", i, " failed"));
                std::vector<double> measured = results[i].trajectory.resample(
                    systems[i]->stateIndex("OUT_V", 0), d.windowStart,
                    d.windowEnd, static_cast<std::size_t>(d.responseBits));
                ark::support::Rng noise(noiseSeeds_[i]);
                std::vector<std::uint8_t> bits;
                for (std::size_t s = 0; s < measured.size(); ++s)
                    bits.push_back(
                        measured[s] + noise.gaussian(0.0, kNoiseSigma) >
                                nominal[s]
                            ? 1
                            : 0);
                out[c].push_back(std::move(bits));
            }
        }
        return out;
    });
    return responses == *reference_
               ? ""
               : "replayed responses differ from the end-to-end battery";
}

} // namespace

std::unique_ptr<Workload>
makePufCrp(std::uint64_t seed)
{
    return std::make_unique<PufCrp>(seed);
}

} // namespace paperbench
