/**
 * @file
 * Tests for the content-addressed compiled-artifact engine:
 * fingerprint lane semantics, the hash-equality => program-equality
 * property on random TLN/OBC/CNN graphs, ArtifactCache hit/miss/
 * eviction accounting, bit-identity of cached-vs-cold ensembles at
 * several thread counts, and the cache-backed SPICE sweep against
 * spice::TransientBatch (bitwise parity + warm-factor reuse).
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stop_token>
#include <utility>
#include <vector>

#include "apps/puf.h"
#include "compiler/compiler.h"
#include "engine/cache.h"
#include "engine/fingerprint.h"
#include "engine/session.h"
#include "lang/func.h"
#include "lang/registry.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "spice/batch.h"
#include "spice/map_tln.h"
#include "spice/mna.h"
#include "support/error.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
namespace ptln = paradigms::tln;

class EngineTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        registry_ = new lang::LanguageRegistry(
            paradigms::makeStandardRegistry());
    }
    static void TearDownTestSuite()
    {
        delete registry_;
        registry_ = nullptr;
    }

    static const lang::Language &lang(const char *name)
    {
        return registry_->language(name);
    }

    static lang::LanguageRegistry *registry_;
};

lang::LanguageRegistry *EngineTest::registry_ = nullptr;

/** Bit-exact double comparison (NaN-safe, -0.0 != 0.0). */
bool
sameBits(double x, double y)
{
    return std::bit_cast<std::uint64_t>(x) ==
           std::bit_cast<std::uint64_t>(y);
}

/** Full program equality: vars, initial state, and both tape variants. */
::testing::AssertionResult
samePrograms(const compiler::OdeSystem &a, const compiler::OdeSystem &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "state dim differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.vars()[i].node != b.vars()[i].node ||
            a.vars()[i].derivative != b.vars()[i].derivative)
            return ::testing::AssertionFailure()
                   << "state var " << i << " differs";
        if (!sameBits(a.initialState()[i], b.initialState()[i]))
            return ::testing::AssertionFailure()
                   << "initial state " << i << " differs";
    }
    for (bool fma : {false, true}) {
        const auto &ta = a.rhsTape(fma).ops();
        const auto &tb = b.rhsTape(fma).ops();
        if (ta.size() != tb.size())
            return ::testing::AssertionFailure()
                   << "tape length differs (fma=" << fma << ")";
        for (std::size_t i = 0; i < ta.size(); ++i) {
            if (ta[i].op != tb[i].op || ta[i].builtin != tb[i].builtin ||
                ta[i].dst != tb[i].dst || ta[i].a != tb[i].a ||
                ta[i].b != tb[i].b || ta[i].c != tb[i].c ||
                !sameBits(ta[i].imm, tb[i].imm))
                return ::testing::AssertionFailure()
                       << "op " << i << " differs (fma=" << fma << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST_F(EngineTest, FingerprintIsDeterministicAcrossRebuilds)
{
    ptln::LineSpec spec;
    spec.sections = 5;
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = 42;
    const lang::Language &gmc = lang("gmc-tln");
    dg::Graph a = ptln::buildLine(gmc, spec);
    dg::Graph b = ptln::buildLine(gmc, spec);
    engine::GraphFingerprint fa = engine::fingerprintGraph(a, gmc);
    engine::GraphFingerprint fb = engine::fingerprintGraph(b, gmc);
    EXPECT_EQ(fa.structure, fb.structure);
    EXPECT_EQ(fa.values, fb.values);
    EXPECT_EQ(fa.combined, fb.combined);
    EXPECT_EQ(fa.combined.str(), fb.combined.str());
    EXPECT_EQ(fa.combined.str().size(), 32u);
}

TEST_F(EngineTest, ConstantLaneSplitsOutMismatchValues)
{
    // Two fabricated chips of one PUF challenge differ only in
    // sampled mismatch constants: equal structure lane (they
    // lane-batch), different values lane. A different challenge flips
    // switch states: different structure lane.
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    const lang::Language &gmc = lang("gmc-tln");
    apps::TlnPuf puf(gmc, design);
    engine::GraphFingerprint chip1 =
        engine::fingerprintGraph(puf.buildGraph(1, 7), gmc);
    engine::GraphFingerprint chip2 =
        engine::fingerprintGraph(puf.buildGraph(1, 8), gmc);
    engine::GraphFingerprint other =
        engine::fingerprintGraph(puf.buildGraph(2, 7), gmc);

    EXPECT_EQ(chip1.structure, chip2.structure);
    EXPECT_NE(chip1.values, chip2.values);
    EXPECT_NE(chip1.combined, chip2.combined);
    EXPECT_NE(chip1.structure, other.structure);
}

TEST_F(EngineTest, ValuePerturbationChangesOnlyValueLane)
{
    ptln::LineSpec spec;
    spec.sections = 4;
    const lang::Language &tln = lang("tln");
    engine::GraphFingerprint base =
        engine::fingerprintGraph(ptln::buildLine(tln, spec), tln);
    spec.capacitance = 1.0000000000000002e-9; // one ulp-ish nudge
    engine::GraphFingerprint nudged =
        engine::fingerprintGraph(ptln::buildLine(tln, spec), tln);
    EXPECT_EQ(base.structure, nudged.structure);
    EXPECT_NE(base.values, nudged.values);
    EXPECT_NE(base.combined, nudged.combined);
}

TEST_F(EngineTest, LanguageContentIsPartOfTheAddress)
{
    // Two registries each define a language named "probe" extending
    // tln — once with a production-rule coefficient of 2, once with
    // 3. The same graph content written in either must address
    // different artifacts (the process-wide cache would otherwise
    // serve one language's compiled dynamics for the other), while
    // content-equal languages from different registries hash alike.
    auto probeFingerprint = [](const std::string &coeff) {
        lang::LanguageRegistry registry =
            paradigms::makeStandardRegistry();
        registry.addProgram(
            "lang probe inherits tln {\n    etyp Eprobe {};\n"
            "    prod(e:Eprobe,s:V->t:I) t <= " +
            coeff + "*var(s)/t.l;\n}\n");
        const lang::Language &probe = registry.language("probe");
        lang::GraphBuilder builder(probe, 0);
        builder.node("a", "V");
        builder.attr("a", "c", 1e-9);
        builder.attr("a", "g", 0.0);
        builder.edge("self_a", "E", "a", "a");
        dg::Graph graph = builder.take();
        return engine::fingerprintGraph(graph, probe);
    };
    engine::GraphFingerprint twoA = probeFingerprint("2");
    engine::GraphFingerprint twoB = probeFingerprint("2");
    engine::GraphFingerprint three = probeFingerprint("3");
    EXPECT_EQ(twoA.combined, twoB.combined);
    EXPECT_NE(twoA.structure, three.structure);
    EXPECT_NE(twoA.combined, three.combined);
}

/**
 * The cache-key contract: equal combined fingerprints => bit-identical
 * compiled programs. Random graphs drawn from deliberately small
 * discrete parameter spaces so the draw repeats content (real
 * collisions, not just self-comparison).
 */
TEST_F(EngineTest, HashEqualityImpliesProgramEquality)
{
    struct Sample
    {
        engine::Fingerprint fp;
        compiler::OdeSystem system;
    };
    std::vector<Sample> samples;
    support::Rng rng(123);

    const lang::Language &tln = lang("tln");
    const lang::Language &obc = lang("obc");
    const lang::Language &cnn = lang("cnn");
    for (int draw = 0; draw < 25; ++draw) {
        ptln::LineSpec spec;
        spec.sections = static_cast<int>(rng.uniformInt(3, 4));
        spec.inductance = rng.bernoulli(0.5) ? 1e-9 : 2e-9;
        spec.capacitance = rng.bernoulli(0.5) ? 1e-9 : 1.5e-9;
        dg::Graph graph = ptln::buildLine(tln, spec);
        samples.push_back(
            {engine::fingerprintGraph(graph, tln).combined,
             compiler::compile(graph, tln)});
    }
    for (int draw = 0; draw < 25; ++draw) {
        paradigms::obc::MaxcutInstance instance;
        instance.numVertices = 3;
        for (int a = 0; a < 3; ++a)
            for (int b = a + 1; b < 3; ++b)
                if (rng.bernoulli(0.5))
                    instance.edges.emplace_back(a, b);
        paradigms::obc::MaxcutSpec spec;
        for (int v = 0; v < 3; ++v)
            spec.initPhases.push_back(
                rng.bernoulli(0.5) ? 0.0 : std::numbers::pi / 2);
        dg::Graph graph =
            paradigms::obc::buildMaxcut(obc, instance, spec);
        samples.push_back(
            {engine::fingerprintGraph(graph, obc).combined,
             compiler::compile(graph, obc)});
    }
    for (int draw = 0; draw < 10; ++draw) {
        paradigms::cnn::CnnSpec spec;
        spec.width = 3;
        spec.height = 3;
        std::vector<double> input(9, 1.0);
        input[static_cast<std::size_t>(rng.uniformInt(0, 2))] = -1.0;
        dg::Graph graph = paradigms::cnn::buildCnn(cnn, spec, input);
        samples.push_back(
            {engine::fingerprintGraph(graph, cnn).combined,
             compiler::compile(graph, cnn)});
    }

    int collisions = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        for (std::size_t j = i + 1; j < samples.size(); ++j) {
            if (!(samples[i].fp == samples[j].fp))
                continue;
            ++collisions;
            EXPECT_TRUE(
                samePrograms(samples[i].system, samples[j].system))
                << "samples " << i << " and " << j;
        }
    }
    // The discrete parameter spaces are small enough that repeats are
    // certain; without them the property above would be vacuous.
    EXPECT_GT(collisions, 0);
}

TEST_F(EngineTest, CacheAccountsHitsMissesEvictions)
{
    engine::CacheConfig config;
    config.maxSystems = 2;
    engine::ArtifactCache cache(config);
    const lang::Language &tln = lang("tln");

    auto graphOf = [&](int sections) {
        ptln::LineSpec spec;
        spec.sections = sections;
        return ptln::buildLine(tln, spec);
    };

    engine::SystemPtr a1 = cache.system(graphOf(3), tln); // miss
    engine::SystemPtr a2 = cache.system(graphOf(3), tln); // hit
    EXPECT_EQ(a1.get(), a2.get()); // same shared artifact, not a copy
    cache.system(graphOf(4), tln);                        // miss
    cache.system(graphOf(5), tln); // miss, evicts sections=3 (LRU)
    cache.system(graphOf(3), tln); // miss again after eviction

    engine::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.systemHits, 1u);
    EXPECT_EQ(stats.systemMisses, 4u);
    EXPECT_EQ(stats.systemEvictions, 2u);
    EXPECT_EQ(stats.systemsCached, 2u);

    cache.clear();
    stats = cache.stats();
    EXPECT_EQ(stats.systemsCached, 0u);
    EXPECT_EQ(stats.systemMisses, 4u); // counters keep accumulating
}

TEST_F(EngineTest, StepperCacheServesWarmFactorsByContent)
{
    engine::CacheConfig config;
    config.maxSteppers = 2;
    engine::ArtifactCache cache(config);

    ptln::LineSpec spec;
    spec.sections = 3;
    const lang::Language &tln = lang("tln");
    dg::Graph graph = ptln::buildLine(tln, spec);
    validator::validateOrThrow(graph, tln);
    spice::MappedTln mapped = spice::mapTlnToSpice(graph, tln);
    spice::SparseMnaSystem system(mapped.netlist);
    engine::MnaFingerprint fp = engine::fingerprintMna(system);

    int builds = 0;
    auto build = [&]() {
        ++builds;
        return std::make_shared<spice::TransientStepper>(system, 1e-11);
    };
    engine::Fingerprint key =
        engine::stepperKey(fp, fp.values, fp.values, 1e-11, 0.0);
    bool hit = true;
    engine::StepperPtr first = cache.stepper(key, build, &hit);
    EXPECT_FALSE(hit);
    engine::StepperPtr again = cache.stepper(key, build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), again.get());
    EXPECT_EQ(builds, 1);

    // A different step size is a different artifact.
    engine::Fingerprint otherKey =
        engine::stepperKey(fp, fp.values, fp.values, 2e-11, 0.0);
    cache.stepper(otherKey, [&]() {
        ++builds;
        return std::make_shared<spice::TransientStepper>(system, 2e-11);
    });
    EXPECT_EQ(builds, 2);
    engine::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.stepperHits, 1u);
    EXPECT_EQ(stats.stepperMisses, 2u);
    EXPECT_EQ(stats.steppersCached, 2u);
}

/** PUF battery: cached, cached-again, and cold compiles must produce
 *  bit-identical ensembles at every thread count. */
TEST_F(EngineTest, CachedVsColdEnsemblesBitIdentical)
{
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    const lang::Language &gmc = lang("gmc-tln");
    apps::TlnPuf puf(gmc, design);

    engine::ArtifactCache cache;
    engine::Session cached(
        engine::SessionOptions{.caching = true, .cache = &cache});
    engine::Session cold(engine::SessionOptions{.caching = false});

    auto compileBattery = [&](const engine::Session &session) {
        std::vector<engine::SystemPtr> systems;
        for (std::uint64_t seed = 1; seed <= 5; ++seed)
            systems.push_back(
                session.compile(puf.buildGraph(1, seed), gmc));
        return systems;
    };
    std::vector<engine::SystemPtr> warmMiss = compileBattery(cached);
    std::vector<engine::SystemPtr> warmHit = compileBattery(cached);
    std::vector<engine::SystemPtr> coldBuilt = compileBattery(cold);
    EXPECT_EQ(cache.stats().systemHits, 5u);
    EXPECT_EQ(cache.stats().systemMisses, 5u);
    for (std::size_t i = 0; i < warmMiss.size(); ++i) {
        EXPECT_EQ(warmMiss[i].get(), warmHit[i].get());
        EXPECT_TRUE(samePrograms(*warmMiss[i], *coldBuilt[i]));
    }

    std::vector<std::vector<sim::SimResult>> runs;
    for (unsigned threads : {1u, 2u, 4u}) {
        for (const auto &systems : {warmHit, coldBuilt}) {
            sim::EnsembleOptions options;
            options.sim.method = sim::Method::Rk4;
            options.sim.dt = design.windowEnd / 400.0;
            options.sim.recordDt = design.windowEnd / 400.0;
            options.numThreads = threads;
            runs.push_back(cached.runEnsemble(
                systems, 0.0, design.windowEnd, options));
        }
    }
    const std::vector<sim::SimResult> &reference = runs.front();
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const sim::Trajectory &ta = reference[i].trajectory;
            const sim::Trajectory &tb = runs[r][i].trajectory;
            ASSERT_EQ(ta.size(), tb.size()) << "run " << r;
            for (std::size_t s = 0; s < ta.size(); ++s) {
                ASSERT_TRUE(sameBits(ta.time(s), tb.time(s)));
                auto sa = ta.state(s);
                auto sb = tb.state(s);
                for (std::size_t k = 0; k < sa.size(); ++k)
                    ASSERT_TRUE(sameBits(sa[k], sb[k]))
                        << "run " << r << " instance " << i;
            }
        }
    }
}

/** Random mismatched GmC line mapped to a netlist (spice_batch idiom). */
spice::MappedTln
randomLine(const lang::Language &gmc, std::uint64_t seed)
{
    support::Rng rng(seed * 7919 + 13);
    ptln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(2, 5));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = rng.deriveSeed();
    dg::Graph graph = ptln::buildLine(gmc, spec);
    validator::validateOrThrow(graph, gmc);
    return spice::mapTlnToSpice(graph, gmc);
}

/** Same topology for every seed: only the mismatch values vary. */
spice::MappedTln
sharedStructureLine(const lang::Language &gmc, std::uint64_t seed)
{
    ptln::LineSpec spec;
    spec.sections = 4;
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = seed;
    dg::Graph graph = ptln::buildLine(gmc, spec);
    validator::validateOrThrow(graph, gmc);
    return spice::mapTlnToSpice(graph, gmc);
}

::testing::AssertionResult
sameTransients(const std::vector<spice::TransientResult> &a,
               const std::vector<spice::TransientResult> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "result count differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].ok() != b[i].ok())
            return ::testing::AssertionFailure()
                   << "instance " << i << " ok() differs";
        if (!a[i].ok() &&
            (a[i].failure->reason != b[i].failure->reason ||
             a[i].failure->message != b[i].failure->message))
            return ::testing::AssertionFailure()
                   << "instance " << i << " failure differs";
        if (a[i].size() != b[i].size() || a[i].dim() != b[i].dim())
            return ::testing::AssertionFailure()
                   << "instance " << i << " shape differs";
        for (std::size_t s = 0; s < a[i].size(); ++s) {
            if (!sameBits(a[i].time(s), b[i].time(s)))
                return ::testing::AssertionFailure()
                       << "instance " << i << " time " << s;
            auto sa = a[i].state(s);
            auto sb = b[i].state(s);
            for (std::size_t k = 0; k < sa.size(); ++k)
                if (!sameBits(sa[k], sb[k]))
                    return ::testing::AssertionFailure()
                           << "instance " << i << " sample " << s
                           << " unknown " << k;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST_F(EngineTest, CachedSweepMatchesTransientBatchAndReusesFactors)
{
    const lang::Language &gmc = lang("gmc-tln");
    // 4 shared-structure instances (one leader + refactored members,
    // incl. a bit-identical duplicate sharing factors outright) plus
    // 4 random-topology singletons; a non-divisible range exercises
    // the prepared final-step operator, and a floating resistor pair
    // (singular conductance matrix) pins the structured-failure
    // mapping to TransientBatch's.
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        mapped.push_back(sharedStructureLine(gmc, seed));
    mapped.push_back(sharedStructureLine(gmc, 1)); // value-identical
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(randomLine(gmc, seed));
    spice::Netlist singular;
    int na = singular.addNode("a");
    int nb = singular.addNode("b");
    singular.resistor("R", na, nb, 1.0);
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);
    netlists.push_back(&singular);

    const double t0 = 0.0, t1 = 1.05e-9, dt = 1e-11;

    spice::TransientBatchOptions batchOptions;
    spice::TransientBatchStats batchStats;
    std::vector<spice::TransientResult> reference =
        spice::TransientBatch(batchOptions).run(netlists, t0, t1, dt,
                                                &batchStats);

    engine::ArtifactCache cache;
    engine::Session session(
        engine::SessionOptions{.caching = true, .cache = &cache});
    engine::SweepStats coldStats;
    std::vector<spice::TransientResult> coldSweep = session.runSweep(
        netlists, t0, t1, dt, batchOptions, &coldStats);
    EXPECT_TRUE(sameTransients(coldSweep, reference));
    EXPECT_EQ(coldStats.structureGroups, batchStats.structureGroups);
    EXPECT_EQ(coldStats.factorHits, 0u);
    // One build per distinct (pivot source, values): 5 structure
    // groups + 2 rebound members; the value-identical duplicate
    // shares the leader's factors without a cache transaction.
    EXPECT_EQ(coldStats.factorMisses, 7u);

    engine::SweepStats warmStats;
    std::vector<spice::TransientResult> warmSweep = session.runSweep(
        netlists, t0, t1, dt, batchOptions, &warmStats);
    EXPECT_TRUE(sameTransients(warmSweep, reference));
    EXPECT_EQ(warmStats.factorMisses, 0u);
    EXPECT_EQ(warmStats.factorHits, 7u);

    // Thread-count invariance on the warm path.
    spice::TransientBatchOptions fourThreads;
    fourThreads.numThreads = 4;
    std::vector<spice::TransientResult> threaded =
        session.runSweep(netlists, t0, t1, dt, fourThreads, nullptr);
    EXPECT_TRUE(sameTransients(threaded, reference));

    // caching=false delegates to TransientBatch outright.
    engine::Session uncached(
        engine::SessionOptions{.caching = false});
    engine::SweepStats uncachedStats;
    std::vector<spice::TransientResult> ablation = uncached.runSweep(
        netlists, t0, t1, dt, batchOptions, &uncachedStats);
    EXPECT_TRUE(sameTransients(ablation, reference));
    EXPECT_EQ(uncachedStats.factorHits, 0u);
    EXPECT_EQ(uncachedStats.factorMisses, 0u);
}

TEST_F(EngineTest, CachedSweepHonorsProgressDeadlineAndStop)
{
    // The cached sweep under the three execution controls: a progress
    // callback alone, an already-expired deadline, and a pre-requested
    // stop. Each run must report exactly what TransientBatch reports
    // under the same options (results, failure reasons, sample
    // counts), and progress must tick once per instance — skipped and
    // failed instances included — strictly increasing to the total.
    const lang::Language &gmc = lang("gmc-tln");
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(sharedStructureLine(gmc, seed));
    // Floating resistor pair: no factorization exists, so this slot
    // fails on its own while the lines around it share factors.
    spice::Netlist singular;
    int na = singular.addNode("a");
    int nb = singular.addNode("b");
    singular.resistor("R", na, nb, 1.0);
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);
    netlists.insert(netlists.begin() + 2, &singular);
    const double t0 = 0.0, t1 = 1.05e-9, dt = 1e-11;

    std::stop_source stopped;
    stopped.request_stop();
    enum class Control { Progress, Deadline, Stop };
    for (Control control :
         {Control::Progress, Control::Deadline, Control::Stop}) {
        SCOPED_TRACE(static_cast<int>(control));
        spice::TransientBatchOptions options;
        options.numThreads = 2;
        if (control == Control::Deadline)
            options.deadline = std::chrono::steady_clock::now() -
                               std::chrono::seconds(1);
        if (control == Control::Stop)
            options.stop = stopped.get_token();
        std::vector<spice::TransientResult> reference =
            spice::TransientBatch(options).run(netlists, t0, t1, dt);

        std::vector<std::pair<std::size_t, std::size_t>> calls;
        options.progress = [&](std::size_t done, std::size_t total) {
            calls.emplace_back(done, total);
        };
        engine::ArtifactCache cache;
        engine::Session session(
            engine::SessionOptions{.caching = true, .cache = &cache});
        std::vector<spice::TransientResult> cached =
            session.runSweep(netlists, t0, t1, dt, options);
        EXPECT_TRUE(sameTransients(cached, reference));
        ASSERT_EQ(cached.size(), netlists.size());
        for (std::size_t i = 0; i < cached.size(); ++i) {
            if (control == Control::Progress) {
                EXPECT_EQ(cached[i].ok(), netlists[i] != &singular);
                continue;
            }
            ASSERT_FALSE(cached[i].ok()) << "instance " << i;
            EXPECT_EQ(cached[i].failure->reason,
                      control == Control::Deadline
                          ? spice::TransientAbort::DeadlineExceeded
                          : spice::TransientAbort::Cancelled);
            EXPECT_EQ(cached[i].size(), 0u);
        }

        ASSERT_EQ(calls.size(), netlists.size());
        std::size_t prev = 0, reachedTotal = 0;
        for (auto [done, total] : calls) {
            EXPECT_EQ(total, netlists.size());
            EXPECT_GT(done, prev);
            prev = done;
            if (done == total)
                ++reachedTotal;
        }
        EXPECT_EQ(prev, netlists.size());
        EXPECT_EQ(reachedTotal, 1u);
    }
}

TEST_F(EngineTest, SweepValidatesBatchConfiguration)
{
    const lang::Language &gmc = lang("gmc-tln");
    spice::MappedTln mapped = sharedStructureLine(gmc, 1);
    std::vector<const spice::Netlist *> netlists{&mapped.netlist};
    engine::Session session;
    EXPECT_THROW(session.runSweep(netlists, 0.0, 1e-9, 0.0),
                 support::SimError);
    EXPECT_THROW(session.runSweep(netlists, 1e-9, 0.0, 1e-11),
                 support::SimError);
    EXPECT_TRUE(session.runSweep({}, 0.0, 1e-9, 1e-11).empty());
}

TEST_F(EngineTest, ResponseMatrixMatchesPerChallengeBatches)
{
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    design.responseBits = 16;
    const lang::Language &gmc = lang("gmc-tln");
    apps::TlnPuf puf(gmc, design);

    const std::vector<std::uint32_t> challenges{1, 3, 1, 2, 3};
    const std::vector<std::uint64_t> chips{1, 2, 3};

    auto matrix = puf.responseMatrix(challenges, chips);
    ASSERT_EQ(matrix.size(), challenges.size());
    for (std::size_t c = 0; c < challenges.size(); ++c) {
        auto loop = puf.responseBatch(challenges[c], chips);
        EXPECT_EQ(matrix[c], loop) << "challenge index " << c;
    }

    // Noisy battery: flattened challenge-major seeds must match the
    // per-challenge slices, and repeated challenges get independent
    // noise per occurrence.
    std::vector<std::uint64_t> noiseSeeds;
    for (std::size_t i = 0; i < challenges.size() * chips.size(); ++i)
        noiseSeeds.push_back(1000 + i);
    auto noisy =
        puf.responseMatrix(challenges, chips, 0.01, noiseSeeds);
    for (std::size_t c = 0; c < challenges.size(); ++c) {
        std::vector<std::uint64_t> slice(
            noiseSeeds.begin() +
                static_cast<std::ptrdiff_t>(c * chips.size()),
            noiseSeeds.begin() +
                static_cast<std::ptrdiff_t>((c + 1) * chips.size()));
        auto loop = puf.responseBatch(challenges[c], chips, 0.01, slice);
        EXPECT_EQ(noisy[c], loop) << "noisy challenge index " << c;
    }
    // Same challenge, same chips, different noise seeds: occurrences
    // 0 and 2 both measure challenge 1.
    EXPECT_NE(noisy[0], noisy[2]);
}

} // namespace
