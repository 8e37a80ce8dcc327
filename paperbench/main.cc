// paperbench: times one paper workload end to end, or replays it layer
// by layer, and prints one JSON object on the last line of stdout.
//
//   paperbench --workload sec45|puf_crp|maxcut --seed N --seconds S
//              --mode setup|timed|traced
//
// setup  - build the workload and run its first, untimed iteration.
// timed  - then run timed iterations for S seconds (tracing off).
// traced - then alternate an end-to-end iteration with a traced
//          replay for S seconds and report per-layer metrics.
//
// run.py drives these modes and turns their output into the
// benchmark's result; see README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/cache.h"
#include "paperbench.h"
#include "paperbench_config.h"

namespace {

using paperbench::nowSeconds;
using paperbench::Trace;
using paperbench::Workload;

struct Args
{
    std::string workload;
    std::string mode;
    std::uint64_t seed = 0;
    double seconds = 0.0;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    std::map<std::string, std::string> values;
    for (int i = 1; i + 1 < argc; i += 2)
        values[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || values.size() != 4 || !values.count("--workload") ||
        !values.count("--mode") || !values.count("--seed") ||
        !values.count("--seconds"))
        return false;
    args.workload = values["--workload"];
    args.mode = values["--mode"];
    try {
        args.seed = std::stoull(values["--seed"]);
        args.seconds = std::stod(values["--seconds"]);
    } catch (const std::exception &) {
        return false;
    }
    return args.seconds > 0 &&
           (args.mode == "setup" || args.mode == "timed" ||
            args.mode == "traced");
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "sec45")
        return paperbench::makeSec45(seed);
    if (name == "puf_crp")
        return paperbench::makePufCrp(seed);
    if (name == "maxcut")
        return paperbench::makeMaxcut(seed);
    return nullptr;
}

std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Attempted/failed operations; an operation is one iteration. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    /** Runs `op` (which returns "" on success) and counts it. */
    void record(const std::function<std::string()> &op)
    {
        ++attempted;
        std::string error;
        try {
            error = op();
        } catch (const std::exception &e) {
            error = std::string("exception: ") + e.what();
        }
        if (!error.empty()) {
            ++failed;
            if (errors.size() < 5)
                errors.push_back(error);
        }
    }
};

/** One end-to-end iteration: prepare (untimed), run (timed), check. */
double
timedIteration(Workload &workload, Tally &tally)
{
    double seconds = 0.0;
    tally.record([&] {
        workload.prepare();
        double t0 = nowSeconds();
        workload.run();
        seconds = nowSeconds() - t0;
        return workload.check();
    });
    return seconds;
}

/** Per-layer metrics from the traced replays; see README.md. */
std::map<std::string, double>
layerMetrics(const std::vector<Trace> &traces,
             const std::vector<double> &replayWall,
             const std::vector<double> &e2eWall,
             const std::map<std::string, double> &engineCounts)
{
    static const char *timed[] = {
        "paradigms.build_s", "validator.validate_s", "compiler.compile_s",
        "engine.lookup_s",   "sim.ensemble_s",       "spice.map_s",
        "spice.sweep_s",     "apps.score_s"};
    static const char *counted[] = {
        "compiler.systems",   "compiler.tape_ops",     "sim.steps_accepted",
        "sim.steps_rejected", "sim.scalar_instances",  "sim.lane_instances",
        "spice.structure_groups", "spice.factor_hits", "spice.factor_misses",
        "apps.rmse_max"};

    std::map<std::string, double> out;
    auto countOf = [&](const std::string &name) {
        auto it = traces.front().counts().find(name);
        return it == traces.front().counts().end() ? 0.0 : it->second;
    };
    for (const char *name : timed) {
        std::vector<double> values;
        for (const Trace &trace : traces) {
            auto it = trace.seconds().find(name);
            values.push_back(it == trace.seconds().end() ? 0.0 : it->second);
        }
        out[name] = median(values);
    }
    for (const char *name : counted)
        out[name] = countOf(name);
    out.insert(engineCounts.begin(), engineCounts.end());

    double hits = out["engine.system_hits"];
    double misses = out["engine.system_misses"];
    out["engine.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    double accepted = out["sim.steps_accepted"];
    double rejected = out["sim.steps_rejected"];
    out["sim.reject_ratio"] =
        accepted + rejected > 0 ? rejected / (accepted + rejected) : 0.0;
    out["sim.ns_per_step"] =
        accepted > 0 ? out["sim.ensemble_s"] * 1e9 / accepted : 0.0;
    double slots = countOf("sim.lane_slots");
    out["sim.lane_occupancy"] =
        slots > 0 ? out["sim.lane_instances"] / slots : 0.0;

    std::vector<double> untraced;
    std::vector<double> serial;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        untraced.push_back(replayWall[i] - traces[i].spanSeconds());
        serial.push_back(traces[i].serialSeconds() / replayWall[i]);
    }
    out["trace.untraced_s"] = median(untraced);
    out["trace.overhead"] = median(replayWall) / median(e2eWall);
    out["trace.serial_share"] = median(serial);
    return out;
}

std::string
configJson()
{
    const char *jitCache = std::getenv("ARK_JIT_CACHE_DIR");
    std::ostringstream os;
    os << "{\"build_type\": " << jsonString(PAPERBENCH_BUILD_TYPE)
       << ", \"lto\": " << jsonString(PAPERBENCH_ARK_LTO)
       << ", \"native\": " << jsonString(PAPERBENCH_ARK_NATIVE)
       << ", \"compiler\": " << jsonString(PAPERBENCH_COMPILER)
       << ", \"cxx_flags\": " << jsonString(PAPERBENCH_CXX_FLAGS)
       << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ", \"num_threads\": 0"
       << ", \"jit_cache_dir\": " << jsonString(jitCache ? jitCache : "")
       << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: paperbench --workload sec45|puf_crp|maxcut "
                     "--seed N --seconds S --mode setup|timed|traced\n";
        return 2;
    }
    if (std::string(PAPERBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "paperbench: refusing a " << PAPERBENCH_BUILD_TYPE
                  << " build of libark\n";
        return 2;
    }
    for (const char *var : {"ARK_JIT_FORCE", "ARK_TAPE_REASSOC", "ARK_CC"}) {
        if (std::getenv(var)) {
            std::cerr << "paperbench: " << var
                      << " is set; it would change the tier being measured\n";
            return 2;
        }
    }

    Tally tally;
    std::unique_ptr<Workload> workload;
    tally.record([&] {
        workload = makeWorkload(args.workload, args.seed);
        if (!workload)
            return "unknown workload " + args.workload;
        workload->prepare();
        workload->run();
        return workload->check();
    });
    const std::int64_t setupEndNs = monotonicNs();
    if (!workload) {
        std::cerr << "paperbench: " << tally.errors.front() << "\n";
        return 2;
    }

    std::ostringstream extra;
    if (args.mode == "timed") {
        std::vector<double> iterations;
        const double start = nowSeconds();
        while (iterations.empty() || nowSeconds() - start < args.seconds)
            iterations.push_back(timedIteration(*workload, tally));
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        extra << ", \"items\": " << workload->items()
              << ", \"peak_rss_mb\": "
              << jsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0)
              << ", \"iter_s\": [";
        for (std::size_t i = 0; i < iterations.size(); ++i)
            extra << (i ? ", " : "") << jsonNumber(iterations[i]);
        extra << "]";
    } else if (args.mode == "traced") {
        // A first replay warms replay-only state (the PUF's nominal
        // waveforms). It is checked but not timed, and every later
        // replay must repeat its counts exactly.
        Trace reference;
        tally.record([&] {
            workload->prepare();
            return workload->replay(reference);
        });
        std::vector<Trace> traces;
        std::vector<double> replayWall;
        std::vector<double> e2eWall;
        std::map<std::string, double> engineCounts;
        const double start = nowSeconds();
        for (bool first = true; first || nowSeconds() - start < args.seconds;
             first = false) {
            auto &cache = ark::engine::ArtifactCache::shared();
            ark::engine::CacheStats before = cache.stats();
            e2eWall.push_back(timedIteration(*workload, tally));
            ark::engine::CacheStats after = cache.stats();
            std::map<std::string, double> counts = {
                {"engine.system_hits",
                 static_cast<double>(after.systemHits - before.systemHits)},
                {"engine.system_misses",
                 static_cast<double>(after.systemMisses - before.systemMisses)}};
            if (first)
                engineCounts = counts;

            tally.record([&] {
                workload->prepare();
                Trace trace;
                double t0 = nowSeconds();
                std::string error = workload->replay(trace);
                double wall = nowSeconds() - t0;
                if (error.empty() && (counts != engineCounts ||
                                      trace.counts() != reference.counts()))
                    error = "layer counts differ between iterations";
                traces.push_back(std::move(trace));
                replayWall.push_back(wall);
                return error;
            });
        }
        if (traces.empty()) {
            std::cerr << "paperbench: every replay threw\n";
            return 1;
        }
        extra << ", \"layers\": {";
        bool first = true;
        for (const auto &[name, value] :
             layerMetrics(traces, replayWall, e2eWall, engineCounts)) {
            extra << (first ? "" : ", ") << jsonString(name) << ": "
                  << jsonNumber(value);
            first = false;
        }
        extra << "}";
    }

    std::cout << "{\"workload\": " << jsonString(args.workload)
              << ", \"mode\": " << jsonString(args.mode)
              << ", \"seed\": " << args.seed
              << ", \"setup_end_ns\": " << setupEndNs
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"errors\": [";
    for (std::size_t i = 0; i < tally.errors.size(); ++i)
        std::cout << (i ? ", " : "") << jsonString(tally.errors[i]);
    std::cout << "], \"config\": " << configJson() << extra.str() << "}"
              << std::endl;
    return 0;
}
