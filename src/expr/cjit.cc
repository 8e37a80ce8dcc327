#include "expr/cjit.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string_view>
#include <system_error>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "expr/tape.h"
#include "support/faultinject.h"
#include "support/telemetry.h"

namespace ark::expr {

namespace fs = std::filesystem;

namespace {

/** The source text of a macro's expansion. */
#define ARK_JIT_STR_(...) #__VA_ARGS__
#define ARK_JIT_STR(...) ARK_JIT_STR_(__VA_ARGS__)

/** Compiled objects kept in the on-disk cache (entries, not bytes). */
constexpr std::size_t kMaxDiskEntries = 256;

/** The exported kernel symbol every emitted translation unit defines. */
constexpr const char *kKernelSymbol = "ark_kernel";

telemetry::Counter &
compilesCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::shared().counter("ark.compile.jit_compiles");
    return counter;
}

telemetry::Counter &
failuresCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::shared().counter("ark.compile.jit_failures");
    return counter;
}

telemetry::Counter &
diskHitsCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::shared().counter(
            "ark.compile.jit_disk_hits");
    return counter;
}

telemetry::Histogram &
compileNsHistogram()
{
    static telemetry::Histogram &hist =
        telemetry::Registry::shared().histogram(
            "ark.compile.jit_compile_ns");
    return hist;
}

/** Exact double literal: hexfloats round-trip bit-for-bit through any
 *  conforming C compiler, so emitted constants never re-round. */
std::string
hexLiteral(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Single-quoted POSIX shell word; empty when unquotable. */
std::string
shellQuote(const std::string &s)
{
    if (s.find('\'') != std::string::npos)
        return {};
    return "'" + s + "'";
}

/** Runs a shell command, discarding its output; true on exit 0. */
bool
runCommand(const std::string &cmd)
{
    const int status =
        std::system((cmd + " >/dev/null 2>&1").c_str());
    return status != -1 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

/**
 * Compile flags shared by the probe and every kernel. -O2 removes the
 * interpreter's dispatch overhead; -fno-fast-math -ffp-contract=off
 * pin IEEE semantics — no reassociation, no value-changing
 * transforms, and no contraction of the emitted a*b+c statements into
 * hardware FMA (FusedMulAdd lowers to an explicit fma() call instead,
 * matching the interpreter's std::fma). -ftree-vectorize,
 * -funroll-loops, and -march=native are value-preserving here: every
 * emitted lane loop is element-wise (no reductions, no cross-lane
 * flow), so vector, unrolled, and wider-ISA code performs the
 * identical IEEE operation per element — targeting the running host
 * is the point of compiling at runtime, and the equivalence suite in
 * tests/jit_test.cc holds the kernels to bit-identity either way.
 * (Hosts whose cc rejects -march=native fail the toolchain probe and
 * stay on the interpreted tiers.)
 */
constexpr const char *kCompileFlags =
    "-O2 -march=native -ftree-vectorize -funroll-loops -fPIC -shared "
    "-fno-fast-math -ffp-contract=off";

/** True when `compiler` can produce a loadable kernel end to end. */
bool
probeCompiler(const std::string &compiler)
{
    support::TempDir dir = support::TempDir::create("ark-jit-probe-");
    if (!dir.ok())
        return false;
    const std::string src = dir.path() + "/probe.c";
    const std::string so = dir.path() + "/probe.so";
    {
        std::ofstream out(src);
        if (!out)
            return false;
        out << "double ark_probe(double x) { return x + 1.0; }\n";
    }
    const std::string qcc = shellQuote(compiler);
    const std::string qso = shellQuote(so);
    const std::string qsrc = shellQuote(src);
    if (qcc.empty() || qso.empty() || qsrc.empty())
        return false;
    if (!runCommand(qcc + " " + kCompileFlags + " -o " + qso + " " +
                    qsrc + " -lm"))
        return false;
    support::DynamicLibrary lib = support::DynamicLibrary::open(so);
    return lib.ok() && lib.symbol("ark_probe") != nullptr;
}

/** The working C compiler, probed once per process; empty when none. */
const std::string &
jitCompilerPath()
{
    static const std::string compiler = [] {
        std::vector<std::string> candidates;
        if (const char *env = std::getenv("ARK_CC");
            env != nullptr && env[0] != '\0')
            candidates.emplace_back(env);
        candidates.emplace_back("cc");
        candidates.emplace_back("gcc");
        candidates.emplace_back("clang");
        for (const std::string &candidate : candidates)
            if (probeCompiler(candidate))
                return candidate;
        return std::string{};
    }();
    return compiler;
}

/**
 * The on-disk kernel cache directory (created on demand), or empty
 * when disabled. ARK_JIT_CACHE_DIR overrides (empty value disables);
 * the default follows the XDG cache convention. Re-read per call so
 * tests can point successive compilations at fresh directories.
 */
std::string
diskCacheDir()
{
    std::string dir;
    if (const char *env = std::getenv("ARK_JIT_CACHE_DIR")) {
        if (env[0] == '\0')
            return {};
        dir = env;
    } else if (const char *xdg = std::getenv("XDG_CACHE_HOME");
               xdg != nullptr && xdg[0] != '\0') {
        dir = std::string(xdg) + "/ark/jit";
    } else if (const char *home = std::getenv("HOME");
               home != nullptr && home[0] != '\0') {
        dir = std::string(home) + "/.cache/ark/jit";
    } else {
        return {};
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return {};
    return dir;
}

/**
 * Bounds the disk cache: oldest-mtime entries beyond kMaxDiskEntries
 * are removed. Best-effort — races with concurrent processes only
 * over-trim, and a trimmed entry just recompiles.
 */
void
pruneDiskCache(const std::string &dir)
{
    std::error_code ec;
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() != ".so")
            continue;
        const auto mtime = fs::last_write_time(entry.path(), ec);
        if (!ec)
            entries.emplace_back(mtime, entry.path());
    }
    if (entries.size() <= kMaxDiskEntries)
        return;
    std::sort(entries.begin(), entries.end());
    const std::size_t excess = entries.size() - kMaxDiskEntries;
    for (std::size_t i = 0; i < excess; ++i)
        fs::remove(entries[i].second, ec);
}

/** Loads a compiled object and resolves its kernel; null on failure. */
JitKernelPtr
loadKernel(const std::string &path, const LaneTape &tape)
{
    support::DynamicLibrary lib = support::DynamicLibrary::open(path);
    if (!lib.ok())
        return nullptr;
    void *sym = lib.symbol(kKernelSymbol);
    if (sym == nullptr)
        return nullptr;
    return std::make_shared<const JitKernel>(
        std::move(lib), reinterpret_cast<JitKernelFn>(sym),
        tape.width(), tape.numOutputs());
}

/** C spelling of a compute instruction's ISA row (expr/tape.h);
 *  `builtin` selects the row when op == CallB. */
const char *
rowSpelling(OpCode op, Builtin builtin)
{
    switch (op) {
#define ARK_SPELL_OP(name, arity, ...)                                 \
      case OpCode::name:                                               \
        return #__VA_ARGS__;
        ARK_TAPE_OPS(ARK_SPELL_OP)
#undef ARK_SPELL_OP
      case OpCode::CallB:
        switch (builtin) {
#define ARK_SPELL_BUILTIN(name, spelling, arity, ...)                  \
          case Builtin::name:                                          \
            return #__VA_ARGS__;
            ARK_TAPE_BUILTINS(ARK_SPELL_BUILTIN)
#undef ARK_SPELL_BUILTIN
        }
        break;
      case OpCode::Const:
      case OpCode::LoadTime:
      case OpCode::LoadState:
      case OpCode::WriteOutput:
        break;
    }
    return nullptr;
}

/**
 * Instantiates an ISA row's C spelling on registers: every operand
 * name A, B, C that stands as a whole token becomes the C expression
 * for that operand.
 */
std::string
instantiate(std::string_view spelling, const std::string (&operands)[3])
{
    auto identChar = [](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
               ch == '_';
    };
    std::string out;
    out.reserve(spelling.size() + 32);
    for (std::size_t i = 0; i < spelling.size(); ++i) {
        const char ch = spelling[i];
        const bool operand =
            ch >= 'A' && ch <= 'C' &&
            (i == 0 || !identChar(spelling[i - 1])) &&
            (i + 1 == spelling.size() || !identChar(spelling[i + 1]));
        if (operand)
            out += operands[ch - 'A'];
        else
            out += ch;
    }
    return out;
}

/**
 * Everything before the first statement of every kernel: libm, the
 * sat_ni divisor as an exact literal of the host's value (the
 * interpreter divides by the same double; a compile-time tanh() fold
 * could round differently), the ISA's helper functions, and the
 * kernel signature.
 */
const std::string &
kernelPrelude()
{
    static const std::string prelude =
        "#include <math.h>\n\n"
        "static const double ark_sat_ni_scale = " +
        hexLiteral(ark_sat_ni_scale) + ";\n\n" +
        ARK_JIT_STR(ARK_TAPE_HELPERS) "\n\n"
        "void " + std::string(kKernelSymbol) +
        "(const double *restrict state, double t,\n"
        "                double *restrict out, "
        "const double *restrict consts)\n{\n"
        "    (void)state; (void)t; (void)consts;\n";
    return prelude;
}

} // namespace

bool
jitEnabled(bool optionValue)
{
    // -1 = no override, 0/1 = forced. Memoized: the environment is
    // process state, and the CI job that forces the tier on sets it
    // before launch.
    static const int forced = [] {
        const char *env = std::getenv("ARK_JIT_FORCE");
        if (env == nullptr)
            return -1;
        const std::string v(env);
        if (v == "1" || v == "on" || v == "true")
            return 1;
        if (v == "0" || v == "off" || v == "false")
            return 0;
        return -1;
    }();
    if (forced >= 0)
        return forced == 1;
    return optionValue;
}

bool
jitToolchainAvailable()
{
    return !jitCompilerPath().empty();
}

const std::string &
kernelEmitterText()
{
    static const std::string text = [] {
        std::string out = kernelPrelude();
#define ARK_TEXT_OP(name, arity, ...)                                  \
        out += #name " " #arity " " #__VA_ARGS__ "\n";
        ARK_TAPE_OPS(ARK_TEXT_OP)
#undef ARK_TEXT_OP
#define ARK_TEXT_BUILTIN(name, spelling, arity, ...)                   \
        out += #name " " spelling " " #arity " " #__VA_ARGS__ "\n";
        ARK_TAPE_BUILTINS(ARK_TEXT_BUILTIN)
#undef ARK_TEXT_BUILTIN
        out += kCompileFlags;
        return out;
    }();
    return text;
}

std::string
emitKernelC(const LaneTape &tape)
{
    const std::size_t w = tape.width();
    std::string src;
    src.reserve(256 + tape.size() * 64);

    src += "/* ark JIT kernel: width ";
    src += std::to_string(w);
    src += ", ";
    src += std::to_string(tape.size());
    src += " ops */\n";
    src += kernelPrelude();

    // Lane-major: one outer loop over lanes, with the whole program —
    // one statement per tape op, in stream order — as its body over a
    // per-lane scalar register file. Lanes are independent, so per
    // lane this performs exactly the IEEE operation sequence
    // LaneTape::evalIntoT interprets (bit-identical outputs); keeping
    // the registers as loop-local scalars lets the compiler hold the
    // dataflow in CPU registers instead of round-tripping a
    // width-strided spill array between per-op loops.
    src += "    for (int l = 0; l < " + std::to_string(w) + "; ++l) {\n";
    const std::size_t regDoubles = std::max<std::size_t>(
        static_cast<std::size_t>(tape.numRegs()), 1);
    src += "        double r[" + std::to_string(regDoubles) + "];\n";

    auto slot = [&](const char *base, std::int32_t index) {
        return std::string(base) + "[" +
               std::to_string(static_cast<std::size_t>(index) * w) +
               " + l]";
    };
    auto reg = [&](std::int32_t index) {
        return "r[" + std::to_string(index) + "]";
    };
    for (const TapeOp &op : tape.ops()) {
        std::string stmt;
        switch (op.op) {
          case OpCode::Const:
            stmt = reg(op.dst) + " = " + slot("consts", op.a);
            break;
          case OpCode::LoadTime:
            stmt = reg(op.dst) + " = t";
            break;
          case OpCode::LoadState:
            stmt = reg(op.dst) + " = " + slot("state", op.a);
            break;
          case OpCode::WriteOutput:
            stmt = slot("out", op.dst) + " = " + reg(op.a);
            break;
          default: {
            const std::string operands[3] = {
                op.a >= 0 ? reg(op.a) : std::string{},
                op.b >= 0 ? reg(op.b) : std::string{},
                op.c >= 0 ? reg(op.c) : std::string{}};
            stmt = reg(op.dst) + " = " +
                   instantiate(rowSpelling(op.op, op.builtin), operands);
            break;
          }
        }
        src += "        " + stmt + ";\n";
    }
    src += "    }\n}\n";
    return src;
}

JitKernelPtr
compileKernel(const LaneTape &tape, const std::string &cacheKey)
{
    const std::string cacheDir =
        cacheKey.empty() ? std::string{} : diskCacheDir();
    const std::string cachedSo =
        cacheDir.empty() ? std::string{}
                         : cacheDir + "/" + cacheKey + ".so";

    // Warm start: a prior process already compiled this structure.
    if (!cachedSo.empty()) {
        std::error_code ec;
        if (fs::exists(cachedSo, ec)) {
            if (JitKernelPtr kernel = loadKernel(cachedSo, tape)) {
                diskHitsCounter().add();
                return kernel;
            }
            // Corrupt entry (torn write, foreign file): drop it and
            // fall through to a fresh compile. A stale entry cannot
            // match: the key hashes kernelEmitterText().
            fs::remove(cachedSo, ec);
        }
    }

    // Deterministic fault injection: a forced compile failure proves
    // the interpreted-tier fallback, which no real host exercises
    // until its toolchain breaks.
    if (support::FaultInjector::shouldFire(
            support::FaultSite::JitCompile)) {
        failuresCounter().add();
        return nullptr;
    }

    const std::string &cc = jitCompilerPath();
    if (cc.empty())
        return nullptr;

    telemetry::ScopedSpan span("ark.compile.jit_compile",
                               static_cast<std::uint64_t>(tape.size()));
    telemetry::ScopedTimer timer(compileNsHistogram());

    support::TempDir work = support::TempDir::create("ark-jit-");
    if (!work.ok()) {
        failuresCounter().add();
        return nullptr;
    }
    const std::string src = work.path() + "/kernel.c";
    {
        std::ofstream out(src);
        if (!out) {
            failuresCounter().add();
            return nullptr;
        }
        out << emitKernelC(tape);
    }
    const std::string so = work.path() + "/kernel.so";
    const std::string qcc = shellQuote(cc);
    const std::string qso = shellQuote(so);
    const std::string qsrc = shellQuote(src);
    if (qcc.empty() || qso.empty() || qsrc.empty() ||
        !runCommand(qcc + " " + kCompileFlags + " -o " + qso + " " +
                    qsrc + " -lm")) {
        failuresCounter().add();
        return nullptr;
    }
    compilesCounter().add();

    // Publish into the disk cache via a unique sibling + rename so
    // concurrent processes never observe a half-written object; the
    // temp-dir object stays the load source if publication fails
    // (e.g. a read-only or cross-device cache path).
    std::string loadPath = so;
    if (!cachedSo.empty()) {
        static std::atomic<std::uint64_t> unique{0};
        const std::string staging =
            cacheDir + "/.tmp-" + std::to_string(::getpid()) + "-" +
            std::to_string(unique.fetch_add(1)) + "-" + cacheKey;
        std::error_code ec;
        fs::copy_file(so, staging,
                      fs::copy_options::overwrite_existing, ec);
        if (!ec) {
            fs::rename(staging, cachedSo, ec);
            if (!ec)
                loadPath = cachedSo;
            else
                fs::remove(staging, ec);
        }
        pruneDiskCache(cacheDir);
    }

    JitKernelPtr kernel = loadKernel(loadPath, tape);
    if (kernel == nullptr)
        failuresCounter().add();
    return kernel;
}

} // namespace ark::expr
