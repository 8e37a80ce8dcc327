#ifndef ARK_EXPR_TAPE_H
#define ARK_EXPR_TAPE_H

/**
 * @file
 * The tape instruction set for ODE right-hand sides, defined once.
 *
 * expr::FusedTape (fusedtape.h) lowers a system's fully-resolved RHS
 * expressions (only literals, `time`, state-vector slots, operators,
 * and builtins remain) into one register program of TapeOps; a
 * one-output FusedTape is how a single expression is compiled.
 * expr::LaneTape runs that program over lane blocks and expr/cjit.h
 * lowers it to native code.
 *
 * What every compute instruction computes is written exactly once, in
 * the two tables below (ARK_TAPE_OPS, ARK_TAPE_BUILTINS). Each row
 * gives a name, an arity, and one C expression over the operand
 * values A, B, C (registers r[a], r[b], r[c]) that is valid both as
 * C++ and as C99. Every consumer derives from the rows:
 *
 *  - evalCompute() below expands each row as a scalar case: it is the
 *    FusedTape executor, the compiler's constant folder, and (through
 *    evalBuiltin) the tree interpreter's builtin calls;
 *  - LaneTape::evalIntoT expands each row as one loop over W lanes;
 *  - the JIT emitter (cjit.cc) stringizes each row into the emitted C,
 *    and engine::kernelKey hashes those spellings.
 *
 * So the interpreted tiers and the JIT perform the same IEEE
 * operations by construction. The loads (Const, LoadTime, LoadState)
 * and WriteOutput are not rows: their operands live in different
 * places for each consumer (`imm`, the per-lane constant table, the
 * kernel's `consts` argument), so each executor spells them itself.
 */

#include <math.h> // the rows call libm unqualified, as the C kernels do

#include <cstdint>

namespace ark::expr {

/**
 * Compute opcodes: X(OpCode enumerator, arity, C expression).
 *
 * Comparisons and logic yield 1.0/0.0 and read any nonzero operand as
 * true. FusedMulAdd rounds a*b+c once (fma, deterministic across
 * hosts); it is never emitted by the base compilers, only by the
 * guarded Mul+Add contraction in FusedTape::compile(outputs,
 * fuseMulAdd=true), so default-compiled streams never contain it.
 */
#define ARK_TAPE_OPS(X)                                                \
    X(Neg, 1, -A)                                                      \
    X(Add, 2, A + B)                                                   \
    X(Sub, 2, A - B)                                                   \
    X(Mul, 2, A * B)                                                   \
    X(Div, 2, A / B)                                                   \
    X(Lt, 2, A < B ? 1.0 : 0.0)                                        \
    X(Le, 2, A <= B ? 1.0 : 0.0)                                       \
    X(Gt, 2, A > B ? 1.0 : 0.0)                                        \
    X(Ge, 2, A >= B ? 1.0 : 0.0)                                       \
    X(EqOp, 2, A == B ? 1.0 : 0.0)                                     \
    X(NeOp, 2, A != B ? 1.0 : 0.0)                                     \
    X(AndOp, 2, (A != 0.0 && B != 0.0) ? 1.0 : 0.0)                    \
    X(OrOp, 2, (A != 0.0 || B != 0.0) ? 1.0 : 0.0)                     \
    X(NotOp, 1, A == 0.0 ? 1.0 : 0.0)                                  \
    X(Select, 3, C != 0.0 ? A : B)                                     \
    X(FusedMulAdd, 3, fma(A, B, C))

/**
 * Builtins (OpCode::CallB): X(Builtin enumerator, source name, arity,
 * C expression). Row order is the enumerator value, which kernel keys
 * and fingerprints hash: append new rows, never reorder.
 *
 * min/max break ties toward A, so (+0, -0) keeps A's sign, and ignore
 * one NaN operand like fmin/fmax. sat is the Chua-Yang CNN
 * saturation; sat_ni a MOS differential-pair-like soft saturation
 * with unit endpoints (sat_ni(1) == 1); pulse(t, t0, w) a trapezoidal
 * pulse of unit amplitude (ark_pulse below).
 */
#define ARK_TAPE_BUILTINS(X)                                           \
    X(Sin, "sin", 1, sin(A))                                           \
    X(Cos, "cos", 1, cos(A))                                           \
    X(Tan, "tan", 1, tan(A))                                           \
    X(Exp, "exp", 1, exp(A))                                           \
    X(Log, "log", 1, log(A))                                           \
    X(Sqrt, "sqrt", 1, sqrt(A))                                        \
    X(Abs, "abs", 1, fabs(A))                                          \
    X(Tanh, "tanh", 1, tanh(A))                                        \
    X(Sgn, "sgn", 1, A > 0.0 ? 1.0 : (A < 0.0 ? -1.0 : 0.0))           \
    X(Min, "min", 2, (A <= B || B != B) ? A : B)                       \
    X(Max, "max", 2, (A >= B || B != B) ? A : B)                       \
    X(Pow, "pow", 2, pow(A, B))                                        \
    X(Sat, "sat", 1, 0.5 * (fabs(A + 1.0) - fabs(A - 1.0)))            \
    X(SatNi, "sat_ni", 1, tanh(1.2 * A) / ark_sat_ni_scale)            \
    X(Pulse, "pulse", 3, ark_pulse(A, B, C))

/**
 * Helper functions the rows call, as source shared by both languages:
 * compiled here, and stringized by the JIT emitter into every kernel.
 * The pulse rises and falls linearly over 5% of its width and is zero
 * outside [start, start + width].
 */
#define ARK_TAPE_HELPERS                                               \
    static inline double ark_pulse(double t, double start,             \
                                   double width)                       \
    {                                                                  \
        if (width <= 0.0)                                              \
            return 0.0;                                                \
        double ramp = 0.05 * width;                                    \
        double rel = t - start;                                        \
        if (rel <= 0.0 || rel >= width)                                \
            return 0.0;                                                \
        if (rel < ramp)                                                \
            return rel / ramp;                                         \
        if (rel > width - ramp)                                        \
            return (width - rel) / ramp;                               \
        return 1.0;                                                    \
    }

/** Identifies a builtin; doubles as the tape opcode payload. */
enum class Builtin : std::uint8_t {
#define ARK_TAPE_ENUM(name, spelling, arity, ...) name,
    ARK_TAPE_BUILTINS(ARK_TAPE_ENUM)
#undef ARK_TAPE_ENUM
};

/** Tape instruction opcodes (compute semantics: ARK_TAPE_OPS). */
enum class OpCode : std::uint8_t {
    Const,     ///< dst = imm
    LoadTime,  ///< dst = t
    LoadState, ///< dst = state[a]
    Neg,
    Add, Sub, Mul, Div,
    Lt, Le, Gt, Ge, EqOp, NeOp,
    AndOp, OrOp,
    NotOp,
    Select,    ///< operands (a, b, c) = (then, else, condition)
    CallB,     ///< dst = builtin(r[a], r[b], r[c]) (ARK_TAPE_BUILTINS)
    WriteOutput, ///< out[dst] = r[a]
    FusedMulAdd,
};

/** One tape instruction; unused operand slots hold -1. */
struct TapeOp
{
    OpCode op;
    Builtin builtin; // valid when op == CallB
    std::int32_t dst;
    std::int32_t a;
    std::int32_t b;
    std::int32_t c;
    double imm;
};

/**
 * The divisor of sat_ni: tanh(1.2) as this host computes it. The JIT
 * emits it as an exact literal rather than letting the C compiler
 * fold tanh(1.2), which could round differently.
 */
inline const double ark_sat_ni_scale = tanh(1.2);

ARK_TAPE_HELPERS

/**
 * The scalar expansion of the ISA: compute opcode `op` on operand
 * values (`builtin` selects the row when op == CallB). Operands past
 * the row's arity are ignored. The loads and WriteOutput are not
 * compute instructions and yield NaN.
 */
inline double
evalCompute(OpCode op, Builtin builtin, double A, double B, double C)
{
    switch (op) {
#define ARK_TAPE_CASE(name, arity, ...)                                \
      case OpCode::name:                                               \
        return __VA_ARGS__;
        ARK_TAPE_OPS(ARK_TAPE_CASE)
#undef ARK_TAPE_CASE
      case OpCode::CallB:
        switch (builtin) {
#define ARK_TAPE_CASE(name, spelling, arity, ...)                      \
          case Builtin::name:                                          \
            return __VA_ARGS__;
            ARK_TAPE_BUILTINS(ARK_TAPE_CASE)
#undef ARK_TAPE_CASE
        }
        break;
      case OpCode::Const:
      case OpCode::LoadTime:
      case OpCode::LoadState:
      case OpCode::WriteOutput:
        break;
    }
    return NAN;
}

} // namespace ark::expr

#endif // ARK_EXPR_TAPE_H
