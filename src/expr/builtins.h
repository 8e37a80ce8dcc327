#ifndef ARK_EXPR_BUILTINS_H
#define ARK_EXPR_BUILTINS_H

/**
 * @file
 * Builtin math functions available inside Ark expressions.
 *
 * The set covers the operators the paper's languages use (sin for the
 * Kuramoto model, sat/sat_ni for CNN nonlinearities, pulse for TLN
 * inputs) plus the usual scalar math toolbox. Builtins are pure
 * real->real (or reals->real) functions, defined once as rows of the
 * tape ISA (ARK_TAPE_BUILTINS in expr/tape.h), so they evaluate
 * identically in the tree-walking interpreter, the compiled tapes and
 * the JIT kernels.
 */

#include <string>
#include <vector>

#include "expr/tape.h"

namespace ark::expr {

/** Descriptor for one builtin function. */
struct BuiltinInfo
{
    Builtin id;
    const char *name;
    int arity;
};

/** Looks up a builtin by name; returns nullptr if unknown. */
const BuiltinInfo *findBuiltin(const std::string &name);

/** All registered builtins (for error hints and fuzz tests). */
const std::vector<BuiltinInfo> &allBuiltins();

/** Evaluates a builtin on `count` already-computed arguments. */
double evalBuiltin(Builtin id, const double *args, int count);

/** Convenience wrappers used directly by analysis code. */
double satFn(double x);
double satNiFn(double x);
double pulseFn(double t, double start, double width);

} // namespace ark::expr

#endif // ARK_EXPR_BUILTINS_H
