#include "expr/builtins.h"

#include "support/logging.h"

namespace ark::expr {

namespace {

const std::vector<BuiltinInfo> builtinTable = {
#define ARK_TAPE_INFO(name, spelling, arity, ...)                      \
    {Builtin::name, spelling, arity},
    ARK_TAPE_BUILTINS(ARK_TAPE_INFO)
#undef ARK_TAPE_INFO
};

} // namespace

const BuiltinInfo *
findBuiltin(const std::string &name)
{
    for (const auto &info : builtinTable)
        if (name == info.name)
            return &info;
    return nullptr;
}

const std::vector<BuiltinInfo> &
allBuiltins()
{
    return builtinTable;
}

double
satFn(double x)
{
    return evalCompute(OpCode::CallB, Builtin::Sat, x, 0.0, 0.0);
}

double
satNiFn(double x)
{
    return evalCompute(OpCode::CallB, Builtin::SatNi, x, 0.0, 0.0);
}

double
pulseFn(double t, double start, double width)
{
    return evalCompute(OpCode::CallB, Builtin::Pulse, t, start, width);
}

double
evalBuiltin(Builtin id, const double *args, int count)
{
    if (count < 1 || count > 3 ||
        static_cast<std::size_t>(id) >= builtinTable.size())
        support::panic(support::cat("unknown builtin id ",
                                    static_cast<int>(id), " count ", count));
    return evalCompute(OpCode::CallB, id, args[0],
                       count > 1 ? args[1] : 0.0,
                       count > 2 ? args[2] : 0.0);
}

} // namespace ark::expr
