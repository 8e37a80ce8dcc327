#include "expr/lanetape.h"

#include <cassert>
#include <limits>

#include "expr/fusedtape.h"
#include "support/faultinject.h"
#include "support/logging.h"

namespace ark::expr {

namespace {

std::size_t
widthFor(std::size_t lanes)
{
    support::panicIf(lanes == 0 || lanes > LaneTape::kMaxLanes,
                     "LaneTape: lane count out of range");
    if (lanes <= 1)
        return 1;
    if (lanes <= 2)
        return 2;
    if (lanes <= 4)
        return 4;
    return 8;
}

/** Structural equality of two instructions, ignoring Const payloads. */
bool
sameShape(const TapeOp &x, const TapeOp &y)
{
    if (x.op != y.op || x.dst != y.dst)
        return false;
    if (x.op == OpCode::Const)
        return true; // imm is the per-lane payload
    if (x.a != y.a || x.b != y.b || x.c != y.c)
        return false;
    if (x.op == OpCode::CallB && x.builtin != y.builtin)
        return false;
    return true;
}

} // namespace

bool
LaneTape::compatible(const FusedTape &a, const FusedTape &b)
{
    if (a.numOutputs() != b.numOutputs() || a.numRegs() != b.numRegs() ||
        a.size() != b.size())
        return false;
    const std::vector<TapeOp> &opsA = a.ops();
    const std::vector<TapeOp> &opsB = b.ops();
    for (std::size_t i = 0; i < opsA.size(); ++i)
        if (!sameShape(opsA[i], opsB[i]))
            return false;
    return true;
}

std::optional<LaneTape>
LaneTape::merge(const std::vector<const FusedTape *> &tapes)
{
    support::panicIf(tapes.empty() || tapes.size() > kMaxLanes,
                     "LaneTape::merge: lane count out of range");
    const FusedTape &leader = *tapes.front();
    for (const FusedTape *tape : tapes) {
        support::panicIf(tape == nullptr, "LaneTape::merge: null tape");
        if (!compatible(leader, *tape))
            return std::nullopt;
    }

    LaneTape lane;
    lane.lanes_ = tapes.size();
    lane.width_ = widthFor(tapes.size());
    lane.numRegs_ = leader.numRegs();
    lane.numOutputs_ = leader.numOutputs();
    lane.ops_ = leader.ops();

    // Lift Const immediates into the per-lane table; padding lanes
    // replicate lane 0 so their arithmetic stays finite.
    std::size_t slots = 0;
    for (const TapeOp &op : lane.ops_)
        if (op.op == OpCode::Const)
            ++slots;
    lane.constants_.resize(slots * lane.width_);
    std::size_t slot = 0;
    for (std::size_t i = 0; i < lane.ops_.size(); ++i) {
        if (lane.ops_[i].op != OpCode::Const)
            continue;
        double *row = lane.constants_.data() + slot * lane.width_;
        for (std::size_t l = 0; l < lane.width_; ++l) {
            const FusedTape &src =
                *tapes[l < lane.lanes_ ? l : 0];
            row[l] = src.ops()[i].imm;
        }
        lane.ops_[i].a = static_cast<std::int32_t>(slot);
        ++slot;
    }
    return lane;
}

LaneTape
LaneTape::broadcast(const FusedTape &tape, std::size_t lanes)
{
    std::vector<const FusedTape *> same(lanes, &tape);
    std::optional<LaneTape> merged = merge(same);
    // A tape is always structurally compatible with itself.
    support::panicIf(!merged.has_value(),
                     "LaneTape::broadcast: self-merge failed");
    return *std::move(merged);
}

template <int W>
void
LaneTape::evalIntoT(const double *state, double t, double *out,
                    double *regs) const
{
    const double *ctab = constants_.data();
    auto at = [](const double *base, std::int32_t index) {
        return base + static_cast<std::size_t>(index) * W;
    };
    // One ISA row (expr/tape.h) as a loop over the W lanes. Operand
    // pointers past the row's arity are never formed from the -1
    // slots. Builtins call libm per lane, so their lane win is the
    // amortized dispatch.
#define ARK_LANE_LOOP(arity, ...)                                      \
    {                                                                  \
        const double *a = at(regs, op.a);                              \
        const double *b = (arity) > 1 ? at(regs, op.b) : a;            \
        const double *c = (arity) > 2 ? at(regs, op.c) : a;            \
        for (int l = 0; l < W; ++l) {                                  \
            [[maybe_unused]] const double A = a[l], B = b[l], C = c[l]; \
            d[l] = __VA_ARGS__;                                        \
        }                                                              \
        break;                                                         \
    }
#define ARK_LANE_OP(name, arity, ...)                                  \
      case OpCode::name:                                               \
        ARK_LANE_LOOP(arity, __VA_ARGS__)
#define ARK_LANE_BUILTIN(name, spelling, arity, ...)                   \
      case Builtin::name:                                              \
        ARK_LANE_LOOP(arity, __VA_ARGS__)
    for (const TapeOp &op : ops_) {
        if (op.op == OpCode::WriteOutput) {
            double *o = out + static_cast<std::size_t>(op.dst) * W;
            const double *s = at(regs, op.a);
            for (int l = 0; l < W; ++l)
                o[l] = s[l];
            continue;
        }
        double *d = regs + static_cast<std::size_t>(op.dst) * W;
        switch (op.op) {
          case OpCode::Const: {
            const double *s = at(ctab, op.a);
            for (int l = 0; l < W; ++l)
                d[l] = s[l];
            break;
          }
          case OpCode::LoadTime:
            for (int l = 0; l < W; ++l)
                d[l] = t;
            break;
          case OpCode::LoadState: {
            const double *s = at(state, op.a);
            for (int l = 0; l < W; ++l)
                d[l] = s[l];
            break;
          }
          ARK_TAPE_OPS(ARK_LANE_OP)
          case OpCode::CallB:
            switch (op.builtin) {
                ARK_TAPE_BUILTINS(ARK_LANE_BUILTIN)
            }
            break;
          case OpCode::WriteOutput:
            break; // handled above
        }
    }
#undef ARK_LANE_BUILTIN
#undef ARK_LANE_OP
#undef ARK_LANE_LOOP
}

void
LaneTape::evalInto(const double *state, double t, double *out,
                   double *regs) const
{
    assert(out != nullptr || numOutputs_ == 0);
    assert(regs != nullptr || numRegs_ == 0);
    switch (width_) {
      case 1:
        evalIntoT<1>(state, t, out, regs);
        break;
      case 2:
        evalIntoT<2>(state, t, out, regs);
        break;
      case 4:
        evalIntoT<4>(state, t, out, regs);
        break;
      case 8:
        evalIntoT<8>(state, t, out, regs);
        break;
      default:
        support::panic("LaneTape: bad width");
    }
    // Deterministic fault injection: poison output 0 of lane 0 (the
    // lane-minor layout puts it at out[0]) — a single-lane numerical
    // fault, so tests can watch one lane retire while its block-mates
    // keep integrating. Zero cost disarmed.
    if (support::FaultInjector::shouldFire(support::FaultSite::TapeNan) &&
        numOutputs_ > 0)
        out[0] = std::numeric_limits<double>::quiet_NaN();
}

} // namespace ark::expr
