#ifndef ARK_SIM_DOPRI5_H
#define ARK_SIM_DOPRI5_H

/**
 * @file
 * Dormand-Prince 5(4) coefficients and step-size control for the
 * lane-synchronized adaptive driver (sim.cc).
 *
 * The tableau and the PI controller formulas live in one place so the
 * driver's step voting — the minimum of per-lane controller outputs —
 * is the controller itself whenever one lane votes: a W=1 block steps
 * exactly like any other block, and simulate() is that W=1 block.
 */

#include <algorithm>
#include <cmath>

namespace ark::sim::detail {

/** Butcher tableau (Dormand & Prince 1980) + embedded 4th order. */
struct Dopri5
{
    static constexpr double c2 = 1.0 / 5, c3 = 3.0 / 10, c4 = 4.0 / 5,
                            c5 = 8.0 / 9;
    static constexpr double a21 = 1.0 / 5;
    static constexpr double a31 = 3.0 / 40, a32 = 9.0 / 40;
    static constexpr double a41 = 44.0 / 45, a42 = -56.0 / 15,
                            a43 = 32.0 / 9;
    static constexpr double a51 = 19372.0 / 6561, a52 = -25360.0 / 2187,
                            a53 = 64448.0 / 6561, a54 = -212.0 / 729;
    static constexpr double a61 = 9017.0 / 3168, a62 = -355.0 / 33,
                            a63 = 46732.0 / 5247, a64 = 49.0 / 176,
                            a65 = -5103.0 / 18656;
    static constexpr double b1 = 35.0 / 384, b3 = 500.0 / 1113,
                            b4 = 125.0 / 192, b5 = -2187.0 / 6784,
                            b6 = 11.0 / 84;
    // Embedded 4th-order weights (error estimate).
    static constexpr double e1 = 5179.0 / 57600, e3 = 7571.0 / 16695,
                            e4 = 393.0 / 640, e5 = -92097.0 / 339200,
                            e6 = 187.0 / 2100, e7 = 1.0 / 40;

    /**
     * PI controller (Gustafsson) growth factor after an accepted step
     * with error norm `err` (previous accepted norm `prevErr`),
     * clamped to [0.2, 5].
     */
    static double
    acceptFactor(double err, double prevErr)
    {
        double factor = 0.9 *
                        std::pow(err > 0 ? err : 1e-10, -0.7 / 5.0) *
                        std::pow(prevErr > 0 ? prevErr : 1e-10, 0.4 / 5.0);
        return std::clamp(factor, 0.2, 5.0);
    }

    /** Shrink factor after a rejected step with error norm `err`. */
    static double
    rejectFactor(double err)
    {
        return std::max(0.1, 0.9 * std::pow(err, -0.2));
    }
};

} // namespace ark::sim::detail

#endif // ARK_SIM_DOPRI5_H
