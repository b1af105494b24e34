/**
 * @file
 * Fixed calibration kernels owned by the benchmark. They never change
 * with the program under test, so their times, taken beside the paths
 * all through the window, show how fast the host ran during a run.
 *
 * The host drifts between runs by far more than any bound a benchmark
 * could fix (docs in README.md): the same code ran its cycle path in
 * 0.27 s in one minute and 0.35 s a few minutes later, and the kernels
 * moved with it. The main thread's timed end-to-end metrics are
 * therefore reported at the reference host speed: the measured value
 * divided by the host index of the period it was measured in.
 */

#ifndef LAYERBENCH_CALIB_HH
#define LAYERBENCH_CALIB_HH

#include <vector>

namespace layerbench
{

struct CalibSample
{
    double vmMs = 0;    //!< switch-dispatch bytecode loop
    double mapMs = 0;   //!< ordered-map inserts and lookups
    double chaseMs = 0; //!< shuffle and pointer walk over 4 MB
};

CalibSample calibrate();

/**
 * How slow the host ran: the geometric mean of the kernels' median
 * times over @p samples, each over its reference time (1 on the
 * reference host).
 */
double hostIndex(const std::vector<CalibSample>& samples);

} // namespace layerbench

#endif // LAYERBENCH_CALIB_HH
