"""Fixed calibration task: the benchmark's yardstick for host speed.

    python3 benchmarks/calibrate.py

Imports numpy and scipy and runs a fixed mix of interpreter work and
4x4 dense linear algebra, the same kind of work as covstop's inner
loops, without touching covstop, so no change to covstop can change its
time. run.py times this process between workload passes and scales the
reported times by the ratio of its nominal time to its median measured
time, which cancels the minute-scale speed drift of a shared host.
"""

import numpy as np
import scipy.linalg

MATRIX = np.array([[4.0, 1.0, 0.5, 0.2],
                   [1.0, 3.0, 0.4, 0.1],
                   [0.5, 0.4, 2.0, 0.3],
                   [0.2, 0.1, 0.3, 1.5]])

if __name__ == "__main__":
    total = 0.0
    for _ in range(3000):
        factor, _ = scipy.linalg.cho_factor(MATRIX)
        total += float(np.linalg.slogdet(MATRIX)[1]) + factor[0, 0]
        total += sum(j * j for j in range(40))
    print(total)
