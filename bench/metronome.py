"""Machine-speed probe that runs beside one timed CLI invocation.

    python3 bench/metronome.py

Every PERIOD_S it times a fixed pure-Python loop in its own CPU time, until
a line arrives on stdin; then it prints the mean loop time and the number
of loops. The benchmark pins it and the invocation to the same vCPU, so
the loop slows down when other tenants slow that vCPU's core.
"""

import select
import sys
import time

PERIOD_S = 0.1
LOOP = 20_000


def main() -> int:
    times = []
    while True:
        start = time.thread_time()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        times.append(time.thread_time() - start)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(sum(times) / len(times), len(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
