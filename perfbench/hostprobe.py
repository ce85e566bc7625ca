"""Host-speed probe, started by ``common.CpuProbe`` as a child process.

Usage: ``python3 hostprobe.py OUT MAX_SECONDS``.  Every ~0.1 s it runs a
fixed pure-Python loop and appends ``<monotonic midpoint> <CPU seconds>``
to OUT.  It stops after MAX_SECONDS, or as soon as its parent is gone.
Imports only the standard library, so it costs the same whatever the
program under test does.
"""

import os
import sys
import time

#: Loop iterations per sample (~4 ms of CPU on the reference host).
ITERATIONS = 25_000
INTERVAL_S = 0.1


def _loop() -> int:
    table = {}
    acc = 0
    for i in range(ITERATIONS):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return acc


def main(out: str, max_seconds: float) -> None:
    parent = os.getppid()
    end = time.monotonic() + max_seconds
    with open(out, "w", buffering=1) as stream:
        while time.monotonic() < end and os.getppid() == parent:
            start, cpu = time.monotonic(), time.process_time()
            _loop()
            cpu = time.process_time() - cpu
            stream.write(f"{(start + time.monotonic()) / 2} {cpu}\n")
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
