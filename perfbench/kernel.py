"""The reference kernel: a fixed piece of pure-Python integer work.

The benchmark runs it between queries and divides each query's CPU time
by the kernel's, so that a machine that runs slower for a while does not
read as a slower program.  It mixes the interpreter operations parataur
itself spends its time on: small and large integer arithmetic, tuples,
dict lookups and list appends.

Never change this file: every recorded figure is in units of its time.
It imports nothing from parataur.
"""

import gc
import time

# Normalized figures are in seconds of a machine on which one kernel run
# takes NOMINAL_S; on the development machine (Python 3.11.7) it takes
# between about 0.9 ms and 1.8 ms, as the machine's speed drifts.
NOMINAL_S = 0.001

_ROUNDS = 2000
CHECKSUM = 1979806981


def _work() -> int:
    x = 12345
    acc = 0
    table: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    big = 1
    for i in range(_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 251
        table[key] = table.get(key, 0) + (x >> 9)
        rows.append((key, x & 0xFFFF))
        if i % 16 == 0:
            big = (big * (x | 1) + i) % (1 << 192)
        acc = (acc ^ table[key] ^ rows[i // 2][1]) & 0x7FFFFFFF
    return (acc ^ (big & 0x7FFFFFFF)) & 0x7FFFFFFF


def run() -> float:
    """CPU seconds of one kernel run, with the cyclic collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        result = _work()
        elapsed = time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()
    if result != CHECKSUM:
        raise AssertionError(f"reference kernel checksum {result} != {CHECKSUM}")
    return elapsed
