"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed swings by up to 1.7x in
spells of seconds to minutes; a slow spell can outlast a whole run. CPU time
tracks wall time through these spells, so they come from shared hardware,
not from scheduling, and no choice of which passes to time can wait them
out. Instead, the benchmark times a fixed pure-Python kernel between ops:
a bitmask DFS that counts rainbow paths in a properly colored K_9, the same
mix of calls, bit tests and tuple walks as rturan's own search. It slows
down with the host in the same proportion as the library code (on a shared
2-core host, the time of ``longest_rainbow_path(maamoun_meyniel(3))`` over
the kernel's time stayed within 1.64-1.67 while both swung 1.6x).

Each op's time is multiplied by ``REF_S / local``, where ``local`` is the
kernel's time around that op. Timings are thus reported in seconds on a
host where the kernel takes ``REF_S``. The kernel is part of the benchmark,
not of rturan, so no change to the library moves it.
"""

from __future__ import annotations

import time

# The kernel's time on the reference host; every timing is scaled to it.
REF_S = 1.0e-3

N = 9
# K_9 with edge {v, w} colored (v + w) mod 9: a proper coloring
ADJ = tuple(tuple((w, (v + w) % N) for w in range(N) if w != v)
            for v in range(N))
STARTS = 3
DEPTH = 4
PATHS = 4065  # rainbow paths of 0..DEPTH edges from the STARTS vertices


def kernel() -> int:
    """Count the rainbow paths of up to DEPTH edges from STARTS vertices."""
    count = 0
    adj = ADJ

    def walk(v: int, vmask: int, cmask: int, depth: int) -> None:
        nonlocal count
        count += 1
        if depth == DEPTH:
            return
        for w, c in adj[v]:
            if not (vmask >> w) & 1 and not (cmask >> c) & 1:
                walk(w, vmask | 1 << w, cmask | 1 << c, depth + 1)

    for s in range(STARTS):
        walk(s, 1 << s, 0, 0)
    return count


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    count = kernel()
    dt = time.perf_counter() - t0
    if count != PATHS:
        raise RuntimeError(f"calibration kernel counted {count}, not {PATHS}")
    return dt


def warm_up(runs: int = 50) -> None:
    """Let the interpreter specialise the kernel before it is timed."""
    for _ in range(runs):
        sample()
