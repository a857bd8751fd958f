"""Scale figures: the largest size each path finishes within one time and memory budget.

    python3 bench/scale.py

Reports the largest q at p = 3 for which ``ext-table`` and ``hilbert``
finish, and the largest prime p for which ``oracle quotient-dims --name
OMEGA`` finishes to degree 2p.  The budget is SECONDS of wall time and MB
of peak RSS per call.  Each size runs as one fresh child; a child that
outlives the time budget is killed, and the address space of each child
is capped at twice the memory budget so that a runaway size fails without
starving the machine.  A size counts only if it exits 0 within the time
budget and its peak RSS stays within the memory budget.  Sizes grow until
the first one that does not count.
"""

from __future__ import annotations

import os
import sys

from run import OUT, ROOT, run_child

SECONDS = 60
MB = 2048
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def largest(label: str, sizes, make_argv) -> None:
    best = None
    for size in sizes:
        argv = make_argv(size)
        res = run_child(argv, timeout=SECONDS, address_space=2 * MB * 1024 * 1024)
        rss = res.maxrss_kb / 1024
        ok = res.rc == 0 and res.seconds <= SECONDS and rss <= MB
        print(f"  {'ok  ' if ok else 'over'} {res.seconds:8.2f} s {rss:8.1f} MB  gl2ext {' '.join(argv)}", flush=True)
        if not ok:
            break
        best = size
    print(f"{label}: {best}", flush=True)


def main() -> int:
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    print(f"budget: {SECONDS} s and {MB} MB peak RSS per call")
    qs = range(1, 20)
    largest("ext-table largest q at p=3", qs, lambda q: ("ext-table", "--p", "3", "--q", str(q)))
    largest("hilbert largest q at p=3", qs, lambda q: ("hilbert", "--p", "3", "--q", str(q)))
    largest(
        "oracle OMEGA largest p to degree 2p",
        PRIMES,
        lambda p: ("oracle", "quotient-dims", "--name", "OMEGA", "--p", str(p), "--max-degree", str(2 * p)),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
