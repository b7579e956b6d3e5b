#!/usr/bin/env python3
"""Traced split of one ``psi`` on sd(boundary of the 4-simplex).

This is the baseline instance of the roadmap (540 simplices, k = 3).  Run
from the root of a checkout:

    python3 bench/split.py

It prints the wall time of the call and, for every span the traced
benchmark run records, its inclusive time and its self time (inclusive time
minus enclosed spans), largest first.  Set-up and the traced call run
in this process only; nothing is written outside ``.bench_work``.
"""

from __future__ import annotations

import random
import shutil
import sys
import time

from run import SRC, WORK, Corpus, call


def main() -> int:
    if not (SRC / "circuitsmith" / "cli.py").is_file():
        print(f"bench: no circuitsmith sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import corpus as corpus_module
    import tracer as tracer_module
    from circuitsmith import cli

    workdir = WORK / "split"
    try:
        corpus = Corpus(corpus_module, "split", 0, workdir)
        corpus.add(corpus_module.barycentric_sphere(random.Random(0), 3, 1))
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            code = call(lambda argv: tracer.call_root(cli.main, argv),
                        corpus.argv(0, corpus.instances[0].ops[0]))[0]
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        print(f"psi sd(boundary of the 4-simplex): exit {code}, {wall:.3f} s traced")
        print(f"  {'span':44s} {'inclusive':>9s} {'self':>8s} {'self %':>7s}  calls")
        for n in sorted(tracer.total_s, key=tracer.total_s.get, reverse=True):
            v = tracer.self_s[n]
            print(f"  {n:44s} {tracer.total_s[n]:8.3f}s {v:7.3f}s {v / wall:7.1%}  {tracer.calls[n]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
