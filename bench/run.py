#!/usr/bin/env python3
"""Closed-loop benchmark of the circuitsmith CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-surfaces --seed 1 --seconds 30 --trace 0

One client, one thread, closed loop: each op is one CLI subcommand run
in-process through ``circuitsmith.cli.main(argv)`` on generated JSON files,
with its standard output captured, and the next op starts only after the
previous one has returned.  The loop stops once the ops have been busy for
``--seconds``; outputs are checked against the known answers afterwards,
outside every timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
module's public functions (see ``tracer.py``), reports per-layer spans and
counters, then replays the ops of the first third untraced to measure the
tracing overhead.  A readable report goes to standard error; the last line of
standard output is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5

OP_KINDS = ("psi", "verify-cert", "check-bordism", "homology", "evaluate")
METRIC_NAMES = {"verify-cert": "verify_cert", "check-bordism": "check_bordism"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_gmean_s": "s",
    "p90_gmean_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


@dataclass
class Record:
    index: int          # instance
    op: int             # op within the instance
    kind: str
    code: int | None
    seconds: float
    error: str | None
    output: Path


class Corpus:
    """Instances of one workload and seed, written to disk on first use."""

    def __init__(self, corpus_module, workload: str, seed: int, workdir: Path):
        self.corpus = corpus_module
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.instances = []

    def get(self, i: int):
        while len(self.instances) <= i:
            self.add(self.corpus.instance(self.workload, self.seed, len(self.instances)))
        return self.instances[i]

    def add(self, inst) -> None:
        d = self.workdir / str(len(self.instances))
        d.mkdir(parents=True)
        for name, payload in inst.files.items():
            (d / name).write_text(json.dumps(payload, separators=(",", ":")))
        inst.files = None  # on disk now; held inputs would count in peak_rss_mb
        self.instances.append(inst)

    def path(self, i: int, name: str) -> Path:
        return self.workdir / str(i) / name

    def load(self, i: int, name: str):
        return json.loads(self.path(i, name).read_text())

    def argv(self, i: int, op) -> list[str]:
        return [op.kind] + [a if a.startswith("--") else str(self.path(i, a)) for a in op.args]


def call(main, argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """One op: exit code, captured stdout, seconds, and the exception that
    escaped ``cli.main`` if any."""
    buf = io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return code, buf.getvalue(), seconds, error


def run_ops(corpus: Corpus, main, seconds: float, tag: str,
            generating=contextlib.nullcontext) -> tuple[list[Record], float]:
    """The closed loop: instance after instance until the ops have been busy
    for ``seconds``.  Instances past those of set-up are generated here,
    between ops, inside ``generating()``.  Returns the records and the
    busy time."""
    records: list[Record] = []
    busy = 0.0
    i = 0
    while busy < seconds:
        with generating():
            inst = corpus.get(i)
        psi_code = None
        for j, op in enumerate(inst.ops):
            if op.needs_cert and psi_code != 0:
                continue
            code, out, dt, error = call(main, corpus.argv(i, op))
            busy += dt
            output = corpus.path(i, f"{tag}-{j}.out")
            output.write_text(out)
            records.append(Record(i, j, op.kind, code, dt, error, output))
            if op.kind == "psi":
                psi_code = code
        i += 1
    return records, busy


def replay(corpus: Corpus, main, records: list[Record]) -> float:
    """Run the same ops again, in the same order; returns the busy time."""
    busy = 0.0
    for r in records:
        busy += call(main, corpus.argv(r.index, corpus.instances[r.index].ops[r.op]))[2]
    return busy


def prefix(records: list[Record], seconds: float) -> list[Record]:
    """The first records whose busy time stays within ``seconds`` (at least one)."""
    total = 0.0
    for n, r in enumerate(records):
        total += r.seconds
        if total > seconds:
            return records[:max(n, 1)]
    return records


# ---------------------------------------------------------------------------
# Correctness, after the loop.


def _unit_coordinate(payload: dict, k: int) -> bool:
    c = payload.get("homology_coordinates", payload.get("coordinates", {}))
    return (c.get("degree") == k and len(c.get("free", [])) == 1
            and abs(c["free"][0]) == 1 and not c.get("torsion"))


def verdict(record: Record, op, corpus: Corpus, oracle) -> tuple[bool, bool, str]:
    """(error, unknown, reason) for one op.  Exit 2 counts as an error for
    k <= 3; for k = 4 it counts only as Unknown, and an exact answer there
    must carry the right coordinate."""
    if record.error is not None:
        return True, False, record.error
    try:
        payload = json.loads(record.output.read_text())
    except ValueError:
        return True, False, "report is not JSON"
    expect = op.expect
    if record.code == 2 and expect.get("unknown_ok"):
        ok = payload.get("valid") is False and "stage" in payload
        return not ok, ok, "" if ok else "Unknown without a stage"
    if record.code != expect["exit"]:
        return True, False, f"exit {record.code}, expected {expect['exit']}"
    if "stage" in expect:
        ok = payload.get("stage") == expect["stage"]
        return not ok, False, "" if ok else f"stage {payload.get('stage')!r}"
    if "coordinate" in expect:
        ok = _unit_coordinate(payload, expect["coordinate"]) and payload.get("valid", True)
        return not ok, False, "" if ok else "coordinate is not +-1"
    if "reproduced" in expect:
        ok = payload.get("reproduced") is True and not payload.get("mismatches")
        return not ok, False, "" if ok else f"mismatches {payload.get('mismatches')}"
    if "valid" in expect:
        ok = payload.get("valid") is True
        return not ok, False, "" if ok else "certificate not valid"
    if expect.get("homology"):
        facets = corpus.load(record.index, "complex.json")["maximal"]
        rel = corpus.load(record.index, "rel.json") if "--rel" in op.args else None
        want = oracle.integer_homology(facets, rel)
        got = (payload.get("betti"), payload.get("torsion"))
        ok = got == want
        return not ok, False, "" if ok else f"homology {got}, oracle {want}"
    return True, False, "no expectation"


def check(corpus: Corpus, records: list[Record], oracle) -> tuple[int, int, list[str]]:
    errors = unknowns = 0
    reasons = []
    for r in records:
        op = corpus.instances[r.index].ops[r.op]
        error, unknown, reason = verdict(r, op, corpus, oracle)
        errors += error
        unknowns += unknown
        if error:
            reasons.append(f"instance {r.index} ({corpus.instances[r.index].label}) {r.kind}: {reason}")
    return errors, unknowns, reasons


# ---------------------------------------------------------------------------
# Summaries.


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, the i-th weighted by the Beta((n+1)q, (n+1)(1-q)) mass on
    ((i-1)/n, i/n].  Unlike the sample quantile it does not jump from one
    lump of similar inputs to the next when the mix shifts by an op."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    sub = 32  # midpoint rule on each interval
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(sub):
            x = (i + (j + 0.5) / sub) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def repeat_share(corpus: Corpus, records: list[Record]) -> float:
    seen = set()
    repeats = 0
    for r in records:
        op = corpus.instances[r.index].ops[r.op]
        h = hashlib.sha1()
        for name in op.key_files:
            h.update(corpus.path(r.index, name).read_bytes())
        key = h.digest()
        repeats += key in seen
        seen.add(key)
    return repeats / len(records)


def f_vector_summary(corpus: Corpus, records: list[Record]) -> str:
    used = sorted({r.index for r in records})
    sizes = sorted(sum(corpus.instances[i].f_vector) for i in used)
    dims = max(len(corpus.instances[i].f_vector) for i in used)
    mean = [statistics.fmean(corpus.instances[i].f_vector[d] if d < len(corpus.instances[i].f_vector)
                             else 0 for i in used) for d in range(dims)]
    return (f"{len(used)} instances, simplices min {sizes[0]} / median {statistics.median(sizes):g}"
            f" / max {sizes[-1]}, mean f-vector [{', '.join(f'{x:.1f}' for x in mean)}]")


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Import, generation of the first instances with their files written,
    and one warm-up call of each op kind."""
    import corpus as corpus_module
    from circuitsmith import cli

    corpus = Corpus(corpus_module, workload, seed, workdir / "corpus")
    corpus.get(corpus_module.SETUP_INSTANCES[workload] - 1)
    warm = Corpus(corpus_module, workload, seed, workdir / "warmup")
    for inst in corpus_module.warmup(workload):
        warm.add(inst)
        i = len(warm.instances) - 1
        for op in inst.ops:
            call(cli.main, warm.argv(i, op))
    return corpus, cli


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time of a fresh process from start to the point where the first
    timed op would begin."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir),
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - t0


def latency_lines(records: list[Record]) -> list[str]:
    lines = []
    for kind in OP_KINDS:
        lat = [r.seconds for r in records if r.kind == kind]
        if lat:
            name = METRIC_NAMES.get(kind, kind)
            lines.append(f"  {name}_p50_s {quantile(lat, 0.5):.4f} s   "
                         f"{name}_p90_s {quantile(lat, 0.9):.4f} s   (n={len(lat)})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-surfaces", "certify-highdim", "homology-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "circuitsmith" / "cli.py").is_file():
        print(f"bench: no circuitsmith sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    if args.setup_probe is not None:
        setup(args.workload, args.seed, args.setup_probe)
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, workdir: Path) -> int:
    corpus, cli = setup(args.workload, args.seed, workdir / "run")
    import oracle

    head = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s busy, "
            "closed loop, one client, one thread"]
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            records, busy = run_ops(corpus, lambda argv: tracer.call_root(cli.main, argv),
                                    args.seconds, "traced", tracer.paused)
        finally:
            tracer.uninstall()
        # The overhead is measured on the ops of the first third of the
        # traced time, replayed untraced, to keep the run short.
        again = prefix(records, args.seconds / 3)
        traced = sum(r.seconds for r in again)
        untraced = replay(corpus, cli.main, again)
        errors, unknowns, reasons = check(corpus, records, oracle)
        layer = tracer.metrics(busy)
        layer["trace.ops"] = len(records)
        layer["trace.wall_s"] = busy
        layer["trace.traced_ops_per_s"] = len(again) / traced
        layer["trace.untraced_ops_per_s"] = len(again) / untraced
        layer["trace.overhead_ratio"] = traced / untraced
        metrics = {n: (v, per_layer_unit(n)) for n, v in sorted(layer.items())}
        spans = sorted(((v, n) for n, v in layer.items() if n.endswith(".self_s")), reverse=True)
        lines = head + [f"traced: {len(records)} ops in {busy:.2f} s; first {len(again)} ops "
                        f"{traced:.2f} s traced, {untraced:.2f} s untraced: overhead "
                        f"x{traced / untraced:.3f}",
                        f"self times sum to {layer['trace.self_sum_share']:.3f} of traced wall",
                        "largest spans:"]
        lines += [f"  {n:48s} {v:9.3f} s  {v / busy:6.1%}" for v, n in spans[:12]]
    else:
        probes = [probe_setup(args.workload, args.seed, workdir / f"probe{i}")
                  for i in range(SETUP_PROBES)]
        records, busy = run_ops(corpus, cli.main, args.seconds, "timed")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors, unknowns, reasons = check(corpus, records, oracle)
        by_kind = [[r.seconds for r in records if r.kind == k] for k in OP_KINDS]
        by_kind = [lat for lat in by_kind if lat]
        values = {
            "setup_s": statistics.median(probes),
            "ops_per_s": len(records) / busy,
            "p50_gmean_s": statistics.geometric_mean(quantile(lat, 0.5) for lat in by_kind),
            "p90_gmean_s": statistics.geometric_mean(quantile(lat, 0.9) for lat in by_kind),
            "peak_rss_mb": rss_mb,
        }
        metrics = {n: (v, END_TO_END_UNITS[n]) for n, v in values.items()}
        lines = head + [f"  {n} {v:.4f} {u}" for n, (v, u) in metrics.items()]
        lines += latency_lines(records)
        lines.append(f"  setup probes {', '.join(f'{p:.3f}' for p in probes)} s")
    n = len(records)
    lines += [
        f"  error_rate {errors / n:.4f} ratio   unknown_share {unknowns / n:.4f} ratio   (n={n})",
        f"  input repeat share {repeat_share(corpus, records):.3f}",
        f"  corpus: {f_vector_summary(corpus, records)}",
    ]
    lines += [f"  ERROR {r}" for r in reasons[:20]]
    print("\n".join(lines), file=sys.stderr)
    emit(errors == 0, n, errors, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
