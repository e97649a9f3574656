"""avasskit benchmark: time to a verdict under a per-query limit.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

One client in one process sends the workload's queries in a closed loop:
each query starts when the previous one has returned.  The loop runs whole
passes over the corpus until ``--seconds`` have gone by, so every run
measures the same queries however fast the program is.  Each query runs
under ``QUERY_LIMIT_S`` of wall time, enforced in-process with
``signal.setitimer``; a query that times out or raises
``BudgetExceededError`` counts as failed and as taking the full limit.  After
the loop, outside the timing, every answer is checked (see ``workloads``).

Timings are scaled to a nominal machine speed measured by a reference kernel
run between queries (see ``speed``); the raw wall-clock figures are printed
beside them.  ``latency_p50_ms`` is the median over distinct queries of each
query's median over the passes.  ``latency_tail_ms`` is the highest
percentile with ten distinct queries beyond it, read off every attempt, so
its percentile does not depend on how many passes fit in the run.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it runs untraced passes for half of ``--seconds``, then the same number of
passes with every layer wrapped (see ``tracer``), checks that both give the
same answers, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer is correct, 1 when one is wrong, 2 when the checkout has
no ``src/avasskit`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

QUERY_LIMIT_S = 10.0
SETUP_REPEATS = 5
TAIL_BEYOND = 10
UNPINNED = "unpinned: no CPU pinning, no machine setting changed"
# String hashing is seeded per process, and on K3 the hash seed alone moves a
# query's time by up to 40 %; the run re-executes itself with this seed so
# that runs compare the same dict and set layouts.
HASH_SEED = "0"


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the program eats it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


@dataclass
class Loop:
    """One timed loop.  ``latencies`` are scaled to nominal machine speed (see
    ``speed``), ``raw`` are wall-clock; both hold the full limit for a failed
    attempt."""

    wall_s: float = 0.0
    busy_s: float = 0.0
    passes: int = 0
    attempted: int = 0
    latencies: dict = field(default_factory=lambda: defaultdict(list))
    raw: dict = field(default_factory=lambda: defaultdict(list))
    answers: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    wrong: dict = field(default_factory=dict)
    speed: Speedometer = field(default_factory=Speedometer)


def run_loop(queries, budget_error, seconds: float | None = None,
             passes: int | None = None, wrap=None) -> Loop:
    """Whole passes over ``queries``: until ``seconds`` have elapsed, or ``passes`` times."""
    loop = Loop()
    attempts = []
    start = perf_counter()
    while True:
        for q in queries:
            loop.speed.maybe_sample()
            status = "ok"
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
                try:
                    answer = wrap(q.qid, q.run) if wrap else q.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except QueryTimeout:
                status = "timeout"
            except budget_error:
                status = "budget"
            attempts.append((q.qid, t0, perf_counter(), status == "ok"))
            if status != "ok":
                loop.failed[q.qid] = status
            elif q.qid not in loop.answers:
                loop.answers[q.qid] = answer
            elif loop.answers[q.qid] != answer:
                loop.wrong[q.qid] = "answer changed between passes"
        loop.passes += 1
        loop.wall_s = perf_counter() - start
        if (passes is not None and loop.passes >= passes) or \
                (passes is None and loop.wall_s >= seconds):
            break
    loop.speed.sample()
    for qid, t0, t1, ok in attempts:
        raw = t1 - t0 if ok else QUERY_LIMIT_S
        scaled = raw * loop.speed.factor((t0 + t1) / 2) if ok else QUERY_LIMIT_S
        loop.raw[qid].append(raw)
        loop.latencies[qid].append(scaled)
        loop.busy_s += scaled
    loop.attempted = len(attempts)
    return loop


def tail(latencies: dict[str, list[float]]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, in tenths, with at least
    ``TAIL_BEYOND`` distinct queries beyond it, taken by nearest rank over every
    attempt.  Each query has one attempt per pass, so ``TAIL_BEYOND`` times the
    passes lie beyond it and the percentile does not depend on how many passes
    fit in the run."""
    pct = math.floor(1000 * (1 - TAIL_BEYOND / len(latencies))) / 10
    samples = sorted(v for values in latencies.values() for v in values)
    rank = max(1, math.ceil(pct / 100 * len(samples)))
    return pct, samples[rank - 1]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter that imports avasskit and builds the
    inputs: (scaled to nominal machine speed, raw), one entry per repeat."""
    scaled, raw = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    speed = Speedometer()
    for _ in range(SETUP_REPEATS):
        around = [speed.sample() for _ in range(3)]
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        took = perf_counter() - t0
        around += [speed.sample() for _ in range(3)]
        raw.append(took)
        scaled.append(took * NOMINAL_S / statistics.median(around))
    return scaled, raw


def metadata(seed: int, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "avasskit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        revision = top[1] if Path(top[0]).resolve() == ROOT else "not a git checkout"
    except (OSError, subprocess.CalledProcessError):
        revision = "not a git checkout"
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "run_seed": seed,
        "corpus": workload.corpus,
        "query_limit_s": QUERY_LIMIT_S,
        "note": UNPINNED,
    }


def end_to_end(loop: Loop, setup: tuple[list[float], list[float]], rss_mb: float):
    """The end-to-end metrics, and a line with their raw wall-clock readings."""
    per_query = [statistics.median(v) for v in loop.latencies.values()]
    raw_per_query = [statistics.median(v) for v in loop.raw.values()]
    pct, tail_s = tail(loop.latencies)
    metrics = {
        "queries_per_s": (loop.attempted / loop.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup[0]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    factors = loop.speed.durations
    raw = (f"raw wall clock: {loop.attempted / (loop.wall_s - loop.speed.spent_s):.6g} 1/s, "
           f"p50 {statistics.median(raw_per_query) * 1e3:.6g} ms, "
           f"tail {tail(loop.raw)[1] * 1e3:.6g} ms, setup {statistics.median(setup[1]):.6g} s; "
           f"reference kernel {min(factors) * 1e3:.3g}-{max(factors) * 1e3:.3g} ms, "
           f"median {statistics.median(factors) * 1e3:.3g} ms, nominal {NOMINAL_S * 1e3:g} ms")
    return metrics, f"tail is p{pct:g} of {len(per_query)} distinct queries", raw


def unit_of(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (what setup_s times)")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py"),
                                  *(sys.argv[1:] if argv is None else argv)])

    if not (SRC / "avasskit" / "__init__.py").is_file():
        print(f"error: no avasskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from avasskit.errors import BudgetExceededError

    if args.workload not in workloads.BY_NAME:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.BY_NAME)}")
    build = workloads.BY_NAME[args.workload]
    work = WORK / f"{args.workload}-{args.seed}"
    if args.setup_only:
        build(args.seed, work)
        return 0

    wl = build(args.seed, work)
    meta = metadata(args.seed, wl)
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        import tracer as tracing
        plain = run_loop(wl.queries, BudgetExceededError, seconds=args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_loop(wl.queries, BudgetExceededError, passes=plain.passes,
                              wrap=tr.query)
        finally:
            tr.uninstall()
        tr.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        loop = plain
        wrong = dict(plain.wrong, **traced.wrong)
        wrong.update({qid: "traced answer differs" for qid, a in traced.answers.items()
                      if plain.answers.get(qid, a) != a})
        wrong.update({qid: "failed only when traced" for qid in traced.failed
                      if qid not in plain.failed})
        metrics = {k: (v, unit_of(k)) for k, v in tr.metrics(plain.passes).items()}
        metrics["trace.overhead_ratio"] = (traced.busy_s / plain.busy_s, "ratio")
        note = f"{plain.passes} untraced and {traced.passes} traced passes"
        raw = f"raw wall clock: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s"
    else:
        setup = measure_setup(args.workload, args.seed)
        loop = run_loop(wl.queries, BudgetExceededError, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = dict(loop.wrong)
        metrics, note, raw = end_to_end(loop, setup, rss_mb)

    t0 = perf_counter()
    wrong.update(wl.check(loop.answers))
    note += f", answers checked in {perf_counter() - t0:.1f} s"
    failed_ids = sorted(set(loop.failed) | set(wrong))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"query limit {QUERY_LIMIT_S:g} s  passes {loop.passes}  ({note})")
    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(raw)
    failed_count = sum(len(loop.latencies[q]) for q in failed_ids)
    print(f"{'failed_ratio':48s} {failed_count / loop.attempted:14.6g} ratio  "
          f"({len(loop.failed)} timed out or over budget, {len(wrong)} wrong)")
    slowest = max(loop.raw, key=lambda q: max(loop.raw[q]))
    worst = max(loop.raw[slowest])
    print(f"slowest query {slowest}: {worst * 1e3:.1f} ms, limit / {QUERY_LIMIT_S / worst:.1f}")
    print("failed_ids " + json.dumps({q: loop.failed.get(q) or wrong[q] for q in failed_ids}))
    result = {
        "correct": not wrong,
        "attempted": loop.attempted,
        "failed": failed_count,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    record = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
