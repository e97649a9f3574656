"""Self-check of the benchmark harness, on a small slice of each workload.

    python3 perfbench/selfcheck.py

For the first ``QUERIES`` queries of each workload, built with seed ``SEED``,
it checks that

* two untraced passes fail on the same query ids and give the same answers;
* a traced pass gives exactly the same answers (for ``dense``, the same
  rendered sets) as the untraced ones, so the wrappers change nothing but
  time, and uninstalling them restores every wrapped name;
* the answers pass the workload's own checks.

Exit code 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import signal
import sys

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from avasskit.errors import BudgetExceededError  # noqa: E402

SEED = 0
QUERIES = 24


def check_workload(name: str, seed: int, count: int) -> list[str]:
    wl = workloads.BY_NAME[name](seed, run.WORK / f"selfcheck-{name}-{seed}")
    queries = wl.queries[:count]
    first = run.run_loop(queries, BudgetExceededError, passes=1)
    second = run.run_loop(queries, BudgetExceededError, passes=1)
    problems = []
    if set(first.failed) != set(second.failed):
        problems.append(f"failed ids differ: {sorted(first.failed)} vs {sorted(second.failed)}")
    if first.answers != second.answers:
        problems.append("two untraced passes disagree")

    tr = tracer.Tracer()
    tr.install()
    originals = list(tr._restore)
    try:
        traced = run.run_loop(queries, BudgetExceededError, passes=1, wrap=tr.query)
    finally:
        tr.uninstall()
    if traced.answers != first.answers:
        differ = sorted(q for q in first.answers if traced.answers.get(q) != first.answers[q])
        problems.append(f"traced answers differ on {differ}")
    if set(traced.failed) != set(first.failed):
        problems.append("tracing changed which queries fail")
    if any(owner.__dict__[attr] is not original for owner, attr, original in originals):
        problems.append("uninstall left a wrapper in place")
    if tr.calls["query"] != len(queries):
        problems.append(f"traced {tr.calls['query']} query spans for {len(queries)} queries")

    wrong = wl.check(first.answers)
    problems += [f"{qid}: {reason}" for qid, reason in sorted(wrong.items())]
    return problems


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    ok = True
    for name in workloads.BY_NAME:
        problems = check_workload(name, SEED, QUERIES)
        print(f"{name:8s} {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"    {p}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
