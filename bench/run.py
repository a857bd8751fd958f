"""Time-to-answer benchmark of the gl2ext CLI, with a traced per-layer run.

Run from the root of a source checkout:

    python3 bench/run.py --workload model|oracle|verify --seed N --seconds S --trace 0|1
    python3 bench/run.py --regen-digests

With ``--trace 0`` every operation is a fresh ``python -m gl2ext`` child,
one at a time, in a closed loop with one caller; whole passes over the
workload's operations repeat for about ``--seconds`` seconds and the
end-to-end metrics are medians over passes.  With ``--trace 1`` one pass
calls ``gl2ext.cli.main`` in this process untraced, then one more pass
runs with every layer wrapped, and the per-layer metrics come from that
traced pass.  The seed fixes the order of operations in each pass.  Every
output is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import spans
import workloads
from workloads import USAGE, Op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
REFERENCE = ROOT / "bench" / "reference_digests.json"
SETUP_SAMPLES = 9


class Result(NamedTuple):
    seconds: float
    rc: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv: tuple[str, ...], timeout: float | None = None, address_space: int | None = None) -> Result:
    """One fresh interpreter answering one CLI call; rusage from wait4.

    A child still running after ``timeout`` seconds is killed, and
    ``address_space`` caps the child's virtual memory in bytes.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    limit = None if address_space is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gl2ext", *argv], stdout=out, stderr=err, env=env, preexec_fn=limit
        )
        try:
            flags = 0 if timeout is None else os.WNOHANG
            pid, status, usage = os.wait4(proc.pid, flags)
            while not pid:
                time.sleep(0.05)
                if time.perf_counter() - start > timeout:
                    proc.kill()
                    flags = 0
                pid, status, usage = os.wait4(proc.pid, flags)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)


def run_in_process(main, argv: tuple[str, ...], tracer=None) -> Result:
    """``gl2ext.cli.main(argv)`` with stdout and stderr captured.

    An exception escaping ``main`` is reported as the interpreter would
    report it: a traceback on stderr and exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = tracer.call("cli.main", main, list(argv)) if tracer else main(list(argv))
    except Exception:  # noqa: BLE001 - the CLI's own crash is an outcome here
        traceback.print_exc()
        rc = 1
    finally:
        seconds = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return Result(seconds, rc, out.getvalue().encode(), err.getvalue().encode(), 0)


def failed(op: Op, res: Result) -> bool:
    if op.cls == USAGE:
        return bool(workloads.usage_contract(res.rc, res.stdout, res.stderr))
    return res.rc != 0


def judge(ops: list[Op], passes: list[list[Result]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over whole passes; outputs must repeat byte for byte."""
    problems = []
    first = passes[0]
    for i, op in enumerate(ops):
        if any(p[i].stdout != first[i].stdout for p in passes[1:]):
            problems.append(f"{op.key}: stdout differs between passes")
        if op.check is not None and not failed(op, first[i]):
            try:
                problems += [f"{op.key}: {msg}" for msg in op.check(first[i].stdout)]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"{op.key}: unreadable output ({exc!r})")
    n_failed = sum(failed(op, p[i]) for p in passes for i, op in enumerate(ops))
    return len(ops) * len(passes), n_failed, problems


def shuffled(ops: list[Op], rng: random.Random) -> list[int]:
    order = list(range(len(ops)))
    rng.shuffle(order)
    return order


def run_passes(ops: list[Op], rng: random.Random, seconds: float) -> list[list[Result]]:
    """Whole passes, at least two, while the next one is expected to end in time."""
    passes: list[list[Result]] = []
    walls: list[float] = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        results: list = [None] * len(ops)
        for i in shuffled(ops, rng):
            results[i] = run_child(ops[i].argv)
        passes.append(results)
        walls.append(time.perf_counter() - t0)
    return passes


def timed_run(ops: list[Op], rng: random.Random, seconds: float):
    run_child(workloads.SETUP_ARGV)  # bytecode caches are written once, not per user run
    setup = [run_child(workloads.SETUP_ARGV) for _ in range(SETUP_SAMPLES)]
    problems = [
        f"setup: {msg}"
        for r in setup
        for msg in (workloads.setup_check(r.stdout) if r.rc == 0 else [f"exit code {r.rc}"])
    ]
    passes = run_passes(ops, rng, seconds)
    classes = {
        f"{cls}_s": (statistics.median(sum(r.seconds for op, r in zip(ops, p) if op.cls == cls) for p in passes), "s")
        for cls in dict.fromkeys(op.cls for op in ops if op.cls != USAGE)
    }
    metrics = {
        "setup_s": (statistics.median(r.seconds for r in setup), "s"),
        "pass_s": (
            statistics.median(sum(r.seconds for op, r in zip(ops, p) if op.cls != USAGE) for p in passes),
            "s",
        ),
        "peak_rss_mb": (max(r.maxrss_kb for p in passes for r in p) / 1024, "MB"),
    }
    return metrics, classes | metrics, passes, problems


def traced_run(workload: str, ops: list[Op], rng: random.Random):
    sys.path.insert(0, str(ROOT / "src"))
    from gl2ext import cli

    order = shuffled(ops, rng)
    plain: list = [None] * len(ops)
    for i in order:
        plain[i] = run_in_process(cli.main, ops[i].argv)
    tracer = spans.Tracer()
    tracer.install()
    traced: list = [None] * len(ops)
    enumerated = {}
    try:
        for i in order:
            tracer.op = i
            before = tracer.counts["tower.enumerate_weight_zero.tuples"]
            traced[i] = run_in_process(cli.main, ops[i].argv, tracer)
            enumerated[i] = tracer.counts["tower.enumerate_weight_zero.tuples"] - before
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}.tsv")
    kept = total = 0
    for i, op in enumerate(ops):
        if op.cls == "column_query" and traced[i].rc == 0:
            out = json.loads(traced[i].stdout)
            kept += len(out["basis"]) if "basis" in out else sum(r["dim"] for r in out["table"])
            total += enumerated[i]
    layer = tracer.layer_metrics()
    for name in workloads.FULL_CHECKS:
        layer.setdefault(f"verify.{name}.total_s", 0.0)
    layer["tower.column_keep_ratio"] = kept / total if total else 0.0
    layer["cli.stdout_bytes"] = sum(len(r.stdout) for r in traced)
    layer["trace.overhead_s"] = sum(r.seconds for r in traced) - sum(r.seconds for r in plain)
    units = {"_s": "s", "calls": "count", "tuples": "count", "pairs_visited": "count", "bytes": "bytes", "ratio": "ratio"}
    metrics = {}
    for name, value in sorted(layer.items()):
        metrics[name] = (value, next(u for suffix, u in units.items() if name.endswith(suffix)))
    costs = {
        "trace.span_cost_ns": (tracer.span_cost_ns, "ns"),
        "trace.counted_call_cost_ns": (tracer.count_cost_ns, "ns"),
    }
    return metrics, metrics | costs, [plain, traced], []


def git_sha() -> str | None:
    """HEAD of the checkout's own repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"node": platform.node(), "system": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def regen_digests() -> int:
    """Rewrite the reference digests from one run of every operation on this tree."""
    ref = {}
    for make in workloads.WORKLOADS.values():
        for op in make():
            ref[op.key] = digest(run_child(op.argv).stdout)
            print(f"{ref[op.key][:16]}  {op.key}", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true", help="rewrite bench/reference_digests.json")
    args = ap.parse_args()
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gl2ext" / "__init__.py").is_file():
        print(f"bench: no gl2ext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    if args.regen_digests:
        return regen_digests()
    if args.workload is None:
        ap.error("--workload is required")
    ops = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    if args.trace:
        metrics, shown, passes, problems = traced_run(args.workload, ops, rng)
    else:
        metrics, shown, passes, problems = timed_run(ops, rng, args.seconds)
    attempted, n_failed, check_problems = judge(ops, passes)
    problems += check_problems
    for msg in problems:
        print(f"bench: {msg}", file=sys.stderr)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "machine": machine(),
        "python": sys.version,
        "git_sha": git_sha(),
        "attempted": attempted,
        "failed": n_failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "operations": [
            {
                "argv": list(op.argv),
                "class": op.cls,
                "exit_codes": sorted({p[i].rc for p in passes}),
                "seconds": [p[i].seconds for p in passes],
                "sha256": digest(passes[0][i].stdout),
                "matches_reference": reference.get(op.key) == digest(passes[0][i].stdout) if reference else None,
            }
            for i, op in enumerate(ops)
        ],
    }
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"attempted {attempted}  failed {n_failed}  correct {not problems}")
    for name, (value, unit) in shown.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
