"""covgame benchmark: the command that runs it.

Run from the root of a covgame checkout:

    python3 perfbench/run.py --workload paper-day --seed 20240815 --seconds 60 --trace 0

It starts fresh sample processes one after another until ``--seconds`` is
used up, checks every operation, and prints a human-readable report followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.refkernel import REF_NOMINAL_S  # noqa: E402
from perfbench.workloads import CENTRALIZED, DISTRIBUTED, VALUE_GAP, WORKLOADS  # noqa: E402

# No run may take longer than this, whatever --seconds says.
HARD_LIMIT_S = 170.0
# Largest share of a traced pass's wall time its self times may leave out.
UNATTRIBUTED_SHARE = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "distributed_s": "s",
    "centralized_s": "s",
    "peak_rss_mb": "MB",
    "value_s": "s",
}
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def run_samples(workload: str, args, work: Path) -> tuple[list[dict], list[str]]:
    """Start samples until the time budget is spent; returns results and errors."""
    w = WORKLOADS[workload]
    start = time.perf_counter()
    longest = 0.0
    results: list[dict] = []
    errors: list[str] = []
    j = 0
    while True:
        elapsed = time.perf_counter() - start
        if j > 0 and (elapsed + longest > args.seconds or elapsed + 2 * longest > HARD_LIMIT_S):
            break
        # The first two samples solve the same block, in two processes, so
        # every run checks that repeats agree; later samples add fresh draws.
        block = max(0, j - 1)
        draws = range(block * w.block, (block + 1) * w.block)
        cmd = [
            sys.executable, "-m", "perfbench.sample",
            "--workload", workload,
            "--seed", str(args.seed),
            "--draws", ",".join(map(str, draws)),
            "--trace", str(args.trace),
            "--traced-first", str(j % 2),
            "--work", str(work),
        ]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - elapsed),
            )
        except subprocess.TimeoutExpired:
            errors.append(f"sample {j} timed out")
            results.append(_failed_sample(w, draws, args.trace, "timed out"))
            break
        longest = max(longest, time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            results.append(json.loads(lines[-1]))
        except (ValueError, IndexError) as exc:
            errors.append(f"sample {j} failed ({exc}): {proc.stderr.strip()[-2000:]}")
            results.append(_failed_sample(w, draws, args.trace, str(exc)))
        j += 1
    return results, errors


def _failed_sample(w, draws, trace: int, why: str) -> dict:
    ops = [
        {"method": m, "draw": d, "traced": False, "failures": [f"sample process {why}"]}
        for d in draws
        if not trace or len(w.methods_for(d)) > 1  # traced runs skip single-method draws
        for m in w.methods_for(d)
        for _ in range(1 + trace)
    ]
    return {"ops": ops, "passes": [], "emits": [], "rss_mb": None}


def cross_checks(ops: list[dict], emits: list[dict]) -> None:
    """Repeats of a draw, in any sample, must give identical outputs."""
    first: dict[tuple, dict] = {}
    for op in ops:
        if "digest" not in op:
            continue
        key = (op["draw"], op["method"])
        ref = first.setdefault(key, op)
        if op["digest"] != ref["digest"]:
            op["failures"].append(f"draw {op['draw']} {op['method']} differs from an earlier repeat")
    emitted: dict[int, str] = {}
    for e in emits:
        if emitted.setdefault(e["draw"], e["digest"]) != e["digest"]:
            same_draw = [op for op in ops if op["draw"] == e["draw"] and "digest" in op]
            if same_draw:
                same_draw[-1]["failures"].append(f"draw {e['draw']} emitted different files")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(workload: str, args) -> dict:
    """Measure one workload and print its report; returns the result object."""
    w = WORKLOADS[workload]
    load_before = os.getloadavg()[0]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        results, errors = run_samples(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    load_after = os.getloadavg()[0]

    ops = [op for r in results for op in r["ops"]]
    cross_checks(ops, [e for r in results for e in r["emits"]])
    passes = [p for r in results for p in r["passes"]]
    for p in passes:
        if abs(p["trace.unattributed_s"]) > UNATTRIBUTED_SHARE * p["trace.wall_s"]:
            errors.append(f"traced pass leaves {p['trace.unattributed_s']!r} s unattributed")
    failed = sum(1 for op in ops if op["failures"])
    good = [op for op in ops if not op["failures"]]
    plain = [op for op in good if not op["traced"]]

    ref = _median(op["ref_s"] for op in plain)
    raw, scaled = {}, {}
    for name, key, method in (
        ("setup_s", "setup_s", None),
        ("distributed_s", "wall_s", DISTRIBUTED),
        ("centralized_s", "wall_s", CENTRALIZED),
    ):
        chosen = [op for op in plain if method in (None, op["method"])]
        raw[name] = _median(op[key] for op in chosen)
        # Each operation is scaled by the kernel readings on either side of it.
        scaled[name] = _median(op[key] * REF_NOMINAL_S / op["ref_s"] for op in chosen)
    rss = _median(r["rss_mb"] for r in results)
    value = _median(op["value"] for op in plain if op["method"] == DISTRIBUTED)

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  samples {len(results)}")
    print(f"host: cpu {cpu_model()!r}  nproc {os.cpu_count()}  loadavg {load_before:.2f} -> {load_after:.2f}")
    print(f"host: reference kernel median {ref!r} s (nominal {REF_NOMINAL_S} s), "
          f"times {'scaled by it' if w.scaled else 'not scaled'}")
    for method in (DISTRIBUTED, CENTRALIZED):
        stops = Counter(op.get("stop", "failed") for op in ops if op["method"] == method)
        print(f"stop {method}: " + ", ".join(f"{n} x {why}" for why, n in sorted(stops.items())))
    gaps = [op["gap"] for op in plain if "gap" in op]
    if gaps:
        over = sum(1 for g in gaps if g > VALUE_GAP)
        print(f"value gap distributed vs centralized: max {max(gaps):.2%} over {len(gaps)} solves, "
              f"{over} above {VALUE_GAP:.0%} (a failure only on the default seed's inputs)")
    print(f"ops_attempted {len(ops)}  ops_failed {failed}")
    for op in ops:
        for f in op["failures"]:
            print(f"FAILED draw {op.get('draw')} {op['method']}: {f}")
    for e in errors:
        print(f"ERROR {e}")

    detail = {
        "raw": raw, "scaled": scaled, "ref_s": ref, "loadavg": [load_before, load_after],
        "counts": {m: sum(1 for op in plain if op["method"] == m) for m in (DISTRIBUTED, CENTRALIZED)},
        "ops": [[op["method"][0], op["draw"], op["wall_s"], op["ref_s"]] for op in plain],
    }
    if args.trace == 0:
        metrics = dict(scaled if w.scaled else raw)
        metrics["peak_rss_mb"] = rss
        metrics["value_s"] = value
        for name, v in metrics.items():
            raw_note = f"  (raw {raw[name]!r} s)" if w.scaled and name in raw else ""
            print(f"{name} {v!r} {END_TO_END_UNITS[name]}{raw_note}")
        out = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}
    else:
        out = layer_output(passes, ops, ref, raw, load_before, load_after)
        for name, m in out.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    print("detail " + json.dumps(detail))

    missing = [metric for metric, m in out.items() if m["value"] is None]
    if missing:
        print("ERROR no measurement for " + ", ".join(missing))
    return {
        "correct": failed == 0 and not errors and not missing,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: m for k, m in out.items() if m["value"] is not None},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covgame benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covgame" / "__init__.py").is_file():
        print(f"error: no covgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so the running sample is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:  # every workload in turn; metrics are named <workload>/<metric>
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_pct", "%"), ("_bytes", "B"),
                         ("_ratio", "ratio"), ("_per_scan", "ratio")):
        if name.endswith(suffix):
            return unit
    return "load" if name.startswith("host.loadavg") else "count"


def layer_output(passes, ops, ref, raw, load_before, load_after) -> dict:
    """Per-layer metrics of a traced run, plus host and overhead.

    Times are medians over the run's traced passes. Counts and ratios come
    from the pass of draw 0, which every run solves, so they repeat exactly
    for a given seed.
    """
    out = {}
    first = min(passes, key=lambda p: p["draw"], default={})
    for name in first:
        if name == "draw":
            continue
        unit = layer_unit(name)
        value = _median(p[name] for p in passes) if unit == "s" else first[name]
        out[name] = {"value": value, "unit": unit}
    traced = _median(op["wall_s"] for op in ops
                     if op["traced"] and op["method"] == DISTRIBUTED and not op["failures"])
    plain = raw["distributed_s"]
    overhead = None if not (traced and plain) else (traced - plain) / plain * 100.0
    host = {
        "trace.overhead_pct": overhead,
        "host.ref_s": ref,
        **{f"host.raw_{name}": v for name, v in raw.items()},
        "host.loadavg_before": load_before,
        "host.loadavg_after": load_after,
    }
    for name, v in host.items():
        out[name] = {"value": v, "unit": layer_unit(name)}
    return out


if __name__ == "__main__":
    raise SystemExit(main())
