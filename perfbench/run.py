"""replaykit benchmark: one workload, measured for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-em --seed 1 --seconds 40 --trace 0

Each iteration is a fresh interpreter (perfbench/worker.py) with the
checkout's `src` on its path and one BLAS thread. Iterations repeat until
the next one would end past --seconds, and at least twice (unless that
would pass the three-minute limit), so that every run also checks that one
seed writes byte-identical outputs. Timings are medians over the
iterations, each scaled to a reference machine speed by the probe job of
speed.py, which the worker interleaves with the measured code.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 one more iteration runs with the layer
wrappers of tracing.py installed, and the JSON carries the per-layer
metrics instead. The lines above it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = Path(".perfbench_work")
BLAS_THREADS = 1
# No untraced iteration may end after DEADLINE_S, which leaves room for
# the traced one; no process may outlive LIMIT_S, under three minutes.
DEADLINE_S = 120.0
LIMIT_S = 170.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_iteration(workload: str, seed: int, work_dir: Path,
                  spans: Path | None = None,
                  timeout: float = LIMIT_S) -> dict:
    """One worker process; returns its result, or one with a failure."""
    out_dir = work_dir / "out"
    result_path = work_dir / "result.json"
    work_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out-dir", str(out_dir),
            "--result", str(result_path)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
        error = (None if proc.returncode == 0 and result_path.is_file()
                 else f"worker exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}")
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - start
    if error is None:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        result = {"attempted": 1, "failures": [error]}
    shutil.rmtree(work_dir)
    result["process_s"] = elapsed
    return result


def _flat(group: dict) -> dict:
    """{leg: {utt: score}} becomes {"leg/utt": score}; flat groups stay."""
    out = {}
    for key, value in group.items():
        if isinstance(value, dict):
            out.update({f"{key}/{sub}": v for sub, v in value.items()})
        else:
            out[key] = value
    return out


def compare_reference(outputs: dict, reference: dict) -> list[tuple[bool, str]]:
    """One check per output group against the stored reference."""
    checks = []
    for group, rtol, atol in (("dispersions", W.SCORE_RTOL, W.SCORE_ATOL),
                              ("eers", 0.0, W.EER_ATOL),
                              ("scores", W.SCORE_RTOL, W.SCORE_ATOL)):
        got, want = _flat(outputs[group]), _flat(reference[group])
        bad = sorted(k for k in got.keys() | want.keys()
                     if k not in got or k not in want
                     or not math.isclose(got[k], want[k], rel_tol=rtol,
                                         abs_tol=atol))
        checks.append((not bad, f"{group} differ from the reference at "
                                f"{bad[:5]} ({len(bad)} in all)"))
    return checks


def _describe(values: list[float]) -> str:
    return f"median of {len(values)}: " + " ".join(f"{v:.4f}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/replaykit/__init__.py", "tests/oracles.py")
               if not Path(p).is_file()]
    if missing:
        print(f"error: run from the root of a replaykit checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    run_dir = WORK_ROOT / f"run-{os.getpid()}"
    spans_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    iterations: list[dict] = []
    traced = None
    start = time.perf_counter()

    def remaining() -> float:
        return max(1.0, LIMIT_S - (time.perf_counter() - start))

    try:
        while True:
            iterations.append(run_iteration(
                args.workload, args.seed, run_dir / f"iter-{len(iterations)}",
                timeout=remaining()))
            elapsed = time.perf_counter() - start
            next_end = elapsed + iterations[-1]["process_s"]
            if next_end > DEADLINE_S or (len(iterations) >= 2
                                         and next_end > args.seconds):
                break
        if args.trace:
            traced = run_iteration(args.workload, args.seed,
                                   run_dir / "traced", spans=spans_path,
                                   timeout=remaining())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Operations: the worker's own, then the checks made here.
    everything = iterations + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything)
    failures = [f for r in everything for f in r["failures"]]
    complete = [r for r in everything if "digest" in r]
    digests = {r["digest"] for r in complete}
    attempted += 1
    if len(digests) != 1 or len(complete) < len(everything):
        failures.append(f"outputs of seed {args.seed} differ between "
                        f"iterations or an iteration failed")
    if args.seed == W.REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        expected = reference["workloads"].get(args.workload)
        attempted += 1
        if expected is None:
            failures.append(f"no reference stored for {args.workload}")
        for r in complete if expected else []:
            for ok, what in compare_reference(r["outputs"], expected):
                attempted += 1
                if not ok:
                    failures.append(what)

    for failure in failures:
        print(f"FAILED: {failure}")
    correct = not failures
    timed = [r for r in iterations if "wall_s" in r]
    if not timed:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 0

    eers = list(timed[0]["outputs"]["eers"].values())
    eer_mean = sum(eers) / len(eers) if eers else 1.0
    walls = [r["wall_s"] for r in timed]
    setups = [r["setup_s"] for r in timed]
    raw_walls = [r["raw_wall_s"] for r in timed]
    raw_setups = [r["raw_setup_s"] for r in timed]
    rss = [r["peak_rss_mb"] for r in timed]
    env = dict(timed[0]["env"], iterations=len(timed))
    print(f"workload {args.workload}, seed {args.seed}: {len(timed)} "
          f"iterations, each a fresh process")
    print("env " + json.dumps(env, sort_keys=True))
    print("wall_s and setup_s are scaled to the speed probe's reference "
          "speed (speed.py); raw_ lines are as timed")
    print(f"wall_s        {statistics.median(walls):.4f} s   ({_describe(walls)})")
    print(f"setup_s       {statistics.median(setups):.4f} s   ({_describe(setups)})")
    print(f"raw_wall_s    {statistics.median(raw_walls):.4f} s   "
          f"({_describe(raw_walls)})")
    print(f"raw_setup_s   {statistics.median(raw_setups):.4f} s   "
          f"({_describe(raw_setups)})")
    print(f"peak_rss_mb   {statistics.median(rss):.1f} MB  ({_describe(rss)})")
    print(f"failed_share  {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} operations)")
    print(f"eer_mean      {eer_mean:.6f} (over {len(eers)} detection legs)")

    if traced is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "ok_share": (1.0 - len(failures) / attempted, "share"),
            "one_minus_eer_mean": (1.0 - eer_mean, "share"),
        }
    else:
        layers = dict(traced.get("layers") or
                      dict.fromkeys(tracing.LAYER_METRICS, 0.0))
        layers["trace.overhead_s"] = \
            layers["trace.wall_s"] - statistics.median(raw_walls)
        metrics = {k: (layers[k], unit)
                   for k, unit in tracing.LAYER_METRICS.items()}
        print(f"spans written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
