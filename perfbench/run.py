"""The repo's benchmark: host time to produce the simulator's counters.

    python3 perfbench/run.py --workload sweep-cache --seed 1 --seconds 20 \
        --trace 0

Runs repetitions of one workload (each in a fresh process, see
``worker.py``) for about ``--seconds`` seconds, checks every output
against ``reference.json``, and prints one JSON object as the last
stdout line.  ``--trace 0`` reports the end-to-end metrics (medians over
the repetitions); ``--trace 1`` runs one bare and one traced repetition
plus the harness self-test and reports the per-layer metrics.  A human
summary goes to stderr.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: set-up samples per run (repetitions plus set-up-only processes); the
#: run reports the fastest, because host noise only ever adds time.
SETUP_SAMPLES = 10
#: a run that has not finished this long after it started fails.
RUN_DEADLINE_S = 170
DEADLINE = time.monotonic() + RUN_DEADLINE_S


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spawn(cmd: list[str]) -> dict:
    """Run one child to completion (killed at the run's deadline); its
    last stdout line is JSON."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=DEADLINE - time.monotonic())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} still running at the "
                           f"{RUN_DEADLINE_S}s run deadline")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["_returncode"] = proc.returncode
    return result


def run_rep(args, work: Path, tag: str, *, setup_only: bool = False,
            trace: bool = False) -> dict:
    rep_dir = work / tag
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(rep_dir)]
    if setup_only:
        cmd.append("--setup-only")
    spans = rep_dir / "spans.json"
    if trace:
        cmd += ["--trace", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        rep = spawn(cmd)
        if trace:
            rep["spans"] = json.loads(spans.read_text())
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def setup_samples(args, work: Path, n: int) -> list[float]:
    """At least *n* set-up times from set-up-only processes."""
    setups: list[float] = []
    while len(setups) < n:
        setups += run_rep(args, work, f"setup{len(setups)}",
                          setup_only=True)["setup_s"]
    return setups


def end_to_end(args, work: Path) -> tuple[dict, list[dict], dict]:
    # set-up samples before and after the timed work, so that their
    # fastest does not hang on one burst of contention.
    setups = setup_samples(args, work, SETUP_SAMPLES // 2)
    reps: list[dict] = []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(run_rep(args, work, f"rep{len(reps)}"))
        last = time.monotonic() - t0
        if time.monotonic() - t_start + last > args.seconds:
            break
    setups += [r["setup_s"] for r in reps]
    setups += setup_samples(args, work, SETUP_SAMPLES - len(setups))
    hits = [h for r in reps for h in r["hits"]]
    misses = [m for r in reps for m in r["misses"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "setup_s": min(setups),
        "wall_s": median([r["wall_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "ok_rate": (attempted - failed) / attempted if attempted else 0.0,
        "paper_speedup_err": median([r["paper_speedup_err"] for r in reps
                                     if r["paper_speedup_err"] is not None]),
        "hit_s": median([r["hit_s"] for r in reps]),
        "miss_s": median([r["miss_s"] for r in reps]),
    }
    summary = {"reps": len(reps), "setup_samples": len(setups),
               "hit_samples": len(hits), "miss_samples": len(misses),
               "calib_s": [round(r["calib_s"], 4) for r in reps],
               "wall_s": [round(r["wall_s"], 4) for r in reps],
               "wall_raw_s": [round(r["wall_raw_s"], 4) for r in reps],
               "speed_scale": [round(r["speed_scale"], 4) for r in reps]}
    return metrics, reps, summary


def per_layer(args, work: Path) -> tuple[dict, list[dict], dict]:
    import layers

    bare = run_rep(args, work, "bare")
    traced = run_rep(args, work, "traced", trace=True)
    selftest = spawn([sys.executable, str(HERE / "selftest.py"),
                      "--work-dir", str(work / "selftest")])
    snaps = [traced["spans"]]
    if "server_spans" in traced:
        snaps.append(traced["server_spans"])
    snap = layers.merge(*snaps)
    # self times in the same speed-scaled seconds as wall_s.
    scale = traced["speed_scale"]
    values = {name: value * scale if UNITS[name] == "s" else value
              for name, value in layers.layer_metrics(snap).items()}

    counts = traced.get("autotune", {})
    enumerated = counts.get("enumerated", 0)
    values.update({
        "autotune.candidates": enumerated,
        "autotune.pruned": counts.get("pruned", 0),
        "autotune.invalid": counts.get("invalid", 0),
        "autotune.timed": counts.get("timed", 0),
        "autotune.prune_ratio": (counts.get("pruned", 0) / enumerated
                                 if enumerated else 0.0),
        "service.queue_wait_s": traced.get("queue_wait_s", 0.0),
        "service.job_hit_samples": (len(traced["hits"])
                                    if args.workload == "service" else 0),
        "service.job_miss_samples": (len(traced["misses"])
                                     if args.workload == "service" else 0),
    })
    wall = traced["wall_s"]
    # the client layers wait on the server's work, so they are left out
    # of the attributed share.  A service's wall time is the server's
    # job time; its submit and fetch requests do their work (journal,
    # store reads) outside jobs, so their client-side time joins it.
    attributed = sum(v for k, v in snap["self_s"].items()
                     if k not in layers.CLIENT_LAYERS)
    span = traced["wall_raw_s"] + sum(
        snap["self_s"].get(k, 0.0)
        for k in ("service.client.submit", "service.client.fetch"))
    values.update({
        "harness.trace_overhead_frac": wall / bare["wall_s"] - 1.0,
        "harness.unattributed_frac": 1.0 - attributed / span,
        "harness.wall_raw_s": traced["wall_raw_s"],
        "harness.speed_scale": scale,
        "harness.lateness_max_s": traced.get("lateness_max_s", 0.0),
        "harness.calib_s": median([bare["calib_s"], traced["calib_s"]]),
    })
    selftest_rep = {"attempted": len(selftest["checks"]),
                    "failed": sum(not ok for ok in selftest["checks"].values()),
                    "errors": [k for k, ok in selftest["checks"].items()
                               if not ok]}
    summary = {"self_test": selftest["checks"],
               "traced_wall_s": round(wall, 4),
               "bare_wall_s": round(bare["wall_s"], 4),
               "uncalled_wrappers": selftest["uncalled"]}
    return values, [bare, traced, selftest_rep], summary


#: every metric's unit, as BENCHMARK.json declares it.
UNITS = {m["name"]: m["unit"]
         for doc in [json.loads((ROOT / "BENCHMARK.json").read_text())]
         for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, reps, summary = per_layer(args, work)
        else:
            metrics, reps, summary = end_to_end(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r.get("errors", [])]
    crashed = [r["_returncode"] for r in reps
               if r.get("_returncode", 0) != 0]
    summary.update({"workload": args.workload, "seed": args.seed,
                    "errors": errors[:10], "nonzero_exits": crashed})
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
