"""Self-test of the trace harness, on the tiny mesh.

Runs one small pass over every layer (a sweep with the cache on and
off, an assemble+solve config, a warm recall, a digest ladder through
the autotuner's own bindings, and two jobs through an in-process sweep
service on a unix socket) twice: once bare, once with the layer
wrappers installed.  It checks that

* counters and digests are the same with and without the wrappers;
* per-layer self times are non-negative, and each thread's self times
  sum to no more than the traced wall time;
* every wrapper was called, i.e. it patched the name the caller
  resolves.

Prints a JSON verdict as its last line; exits 1 when a check fails.

    python3 perfbench/selftest.py --work-dir .perfbench_work/selftest
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from worker import clear_memos, digest_of  # noqa: E402


def tiny_plan() -> list:
    from repro.experiments.config import TINY_MESH, RunConfig

    return [RunConfig(opt="scalar", vector_size=16, mesh_dims=TINY_MESH),
            RunConfig(opt="vanilla", vector_size=64, mesh_dims=TINY_MESH),
            RunConfig(opt="vec1", vector_size=64, mesh_dims=TINY_MESH),
            RunConfig(opt="vec1", vector_size=64, mesh_dims=TINY_MESH,
                      cache_enabled=False),
            RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY_MESH,
                      solve=True)]


def service_pass(state_dir: Path) -> dict:
    """Two identical jobs through a sweep service on a unix socket: the
    first simulates and writes, the second is served from the store."""
    from repro.experiments.config import TINY_MESH, RunConfig
    from repro.experiments.executor import payload_digest
    from repro.service import ServiceClient, SweepServer, SweepService

    configs = [RunConfig(opt="vanilla", vector_size=16, mesh_dims=TINY_MESH),
               RunConfig(opt="vec1", vector_size=16, mesh_dims=TINY_MESH)]
    state_dir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(state_dir)  # keeps the unix socket path short
    server = SweepServer(SweepService("state", jobs=1), "svc.sock")
    server.start()
    try:
        client = ServiceClient("svc.sock")
        out = {}
        for round_ in range(2):
            job_id = client.submit(configs, tenant="selftest")["job_id"]
            client.wait(job_id, poll_s=0.01)
            for key, payload in client.fetch(job_id)["results"].items():
                out[f"{round_}:{key}"] = payload_digest(payload)
        client.metrics()
    finally:
        server.close()
        os.chdir(cwd)
    return out


def one_pass(work: Path) -> dict:
    from repro.autotune import tuner
    from repro.experiments.executor import execute_plan
    from repro.validation.digests import (
        phase_output_digests,
        solver_phase_digests,
    )
    from repro.validation.probe import Probe

    clear_memos()
    plan = tiny_plan()
    cold = execute_plan(plan, cache_dir=work / "cache")
    warm = execute_plan(plan, cache_dir=work / "cache")
    probe = Probe(opt="vec1")
    return {
        "cold": {k: digest_of(r) for k, r in sorted(cold.runs.items())},
        "warm_hits": warm.stats.cache_hits,
        "phase_digests": {str(k): v for k, v in
                          phase_output_digests(probe).items()},
        "solver_digests": {str(k): v for k, v in
                           solver_phase_digests(probe).items()},
        "schedule_valid": tuner.validate_schedule(("loop-fission",),
                                                  vector_size=8),
        "service": service_pass(work / "service"),
    }


def run_selftest(work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bare = one_pass(work / "bare")
        recorder = layers.SpanRecorder()
        installed = layers.install(recorder)
        t0 = time.perf_counter()
        try:
            traced = one_pass(work / "traced")
        finally:
            wall_s = time.perf_counter() - t0
            installed.remove()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    snap = recorder.snapshot()
    negative = sorted(k for k, v in snap["self_s"].items() if v < 0)
    uncalled = sorted(p for p, n in snap["calls"].items() if n == 0)
    over = [s for s in snap["thread_self_s"] if s > wall_s]
    checks = {
        "same_outputs": bare == traced,
        "complete_pass": (traced["warm_hits"] == len(tiny_plan())
                          and traced["schedule_valid"]
                          and len(traced["service"]) == 4),
        "self_times_non_negative": not negative,
        "self_times_within_wall": not over,
        "every_wrapper_called": not uncalled,
    }
    return {"ok": all(checks.values()), "checks": checks,
            "negative": negative, "uncalled": uncalled,
            "wall_s": wall_s, "thread_self_s": snap["thread_self_s"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)
    verdict = run_selftest(Path(args.work_dir).resolve())
    print(json.dumps(verdict))
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
