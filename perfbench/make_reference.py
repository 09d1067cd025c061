"""Regenerate ``reference.json``: the counter digest of every config a
benchmark run checks, for both field seeds the seed argument can pick.

Each run compares its outputs with these digests, so a faster program
must give the same counters.  Regenerate only when a change is meant to
alter counters (a ``MODEL_VERSION`` bump), and say so in the change.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = (0, 1)  # one seed per field seed (workloads.field_seed_for)


def digests(configs, cache_dir: Path) -> dict[str, str]:
    from repro.experiments.executor import execute_plan, payload_digest
    from repro.metrics.counters import counters_to_dict

    result = execute_plan(configs, cache_dir=cache_dir)
    if result.failed:
        raise SystemExit(f"configs failed: {result.failed}")
    return {key: payload_digest(counters_to_dict(run))
            for key, run in sorted(result.runs.items())}


def main() -> int:
    from repro.autotune.tuner import candidate_config, run_autotune

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    try:
        ref: dict[str, dict[str, str]] = {}
        for name in ("sweep-cache", "sweep-nocache", "service"):
            ref[name] = {}
            for seed in SEEDS:
                ref[name].update(digests(
                    workloads.reference_configs(name, seed), tmp / name))
        at = workloads.AUTOTUNE
        report = run_autotune(at["mesh_dims"], machine=at["machine"],
                              vector_size=at["vector_size"],
                              profile=at["profile"], seed=at["seed"],
                              cache_dir=tmp / "autotune")
        timed = [candidate_config(c.schedule, machine=at["machine"],
                                  vector_size=at["vector_size"],
                                  mesh_dims=at["mesh_dims"], seed=at["seed"],
                                  backend=report.backend)
                 for c in report.candidates if c.status == "timed"]
        ref["autotune"] = digests(timed, tmp / "autotune")
        for seed in SEEDS:
            ref["autotune"].update(digests(
                workloads.reference_configs("autotune", seed),
                tmp / "autotune"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print({name: len(v) for name, v in ref.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
