"""The benchmark's four workloads, generated from a seed.

The seed picks the config order, the field seed and the service traffic
draw; it never changes which configs a sweep contains, so every run of a
workload does the same fixed work.  ``repro`` must be importable before
anything here is called (``run.py`` and ``worker.py`` put the
checkout's ``src`` on ``sys.path``).
"""

from __future__ import annotations

import dataclasses
import random

WORKLOADS = ("sweep-cache", "sweep-nocache", "autotune", "service")

#: the paper's headline ratio: scalar@16 cycles over vec1@240 cycles on
#: the RISC-V prototype (Section 5, 7.6x).
PAPER_SPEEDUP = 7.6

#: VECTOR_SIZEs of the sweep-cache ladder: a short vector and the
#: paper's peak (the full {16, 64, 240, 256} ladder takes ~25 s a run,
#: more than the benchmark's time budget allows).
SWEEP_CACHE_VS = (64, 240)

#: the CI autotune configuration (tests/fixtures/autotune_winners.json).
AUTOTUNE = {"mesh_dims": (4, 4, 4), "machine": "riscv_vec",
            "vector_size": 240, "profile": "smoke", "seed": 0}

#: service traffic, after the README's "Sweep service" example: one
#: tenant submits the tiny-mesh optimization ladder (``repro submit
#: --mesh tiny --ladder``, 9 configs) and simulates it; other tenants
#: resubmit the same ladder and are served from the store.  Here each
#: ladder is first submitted by one of four tenants, and each of the
#: other three resubmits it ``SERVICE_RESUBMITS`` times, so 1 job in 13
#: is a miss.  The number of resubmissions is the benchmark's choice,
#: not the documented use's: a hit is a ~4 ms job whose time spreads
#: 2x from job to job, and 48 of them a run give a steady estimate.
SERVICE_TENANTS = ("t0", "t1", "t2", "t3")
#: ``ExecutionPlan.ladder`` VECTOR_SIZE pairs, one ladder each: the
#: paper's short and peak VS (its scalar@16 and vec1@240 are the paper's
#: speed-up pair) and three others.  No two ladders share a config and
#: their counters all differ, so every first submission simulates and
#: writes new store objects.  Each simulates cold in 1.3-2.4 s on a
#: 2-vCPU Xeon cloud VM (up to ~3.4 s when other tenants of the host
#: slow it down).
SERVICE_LADDER_VS = ((16, 240), (24, 96), (32, 128), (80, 160))
#: one round per ladder: the first submission is due at the round's
#: start, the resubmissions from ``SERVICE_RESUBMIT_AT_S`` on, the three
#: tenants taking turns and each tenant's ``SERVICE_TENANT_GAP_S``
#: apart.  The resubmissions come after the ladder has had time to
#: finish (on a busy host too), so a hit does not wait behind a miss.
#: A tenant sends at most 5 jobs a round (0.83 jobs/s) and never more
#: than 3 within a second; all tenants together send 13 jobs a round
#: (2.2 jobs/s).  That stays inside the default admission token buckets
#: (per tenant 2 jobs/s sustained with a burst of 8; global 8 jobs/s with
#: a burst of 32), so no job is refused for its rate.
SERVICE_ROUND_S = 6.0
SERVICE_RESUBMIT_AT_S = 3.8
SERVICE_RESUBMITS = 4
SERVICE_TENANT_GAP_S = 0.54


def field_seed_for(seed: int) -> int:
    return seed % 2


def _shuffled(items: list, seed: int, salt: str) -> list:
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def paper_pair(mesh_dims, field_seed: int, cache_enabled: bool = True):
    """(scalar@16, vec1@240) on riscv_vec: the two runs of the paper's
    headline speed-up."""
    from repro.experiments.config import RunConfig

    return (RunConfig(opt="scalar", vector_size=16, mesh_dims=mesh_dims,
                      field_seed=field_seed, cache_enabled=cache_enabled),
            RunConfig(opt="vec1", vector_size=240, mesh_dims=mesh_dims,
                      field_seed=field_seed, cache_enabled=cache_enabled))


def sweep_configs(workload: str, seed: int) -> list:
    """The configs of a sweep workload, in the seed's order."""
    from repro.experiments.config import QUICK_MESH, RunConfig
    from repro.experiments.executor import ExecutionPlan

    fs = field_seed_for(seed)
    if workload == "sweep-cache":
        configs = [RunConfig(opt="scalar", vector_size=16,
                             mesh_dims=QUICK_MESH, field_seed=fs)]
        configs += [RunConfig(opt=opt, vector_size=vs, mesh_dims=QUICK_MESH,
                              field_seed=fs)
                    for opt in ("vanilla", "vec2", "ivec2", "vec1")
                    for vs in SWEEP_CACHE_VS]
    elif workload == "sweep-nocache":
        configs = [dataclasses.replace(cfg, cache_enabled=False,
                                       field_seed=fs)
                   for cfg in ExecutionPlan.standard(QUICK_MESH)]
    else:
        raise ValueError(f"not a sweep workload: {workload}")
    return _shuffled(configs, seed, workload)


def service_ladder(vector_sizes, field_seed: int) -> tuple:
    from repro.experiments.config import TINY_MESH
    from repro.experiments.executor import ExecutionPlan

    return tuple(dataclasses.replace(cfg, field_seed=field_seed)
                 for cfg in ExecutionPlan.ladder(mesh=TINY_MESH,
                                                 vector_sizes=vector_sizes))


@dataclasses.dataclass(frozen=True)
class Submission:
    due_s: float          # offset from the start of the traffic window
    tenant: str
    configs: tuple        # RunConfig tuple
    new: bool             # the ladder's first submission (simulates)


def service_traffic(seed: int) -> list[Submission]:
    """The open-loop schedule: due times fixed in advance (they do not
    depend on when jobs finish), one round per ladder.

    The seed picks the ladder order and, in each round, which tenant
    submits first and the order of the others.  Every run simulates the
    same four ladders and serves the same 48 resubmissions.
    """
    rng = random.Random(f"service:{seed}")
    fs = field_seed_for(seed)
    ladders = _shuffled(list(SERVICE_LADDER_VS), seed, "service-ladders")
    out: list[Submission] = []
    for r, vs in enumerate(ladders):
        configs = service_ladder(vs, fs)
        tenants = list(SERVICE_TENANTS)
        rng.shuffle(tenants)
        start = r * SERVICE_ROUND_S
        out.append(Submission(start, tenants[0], configs, True))
        others = tenants[1:]
        out += [Submission(start + SERVICE_RESUBMIT_AT_S
                           + k * SERVICE_TENANT_GAP_S / len(others),
                           others[k % len(others)], configs, False)
                for k in range(SERVICE_RESUBMITS * len(others))]
    return out


def reference_configs(workload: str, seed: int) -> list:
    """Every config whose counter digest a run of *workload* checks."""
    from repro.experiments.config import TINY_MESH

    if workload in ("sweep-cache", "sweep-nocache"):
        return sweep_configs(workload, seed)
    if workload == "service":
        return [cfg for vs in SERVICE_LADDER_VS
                for cfg in service_ladder(vs, field_seed_for(seed))]
    if workload == "autotune":
        return list(paper_pair(TINY_MESH, field_seed_for(seed)))
    raise ValueError(f"unknown workload {workload!r}")
