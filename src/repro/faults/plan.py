"""Seeded fault plans: *what* to break, *where*, reproducibly.

A chaos campaign is only useful if a failure it surfaces can be replayed
bit-for-bit, so every fault the harness injects is described by a
:class:`FaultSpec` and the set of specs for a campaign is derived from a
single integer seed via :meth:`FaultPlan.generate`.  The same seed over
the same plan yields the same faults, the same strike points, and — with
the executor's deterministic backoff jitter — the same recovery
schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

#: fault kinds understood by :class:`repro.faults.injector.FaultyWorker`.
WORKER_FAULT_KINDS: tuple[str, ...] = (
    "crash",             # worker raises mid-run
    "kill",              # worker process dies hard (os._exit -> broken pool)
    "hang",              # worker stalls past the sweep's timeout_s
    "nan_counter",       # payload counter poisoned with NaN
    "negative_counter",  # payload counter sign-flipped
    "flop_drift",        # payload FLOPs silently scaled (ladder-only bug)
    "torn_cache",        # a result-store link truncated mid-sweep
)

#: pass-layer fault kinds ("mis-legalized vectorization"): each models a
#: transformation-pass bug — the pass applies despite a blocker its
#: legality analysis should have caught — injected either through
#: ``golden_check(mutate=...)`` (the drill) or through a
#: :class:`repro.faults.injector.PassFaultyWorker` sweep (the campaign).
#: Every kind listed here must have an injector in
#: :data:`repro.faults.injector.PASS_FAULT_MUTATORS`; resolving a
#: stubbed kind raises instead of being skipped.
PASS_FAULT_KINDS: tuple[str, ...] = (
    "mislegalized_trip_count",   # promoted loop bound off by one
    "mislegalized_interchange",  # interchange despite the T2 guard blocker
    "mislegalized_fission",      # fission across the T4 order dependence
)

#: the optimization rung whose pipeline each pass-fault kind tampers
#: with: the rung where the mis-legalized pass is the *newest* member,
#: so the fault models that rung's own transformation going wrong.
PASS_FAULT_RUNGS: dict[str, str] = {
    "mislegalized_trip_count": "vec2",
    "mislegalized_interchange": "ivec2",
    "mislegalized_fission": "vec1",
}

#: solver-path fault kinds: each models the Krylov half of the timed
#: cycle (phases 9-12) going wrong in a way per-run counter invariants
#: cannot see.  ``nonconverging_krylov`` zeroes a seeded row of the
#: shifted operator (a singular, inconsistent system — the solver must
#: stall and *report* it, with breakdown guards keeping the residual
#: history finite); ``torn_spmv_gather`` re-points one seeded populated
#: slot of the ELL gather table at the wrong column (FLOP-conserving,
#: so only the solver phase-output digests can pin it).  Every kind
#: listed here must have an injector in
#: :data:`repro.faults.injector.SOLVER_FAULT_INJECTORS`; resolving a
#: stubbed kind raises instead of being skipped.
SOLVER_FAULT_KINDS: tuple[str, ...] = (
    "nonconverging_krylov",
    "torn_spmv_gather",
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``kind``
        one of :data:`WORKER_FAULT_KINDS` (worker faults) or a drill
        name used by the chaos campaign (``golden_nan`` etc.).
    ``target_key``
        the :meth:`RunConfig.key` the fault strikes on (empty string:
        the first run the worker sees).
    ``victim_key``
        for ``torn_cache``: the *other* config whose store link is
        truncated when the fault strikes.
    """

    kind: str
    target_key: str = ""
    victim_key: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target_key": self.target_key,
                "victim_key": self.victim_key}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults for one chaos campaign."""

    seed: int
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def generate(cls, seed: int, keys: Sequence[str],
                 kinds: Sequence[str] = WORKER_FAULT_KINDS) -> "FaultPlan":
        """Pick one deterministic strike target per fault kind.

        Targets are drawn with :class:`random.Random(seed)` so the plan
        is a pure function of ``(seed, keys, kinds)``.  ``torn_cache``
        always strikes on the *last* key (so earlier entries exist on
        disk to tear) and tears a seeded victim among the others.
        """
        rng = random.Random(seed)
        keys = list(keys)
        if not keys:
            raise ValueError("cannot generate a fault plan for an empty sweep")
        specs: list[FaultSpec] = []
        for kind in kinds:
            if kind == "torn_cache":
                victim = rng.choice(keys[:-1]) if len(keys) > 1 else keys[0]
                specs.append(FaultSpec(kind=kind, target_key=keys[-1],
                                       victim_key=victim))
            else:
                specs.append(FaultSpec(kind=kind, target_key=rng.choice(keys)))
        return cls(seed=seed, specs=tuple(specs))

    @classmethod
    def generate_pass_faults(cls, seed: int, configs) -> "FaultPlan":
        """One deterministic strike target per pass-fault kind.

        Each kind strikes a seeded config of its rung (see
        :data:`PASS_FAULT_RUNGS`): the fault models *that rung's* newest
        transformation mis-legalizing, so the target must actually run
        the tampered pass.  Pure function of ``(seed, configs)``.
        """
        rng = random.Random(seed)
        configs = list(configs)
        if not configs:
            raise ValueError("cannot generate a fault plan for an empty sweep")
        specs: list[FaultSpec] = []
        for kind in PASS_FAULT_KINDS:
            rung = PASS_FAULT_RUNGS[kind]
            candidates = [cfg.key() for cfg in configs if cfg.opt == rung]
            if not candidates:
                raise ValueError(
                    f"pass fault {kind!r} targets rung {rung!r} but the "
                    f"sweep has no such config")
            specs.append(FaultSpec(kind=kind, target_key=rng.choice(candidates)))
        return cls(seed=seed, specs=tuple(specs))

    def spec_for(self, kind: str) -> FaultSpec:
        for spec in self.specs:
            if spec.kind == kind:
                return spec
        raise KeyError(f"fault plan has no {kind!r} spec")

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "specs": [s.to_dict() for s in self.specs]}
