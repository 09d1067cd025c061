"""Fault injectors: low-level corruption primitives + faulty workers.

Two layers live here:

* **primitives** that corrupt in-memory state directly —
  :func:`flip_float64_bit`, :func:`inject_vreg_nan`,
  :func:`inject_cache_miss_drift` — used by the chaos drills to prove
  :meth:`VectorEmulator.validate_state` and the cache invariants catch
  poisoned lanes and impossible accounting;
* **workers** — :class:`FaultyWorker`, :class:`InterruptingWorker` —
  drop-in replacements for ``simulate_to_dict`` handed to
  ``execute_plan(worker=...)``.  ``FaultyWorker`` is picklable (it must
  cross a ``ProcessPoolExecutor`` boundary) and strikes **once** per
  spec: strike claims go through an ``O_CREAT | O_EXCL`` marker file so
  exactly one process wins even when the sweep fans out, and every retry
  after the strike computes honestly — which is precisely what lets the
  chaos harness distinguish *recovered* from *silently absorbed*.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.experiments.config import RunConfig
from repro.experiments.executor import simulate_to_dict
from repro.faults.plan import FaultPlan, FaultSpec

#: exit status used by the ``kill`` fault (mirrors a SIGKILLed worker
#: from the pool's point of view: the process vanishes without a result).
KILL_EXIT_STATUS = 13


# ---------------------------------------------------------------------------
# Corruption primitives
# ---------------------------------------------------------------------------


def flip_float64_bit(arr: np.ndarray, index: int, bit: int) -> None:
    """Flip one bit of one float64 element in place.

    ``bit`` 62 (top exponent bit) turns a normal value into a huge or
    tiny one; flipping exponent bits 52..62 all at once yields NaN/Inf.
    This is the classic single-event-upset model for memory faults.
    """
    if not 0 <= bit < 64:
        raise ValueError(f"bit must be in [0, 64), got {bit}")
    flat = arr.reshape(-1).view(np.uint64)
    flat[index] ^= np.uint64(1) << np.uint64(bit)


def inject_vreg_nan(emu, reg: int, lane: int) -> None:
    """NaN-poison one lane of one vector register of a
    :class:`~repro.isa.emulator.VectorEmulator`."""
    emu.vregs[reg, lane] = np.nan


def inject_cache_miss_drift(cache, delta: int) -> None:
    """Perturb a cache level's miss count by ``delta`` (models broken
    accounting: e.g. ``+accesses`` makes misses exceed accesses)."""
    cache.misses += delta


def claim_strike(marker_dir: str | os.PathLike, kind: str) -> bool:
    """Atomically claim one strike of fault *kind*; exactly one caller
    wins per marker directory (``O_CREAT | O_EXCL``), even when workers
    fan out across processes.  Losers pass through and compute honestly."""
    Path(marker_dir).mkdir(parents=True, exist_ok=True)
    marker = Path(marker_dir) / f"{kind}.struck"
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


def mislegalize_trip_count(kernels: list, delta: int = -1) -> list:
    """Tamper with pass-promoted trip counts (a mis-legalized
    transformation).

    Models a :class:`~repro.compiler.transforms.ConstantTripCount` bug:
    the promoted compile-time bound is off by ``delta``, so every loop
    the pass legalized runs the wrong number of iterations (``-1``:
    the last chunk element is never gathered).  Handed to
    ``golden_check(mutate=...)``, which must *detect* the semantic
    change and pin it to the first phase that consumes the bound.
    """
    from repro.compiler.ir import Extent
    from repro.compiler.transforms.base import rewrite_loops
    from repro.compiler.transforms.passes import PROMOTED_NAME

    def tamper(loop):
        if loop.extent.kind == "param" and loop.extent.name == PROMOTED_NAME:
            ext = Extent(max(loop.extent.value + delta, 1), "param",
                         PROMOTED_NAME)
            return (replace(loop, extent=ext,
                            body=rewrite_loops(loop.body, tamper)),)
        return None

    return [replace(k, body=rewrite_loops(k.body, tamper)) for k in kernels]


def mislegalize_interchange(kernels: list) -> list:
    """Apply :class:`~repro.compiler.transforms.LoopInterchange` with its
    legality precondition disabled (a mis-legalized transformation).

    Models an interchange pass whose legality analysis is broken: the
    T2 control-flow blocker is ignored, so kernels that mix the vec-var
    loop with data-dependent guards (the phase-8 valid-element check)
    are interchanged anyway.  Sinking the vec loop below a guard hoists
    the guard out of the per-element context; the buggy compiler
    "proves" it loop-invariant and evaluates it once, for lane 0 — so a
    chunk whose first element is valid scatters *every* lane, padding
    included.  Handed to ``golden_check(mutate=...)`` on the ``ivec2``
    rung this deviates far above tolerance in phase 8 (padding lanes
    double-count the replicated last element's contributions).
    """
    from repro.compiler.ir import If, Loop
    from repro.compiler.transforms.base import pin_var_in_cond
    from repro.compiler.transforms.passes import LoopInterchange

    class _UncheckedInterchange(LoopInterchange):
        """Interchange without legality: the fault, not a real pass."""

        def _legality(self, target):
            return []  # the bug under injection: every blocker ignored

        def _sink(self, var, extent, body):
            if not any(isinstance(s, (Loop, If)) for s in body):
                return (Loop(var, extent, body),)
            out = []
            for s in body:
                if isinstance(s, Loop):
                    out.append(s.with_body(self._sink(var, extent, s.body)))
                elif isinstance(s, If):
                    # the guard is hoisted and frozen to lane 0 — the
                    # exact hazard the T2 blocker exists to prevent.
                    out.append(If(pin_var_in_cond(s.cond, var),
                                  self._sink(var, extent, s.body),
                                  est_taken=s.est_taken))
                else:
                    out.append(Loop(var, extent, (s,)))
            return tuple(out)

    p = _UncheckedInterchange()
    return [p.run(k)[0] for k in kernels]


def mislegalize_fission(kernels: list) -> list:
    """Apply a :class:`~repro.compiler.transforms.LoopFission` that splits
    across a loop-carried-order dependence (a mis-legalized
    transformation).

    The legal pass splits *after* the last guard, so the guarded fixup
    (``WORK A``) still runs before the straight-line tail; this buggy
    version splits at the *first* guard and emits the guarded half
    **before** the gather half — reordering dependent accesses, which is
    precisely what the T4-fission-dependence blocker forbids.  On the
    mini-app the padding-lane fixup (``elvisc = 1.0``) now runs before
    the property gather overwrites it, so ``golden_check(mutate=...)``
    deviates in phase 1 on every rung.
    """
    from repro.compiler.ir import If
    from repro.compiler.transforms.base import rewrite_loops

    struck: list = []

    def split(loop):
        if loop.var != "ivect" or struck:
            return None
        first_if = next((i for i, s in enumerate(loop.body)
                         if isinstance(s, If)), None)
        if first_if is None or first_if == 0:
            return None
        struck.append(loop.var)
        head, tail = loop.body[:first_if], loop.body[first_if:]
        return (replace(loop, body=tail), replace(loop, body=head))

    return [replace(k, body=rewrite_loops(k.body, split)) for k in kernels]


#: every implemented pass-fault kind -> its kernel mutator.  The chaos
#: campaign and the ``repro chaos --validate`` drill iterate
#: ``PASS_FAULT_KINDS`` and resolve each kind here, so a kind listed in
#: the vocabulary but missing an injector fails loudly instead of being
#: skipped.
PASS_FAULT_MUTATORS: dict[str, Callable[[list], list]] = {
    "mislegalized_trip_count": mislegalize_trip_count,
    "mislegalized_interchange": mislegalize_interchange,
    "mislegalized_fission": mislegalize_fission,
}


def pass_fault_mutator(kind: str) -> Callable[[list], list]:
    """The kernel mutator implementing one pass-fault kind; raises
    ``NotImplementedError`` for a listed-but-unimplemented kind."""
    try:
        return PASS_FAULT_MUTATORS[kind]
    except KeyError:
        raise NotImplementedError(
            f"pass fault kind {kind!r} has no injector; implemented: "
            f"{sorted(PASS_FAULT_MUTATORS)}") from None


# ---------------------------------------------------------------------------
# Solver-path fault injectors
# ---------------------------------------------------------------------------


def inject_nonconverging_krylov(pattern, amatr: np.ndarray,
                                seed: int) -> tuple[np.ndarray, int]:
    """Zero one seeded row of the (shifted) operator.

    The result is a singular — and, against a generic RHS, inconsistent
    — system: no Krylov method can drive the residual below the floor,
    so an honest solver must stall to ``maxiter`` (or break down) and
    **say so** via ``converged=False``, with the Jacobi zero-diagonal
    guard and the breakdown guards keeping every history entry finite.
    Returns ``(tampered_copy, victim_row)``; pure function of ``seed``.
    """
    rng = random.Random(seed)
    row = rng.randrange(pattern.n)
    bad = np.array(amatr, dtype=np.float64, copy=True)
    bad[pattern.row_of_entry() == row] = 0.0
    return bad, row


def inject_torn_spmv_gather(ellval: np.ndarray, ellcol: np.ndarray,
                            nrow: int, seed: int) -> tuple[int, int, int, int]:
    """Re-point one seeded *populated* slot of the ELL gather table at
    the wrong column, in place (a torn index load in the SpMV gather).

    Only slots with a nonzero coefficient are candidates — tearing a
    zero-padding slot would multiply the mis-gathered value by 0.0 and
    change nothing.  The fault conserves FLOPs and vector lengths by
    construction (same loop trip counts, same arithmetic, wrong
    address), so counter invariants are blind to it; detection rests on
    the solver phase-output digests diverging at the SpMV phase.
    Returns ``(slot, row, old_col, new_col)``; pure function of
    ``(ellval pattern, seed)``.
    """
    rng = random.Random(seed)
    slots, rows = np.nonzero(ellval[:, :nrow])
    if len(slots) == 0:
        raise ValueError("cannot tear an all-zero gather table")
    pick = rng.randrange(len(slots))
    slot, row = int(slots[pick]), int(rows[pick])
    old = int(ellcol[slot, row])
    new = (old + 1 + rng.randrange(max(nrow - 1, 1))) % max(nrow, 2)
    ellcol[slot, row] = new
    return slot, row, old, new


#: every implemented solver-fault kind -> its injector (the solver twin
#: of :data:`PASS_FAULT_MUTATORS`): the chaos campaign iterates
#: :data:`repro.faults.plan.SOLVER_FAULT_KINDS` and resolves each kind
#: here, so a kind in the vocabulary without an injector fails loudly.
SOLVER_FAULT_INJECTORS: dict[str, Callable] = {
    "nonconverging_krylov": inject_nonconverging_krylov,
    "torn_spmv_gather": inject_torn_spmv_gather,
}


def solver_fault_injector(kind: str) -> Callable:
    """The injector implementing one solver-fault kind; raises
    ``NotImplementedError`` for a listed-but-unimplemented kind."""
    try:
        return SOLVER_FAULT_INJECTORS[kind]
    except KeyError:
        raise NotImplementedError(
            f"solver fault kind {kind!r} has no injector; implemented: "
            f"{sorted(SOLVER_FAULT_INJECTORS)}") from None


# ---------------------------------------------------------------------------
# Faulty sweep workers
# ---------------------------------------------------------------------------


class FaultyWorker:
    """A ``simulate_to_dict`` wrapper that injects the faults of a
    :class:`FaultPlan` — each exactly once.

    Parameters
    ----------
    plan:
        the seeded fault plan; only specs whose ``kind`` is in *kinds*
        are armed (arming one kind per sweep keeps stages attributable).
    marker_dir:
        directory for the strike-once marker files; share it across the
        retries of one sweep, refresh it between sweeps.
    cache_dir:
        the sweep's result-store root (needed by ``torn_cache``).
    parent_pid:
        pid of the orchestrating process; the ``kill`` fault refuses to
        ``os._exit`` there and degrades to a crash so a serial sweep is
        never taken down.
    hang_s:
        stall duration for the ``hang`` fault (set it above the sweep's
        ``timeout_s``).
    """

    def __init__(self, plan: FaultPlan, marker_dir: str | os.PathLike,
                 kinds: Optional[tuple[str, ...]] = None,
                 cache_dir: str | os.PathLike = "",
                 parent_pid: Optional[int] = None,
                 hang_s: float = 4.0):
        armed = plan.specs if kinds is None else tuple(
            s for s in plan.specs if s.kind in kinds)
        self.specs = armed
        self.marker_dir = str(marker_dir)
        self.cache_dir = str(cache_dir)
        self.parent_pid = os.getpid() if parent_pid is None else parent_pid
        self.hang_s = hang_s

    def _claim(self, spec: FaultSpec) -> bool:
        """Atomically claim one strike; loser processes pass through."""
        return claim_strike(self.marker_dir, spec.kind)

    def _tear_cache_entry(self, victim_key: str) -> None:
        """Truncate the victim's store link to half its bytes, in place
        under its *final* name — the torn write the durable store path
        is designed to make impossible, forced from outside."""
        for path in Path(self.cache_dir).glob(f"links/*-{victim_key}.json"):
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])

    def __call__(self, cfg: RunConfig) -> dict:
        key = cfg.key()
        for spec in self.specs:
            if spec.target_key and spec.target_key != key:
                continue
            if not self._claim(spec):
                continue
            if spec.kind == "crash":
                raise RuntimeError(f"injected fault: worker crash on {key}")
            if spec.kind == "kill":
                if os.getpid() != self.parent_pid:
                    os._exit(KILL_EXIT_STATUS)
                raise RuntimeError(
                    f"injected fault: worker kill on {key} (in-process)")
            if spec.kind == "hang":
                time.sleep(self.hang_s)
                continue  # then compute honestly: only the stall is the fault
            payload = simulate_to_dict(cfg)
            if spec.kind == "nan_counter":
                payload["1"]["cycles_total"] = float("nan")
            elif spec.kind == "negative_counter":
                payload["1"]["cycles_total"] = -abs(
                    payload["1"]["cycles_total"]) - 1.0
            elif spec.kind == "flop_drift":
                for phase in payload.values():
                    phase["flops"] = phase["flops"] * 1.01
            elif spec.kind == "torn_cache":
                self._tear_cache_entry(spec.victim_key)
            else:
                raise ValueError(f"unknown fault kind {spec.kind!r}")
            return payload
        return simulate_to_dict(cfg)


class PassFaultyWorker:
    """A sweep worker whose *compiler* lies: the target config is
    simulated from kernels tampered by one mis-legalized pass.

    Where :class:`FaultyWorker` corrupts payloads after an honest
    simulation, this worker re-enacts a compiler bug end to end: on the
    (strike-once) target it takes the honestly transformed kernels,
    applies the pass-fault mutator for *kind* (see
    :data:`PASS_FAULT_MUTATORS`), re-vectorizes and re-lowers the
    tampered IR, and reports the counters of that wrong-but-plausible
    program.  Every call also writes the config's per-phase golden
    output digests (:func:`repro.validation.digests.phase_output_digests`)
    — computed from the *same* kernels the payload came from — to
    ``digest_dir/<key>.json``, giving the campaign the cross-rung
    evidence trail the counter invariants cannot provide (these faults
    conserve FLOPs by construction).

    Picklable: plain-data attributes only, all imports deferred to call
    time, so it crosses a ``ProcessPoolExecutor`` boundary like the
    other workers.
    """

    def __init__(self, kind: str, target_key: str,
                 marker_dir: str | os.PathLike,
                 digest_dir: str | os.PathLike,
                 field_seed: int = 0,
                 backend: str = "numpy"):
        if kind not in PASS_FAULT_MUTATORS:
            pass_fault_mutator(kind)  # raises NotImplementedError loudly
        self.kind = kind
        self.target_key = target_key
        self.marker_dir = str(marker_dir)
        self.digest_dir = str(digest_dir)
        self.field_seed = field_seed
        self.backend = backend

    def _simulate(self, cfg: RunConfig, mutate) -> tuple[dict, dict]:
        """Counters + probe digests for *cfg*, from mutated kernels."""
        import json

        from repro.experiments.executor import build_miniapp
        from repro.machine.cpu import Machine
        from repro.machine.machines import get_machine
        from repro.metrics.counters import counters_to_dict
        from repro.validation.digests import phase_output_digests
        from repro.validation.probe import Probe

        probe = Probe(opt=cfg.opt, field_seed=self.field_seed,
                      backend=self.backend)
        if mutate is None:
            payload = simulate_to_dict(cfg)
            digests = phase_output_digests(probe)
        else:
            from repro.compiler.program import compile_kernels

            app = build_miniapp(cfg)
            result = compile_kernels(mutate(list(app.kernels)), app.flags)
            params = get_machine(cfg.machine)
            machine = Machine(params, cache_enabled=cfg.cache_enabled)
            app.kernels = result.kernels
            app.compiled = result.compiled
            payload = counters_to_dict(app.run_timed(params, machine=machine))
            digests = phase_output_digests(probe, mutate=mutate)
        out = Path(self.digest_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg.key()}.json").write_text(json.dumps(
            {"key": cfg.key(), "opt": cfg.opt,
             "phase_digests": {str(p): d for p, d in sorted(digests.items())}},
            sort_keys=True) + "\n")
        return payload, digests

    def __call__(self, cfg: RunConfig) -> dict:
        mutate = None
        if cfg.key() == self.target_key and claim_strike(self.marker_dir,
                                                         self.kind):
            mutate = pass_fault_mutator(self.kind)
        payload, _ = self._simulate(cfg, mutate)
        return payload


class DelayedWorker:
    """An honest ``simulate_to_dict`` with a fixed per-run stall.

    The service kill drill needs a window in which SIGKILL reliably
    lands *mid-sweep*; stretching every run by ``delay_s`` provides it
    without touching results.  Picklable (plain data only) so it crosses
    the pool boundary; also the implementation behind the ``repro serve
    --worker-delay`` chaos hook.
    """

    def __init__(self, delay_s: float):
        self.delay_s = float(delay_s)

    def __call__(self, cfg: RunConfig) -> dict:
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        return simulate_to_dict(cfg)


class AlwaysCrashWorker:
    """Crashes on every call — the worker-failure storm that must trip
    the service's circuit breaker.  Picklable."""

    def __call__(self, cfg: RunConfig) -> dict:
        raise RuntimeError(
            f"injected fault: worker failure storm on {cfg.key()}")


class InterruptingWorker:
    """Completes ``stop_after`` runs, then raises ``KeyboardInterrupt`` —
    the journal-resume drill's stand-in for Ctrl-C / SIGINT mid-sweep.
    Serial-only (``jobs=1``): the interrupt must hit the orchestrator."""

    def __init__(self, stop_after: int):
        self.stop_after = stop_after
        self.calls = 0

    def __call__(self, cfg: RunConfig) -> dict:
        if self.calls >= self.stop_after:
            raise KeyboardInterrupt("injected fault: sweep interrupted")
        self.calls += 1
        return simulate_to_dict(cfg)
