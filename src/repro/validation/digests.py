"""Per-phase golden output digests: the cross-rung semantic fingerprint.

Every optimization rung is a pure performance transformation, so the
executed outputs of each phase on a fixed probe configuration are
bit-identical across the whole ladder — scalar through vec1 produce the
same bytes phase by phase (the legal passes only restructure loops whose
iterations are independent, and iteration order within a phase's
accumulates is preserved).  :func:`phase_output_digests` turns that into
a comparable fingerprint: one SHA-256 per phase over the phase's output
arrays (:data:`repro.cfd.reference.PHASE_OUTPUTS`), accumulated chunk by
chunk on the golden probe mesh.

This is the invariant that catches the pass faults the counter checks
cannot: a mis-legalized interchange or fission conserves FLOPs by
construction (same arithmetic, wrong order/guard), so the FLOP-ladder
check stays green — but the first phase whose semantics changed diverges
from the majority digest, pinning both the struck run and the phase
(see :func:`repro.validation.invariants.check_phase_digest_ladder`).

Execution goes through a registered backend (:mod:`repro.backends`);
the digest is *backend-invariant* by construction — the vectorized
``"numpy"`` default is byte-identical to the ``"interpreter"`` oracle,
and ``tests/backends/test_equivalence_fixture.py`` freezes that claim.
The digest is a pure function of ``(kernels, field_seed)`` on the fixed
probe; notably it does **not** depend on the run's own mesh or
VECTOR_SIZE (different probe vector sizes pad differently and are *not*
comparable, which is why the probe size is pinned).

The solver phases 9-12 are fingerprinted the same way
(:func:`solver_phase_digests`): both phase families go through one
hashing loop, which differs per family only in the context, kernels,
data and output table it is handed.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.compiler.ir import Kernel
from repro.validation.golden import MutateHook
from repro.validation.probe import Probe, resolve_probe


def _hash_outputs(context, kernels: list[Kernel],
                  data: dict[str, np.ndarray],
                  outputs: dict[int, tuple[str, ...]],
                  backend: str) -> dict[int, str]:
    """Run *kernels* chunk by chunk over *context* on *data* (bound by
    reference) and hash each phase's ``outputs[phase]`` arrays after
    every chunk: one SHA-256 per phase."""
    from repro.backends import get_backend

    be = get_backend(backend)
    hashers = {phase: hashlib.sha256() for phase in outputs}
    for chunk in context.chunks():
        inst = context.instance_for_chunk(chunk, with_data=True,
                                          globals_data=data)
        executor = be.executor(inst, context.params)
        for kern in kernels:
            executor.run(kern)
            for name in outputs[kern.phase]:
                arr = np.ascontiguousarray(
                    np.asarray(inst.data(name), dtype=np.float64))
                hashers[kern.phase].update(arr.tobytes())
    return {phase: h.hexdigest() for phase, h in sorted(hashers.items())}


def _compute_digests(probe: Probe,
                     mutate: Optional[MutateHook]) -> dict[int, str]:
    from repro.cfd.reference import PHASE_OUTPUTS

    app = probe.build_app()
    kernels = list(app.kernels)
    if mutate is not None:
        kernels = mutate(kernels)
    data = {**app.global_float_data(), "elpos": app.elpos}
    return _hash_outputs(app.context, kernels, data, PHASE_OUTPUTS,
                         probe.backend)


@lru_cache(maxsize=64)
def _honest_digests(probe: Probe) -> tuple[tuple[int, str], ...]:
    """Memoized honest-pipeline digests, keyed by the (frozen, hashable)
    probe -- a chaos campaign fingerprints the same rungs many times
    over.  Tolerances are irrelevant to digests, so they are normalized
    out of the key to avoid duplicate cache entries."""
    return tuple(sorted(_compute_digests(probe, None).items()))


def phase_output_digests(opt: "str | Probe" = "vanilla",
                         *,
                         probe: Optional[Probe] = None,
                         backend: Optional[str] = None,
                         mutate: Optional[MutateHook] = None
                         ) -> dict[int, str]:
    """SHA-256 fingerprint of every phase's executed outputs.

    Accepts the same :class:`Probe` conventions as ``golden_check``: a
    probe (positional or ``probe=``) or a bare rung string.
    ``backend=`` overrides the probe's execution backend; honest digests
    are identical whichever backend computes them.

    Runs the (optionally ``mutate``-tampered) kernels of one rung on the
    golden probe, hashing each phase's output arrays across all chunks.
    Honest rungs all return the same digests; a tampered pipeline
    diverges at the first semantically-changed phase.
    """
    spec = resolve_probe(opt, probe, backend=backend)
    if mutate is None:
        key = replace(spec, rtol=Probe.rtol, atol=Probe.atol)
        return dict(_honest_digests(key))
    return _compute_digests(spec, mutate)


# ---------------------------------------------------------------------------
# the solver path (phases 9-12)
# ---------------------------------------------------------------------------


def _compute_solver_digests(probe: Probe, mutate: Optional[MutateHook],
                            workload=None) -> dict[int, str]:
    from repro.cfd.solver_phases import (
        SOLVER_PHASE_OUTPUTS,
        seeded_solver_inputs,
    )

    if workload is None:
        workload, _ = probe.build_app().build_solver()
    kernels = sorted(workload.kernels, key=lambda k: k.phase)
    if mutate is not None:
        kernels = mutate(list(kernels))
    ctx = workload.context
    data = seeded_solver_inputs(ctx, probe.field_seed)
    return _hash_outputs(ctx, kernels, data, SOLVER_PHASE_OUTPUTS,
                         probe.backend)


@lru_cache(maxsize=64)
def _honest_solver_digests(probe: Probe) -> tuple[tuple[int, str], ...]:
    return tuple(sorted(_compute_solver_digests(probe, None).items()))


def solver_phase_digests(opt: "str | Probe" = "vanilla",
                         *,
                         probe: Optional[Probe] = None,
                         backend: Optional[str] = None,
                         mutate: Optional[MutateHook] = None,
                         workload=None) -> dict[int, str]:
    """SHA-256 fingerprint of every solver phase's executed outputs.

    As :func:`phase_output_digests`, for the solver phases: the
    compiled SpMV / dot / axpy / Jacobi-apply kernels (phases 9-12) run
    chunk by chunk on seeded vectors over the probe's assembled
    (diagonal-shifted) matrix, hashing each phase's output arrays
    (:data:`repro.cfd.solver_phases.SOLVER_PHASE_OUTPUTS`).  Honest
    rungs and honest backends all return the same digests; a tampered
    kernel list (``mutate``) or a fault-injected workload (``workload=``,
    e.g. a torn ELL gather table) diverges at the struck phase --
    FLOP-conserving faults included, exactly like the assembly ladder.
    """
    spec = resolve_probe(opt, probe, backend=backend)
    if mutate is None and workload is None:
        key = replace(spec, rtol=Probe.rtol, atol=Probe.atol)
        return dict(_honest_solver_digests(key))
    return _compute_solver_digests(spec, mutate, workload=workload)
