"""Golden-reference validation: IR kernels vs NumPy semantics, per phase.

The reproduction's timing results are only meaningful if the compiled
kernels compute the same mathematics as the paper's mini-app.  This
module turns the test-suite argument (``executed kernels == reference``)
into a runtime validator: :func:`golden_check` executes the IR kernels
of one optimization rung chunk by chunk -- through any registered
execution backend (:mod:`repro.backends`) -- and, **after every phase**,
compares that phase's output arrays -- and ultimately the assembled
global RHS and CSR matrix -- against :mod:`repro.cfd.reference` within
tolerance.

Golden checks run on a small probe mesh described by a shared
:class:`~repro.validation.probe.Probe` spec (the semantics of a rung do
not depend on mesh size or VECTOR_SIZE beyond tail padding, which the
probe exercises).  The default backend is the vectorized ``"numpy"``
lowering, proven byte-identical to the ``"interpreter"`` oracle by the
frozen equivalence fixture; sweeps that used to take minutes take
seconds.  The chaos harness (:mod:`repro.faults`) additionally injects
numeric faults through the ``corrupt`` hook to prove a poisoned lane is
*detected* and pinned to the phase it struck.

:func:`solver_golden_check` validates the solver phases 9-12 through the
same per-chunk, per-kernel comparison loop (handed the solver context,
reference table and output table), then adds an end-to-end solve stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro.backends import DEFAULT_BACKEND, get_backend
from repro.cfd.assembly import MiniApp
from repro.cfd.reference import PHASE_OUTPUTS, REF_PHASES
from repro.compiler.ir import Kernel
from repro.validation.probe import (
    PROBE_MESH,
    PROBE_VECTOR_SIZE,
    Probe,
    resolve_probe,
)

#: corruption hook: (instance, phase_id, chunk_index) -> None, called
#: after the backend ran the phase and before the cross-check.
CorruptHook = Callable[[object, int, int], None]

#: kernel-mutation hook: kernels -> kernels, applied before
#: execution (the chaos harness's entry point for mis-legalized
#: transformation faults: a pass product is tampered with and the
#: golden check must catch the semantic change).
MutateHook = Callable[[list[Kernel]], list[Kernel]]


@dataclass
class GoldenReport:
    """Outcome of one golden-reference cross-check."""

    opt: str
    vector_size: int
    mesh_dims: tuple[int, int, int]
    rtol: float
    atol: float
    backend: str = DEFAULT_BACKEND
    #: worst absolute deviation seen per phase (diagnostics).
    max_abs_error: dict[int, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: pipeline stages validated (``transformed=True`` mode): each entry
    #: is the pass list of one validated prefix, shortest first.
    stages: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "opt": self.opt,
            "vector_size": self.vector_size,
            "mesh_dims": list(self.mesh_dims),
            "backend": self.backend,
            "ok": self.ok,
            "violations": list(self.violations),
            "max_abs_error": {str(p): e for p, e in
                              sorted(self.max_abs_error.items())},
            "stages": [list(s) for s in self.stages],
        }


def _compare_chunks(report: GoldenReport, context, kernels: list[Kernel],
                    ir_data: dict[str, np.ndarray],
                    ref_data: dict[str, np.ndarray],
                    reference: Mapping[int, Callable],
                    outputs: dict[int, tuple[str, ...]], *, where: str,
                    max_violations: int,
                    corrupt: Optional[CorruptHook] = None) -> None:
    """Run *kernels* (via ``report.backend``, globals bound by reference
    from *ir_data*) and ``reference[phase]`` (on *ref_data*) side by
    side over every chunk of *context*, comparing ``outputs[phase]``
    after each phase; violations are prefixed with *where*."""
    backend = get_backend(report.backend)
    local_arrays = [a for a in context.arrays.values() if a.scope == "local"]
    for chunk in context.chunks():
        inst = context.instance_for_chunk(chunk, with_data=True,
                                          globals_data=ir_data)
        # fresh chunk-local scratch, mirroring the instance's zeroed data.
        for arr in local_arrays:
            ref_data[arr.name] = np.zeros(arr.shape)
        executor = backend.executor(inst, context.params)
        for kern in kernels:
            phase = kern.phase
            executor.run(kern)
            if corrupt is not None:
                corrupt(inst, phase, chunk.index)
            reference[phase](ref_data, context.params, chunk.elements)
            for name in outputs[phase]:
                got = np.asarray(inst.data(name), dtype=np.float64)
                want = np.asarray(ref_data[name], dtype=np.float64)
                diff = np.abs(got - want)
                err = float(diff.max()) if diff.size else 0.0
                report.max_abs_error[phase] = max(
                    report.max_abs_error.get(phase, 0.0), err)
                bad = ~np.isclose(got, want, rtol=report.rtol,
                                  atol=report.atol, equal_nan=False)
                if bad.any() and len(report.violations) < max_violations:
                    report.violations.append(
                        f"{where}chunk {chunk.index} phase {phase} "
                        f"{name!r}: {int(bad.sum())} element(s) deviate, "
                        f"max abs error {err:.3e}")


def _check_kernels(report: GoldenReport, app: MiniApp,
                   kernels: list[Kernel], *, stage: str = "",
                   max_violations: int = 20,
                   corrupt: Optional[CorruptHook] = None) -> None:
    """Execute *kernels* (via ``report.backend``) against the NumPy
    reference on *app*'s probe mesh, appending violations (labelled
    *stage*) to *report*."""
    ctx = app.context
    # Backend side: globals bound by reference into each instance.
    gdata = app.global_float_data()
    globals_data = {**gdata, "elpos": app.elpos}
    # Reference side: private copies of the float globals (both sides
    # scatter-accumulate into their own rhsid/amatr) + gather tables.
    ref_data: dict[str, np.ndarray] = {
        **{name: arr.copy() for name, arr in gdata.items()},
        **ctx.int_tables, "elpos": app.elpos,
    }
    _compare_chunks(report, ctx, kernels, globals_data, ref_data,
                    dict(enumerate(REF_PHASES, 1)), PHASE_OUTPUTS,
                    where=f"stage {stage} " if stage else "",
                    max_violations=max_violations, corrupt=corrupt)


def golden_check(opt: "str | Probe" = "vanilla",
                 *,
                 probe: Optional[Probe] = None,
                 backend: Optional[str] = None,
                 max_violations: int = 20,
                 corrupt: Optional[CorruptHook] = None,
                 transformed: bool = False,
                 mutate: Optional[MutateHook] = None) -> GoldenReport:
    """Cross-check one optimization rung against the golden reference.

    The probe configuration is a :class:`Probe` -- pass one positionally
    (``golden_check(Probe(opt="vec1", backend="interpreter"))``) or as
    ``probe=``; a bare rung string selects the default probe for that
    rung.  ``backend=`` overrides the probe's execution backend.

    Runs the IR kernels (through the selected backend) and the NumPy
    reference side by side over every chunk of the probe mesh, comparing
    each phase's output arrays (see
    :data:`repro.cfd.reference.PHASE_OUTPUTS`) after the phase executes.
    Both sides start from byte-identical field data, so agreement is
    expected to machine precision.

    With ``transformed=True``, every *prefix* of the rung's pass
    pipeline is validated separately -- the baseline kernels, then the
    kernels after each pass in turn -- so a mis-legalized transformation
    is pinned to the pass that introduced it, not just to the rung.
    ``mutate`` rewrites the (final-stage) kernel list before execution;
    the chaos harness uses it to prove tampered pass output is
    *detected*.
    """
    spec = resolve_probe(opt, probe, backend=backend)
    report = GoldenReport(opt=spec.opt, vector_size=spec.vector_size,
                          mesh_dims=spec.mesh_dims, rtol=spec.rtol,
                          atol=spec.atol, backend=spec.backend)
    app = spec.build_app()

    if transformed:
        for prefix in app.pipeline.prefixes():
            kernels, _ = prefix.run_all(app.baseline_kernels)
            names = prefix.pass_names
            if mutate is not None and len(names) == len(app.pipeline):
                kernels = mutate(list(kernels))
            report.stages.append(names)
            _check_kernels(report, app, list(kernels),
                           stage=f"[{' -> '.join(names) or 'baseline'}]",
                           max_violations=max_violations, corrupt=corrupt)
        return report

    kernels = list(app.kernels)
    if mutate is not None:
        kernels = mutate(kernels)
    _check_kernels(report, app, kernels, max_violations=max_violations,
                   corrupt=corrupt)
    return report


# ---------------------------------------------------------------------------
# the solver path (phases 9-12)
# ---------------------------------------------------------------------------

#: fixed tolerances for the end-to-end IR-vs-NumPy solve comparison.
#: Scalar recurrences (alpha, beta, omega) are fed by kernel-computed
#: dots that differ from NumPy's pairwise sums at machine epsilon, so
#: the *iterates* drift slightly over a solve even though every single
#: kernel agrees to the probe tolerance -- hence looser than Probe.rtol.
SOLVE_X_RTOL = 1e-6
SOLVE_X_ATOL = 1e-9

#: slack on the true-residual check: the IR solution must satisfy the
#: solve within this multiple of the convergence tolerance.
SOLVE_RESIDUAL_SLACK = 10.0


def solver_golden_check(opt: "str | Probe" = "vanilla",
                        *,
                        probe: Optional[Probe] = None,
                        backend: Optional[str] = None,
                        method: str = "bicgstab",
                        max_violations: int = 20,
                        workload=None,
                        mutate: Optional[MutateHook] = None) -> GoldenReport:
    """Cross-check the IR solver kernels against the NumPy solver
    reference (`PHASE_OUTPUTS`-style, phases 9-12).

    Two stages, both recorded in the returned :class:`GoldenReport`:

    1. **per-kernel** -- the compiled SpMV / dot / axpy / Jacobi-apply
       kernels run chunk by chunk (through the probe's backend) on
       seeded vectors, against
       :data:`repro.cfd.solver_phases.SOLVER_REF_PHASES`, compared to
       the probe tolerance after every kernel;
    2. **end-to-end** -- :meth:`SolverWorkload.ir_solve` (every vector
       op through the kernels) against :func:`repro.cfd.solver.cg` /
       ``bicgstab`` on the assembled shifted system: the converged
       flags must agree, the IR solution must match the reference
       within :data:`SOLVE_X_RTOL`/:data:`SOLVE_X_ATOL`, and its true
       residual must actually satisfy the solve.

    ``workload=`` substitutes a pre-built (possibly fault-injected)
    :class:`~repro.cfd.solver_path.SolverWorkload`; ``mutate`` rewrites
    the solver kernel list before execution (the chaos harness's entry
    points for torn-gather / mis-legalization drills).
    """
    from repro.cfd.solver import SolveResult  # noqa: F401  (doc anchor)
    from repro.cfd.solver_path import SOLVE_TOL
    from repro.cfd.solver_phases import (
        SOLVER_PHASE_OUTPUTS,
        SOLVER_REF_PHASES,
        seeded_solver_inputs,
    )

    spec = resolve_probe(opt, probe, backend=backend)
    report = GoldenReport(opt=spec.opt, vector_size=spec.vector_size,
                          mesh_dims=spec.mesh_dims, rtol=spec.rtol,
                          atol=spec.atol, backend=spec.backend)
    app = spec.build_app()
    if workload is None:
        workload, b = app.build_solver()
    else:
        _, b = app.build_solver()
    kernels = sorted(workload.kernels, key=lambda k: k.phase)
    if mutate is not None:
        kernels = mutate(list(kernels))
        workload.kernels = kernels
        workload.kernels_by_phase = {k.phase: k for k in kernels}

    # -- stage 1: per-kernel, chunk by chunk ----------------------------
    report.stages.append(("solver-kernels",))
    ctx = workload.context
    ir_data = seeded_solver_inputs(ctx, spec.field_seed)
    ref_data = {name: arr.copy() for name, arr in ir_data.items()}
    _compare_chunks(report, ctx, kernels, ir_data, ref_data,
                    SOLVER_REF_PHASES, SOLVER_PHASE_OUTPUTS,
                    where="solver ", max_violations=max_violations)

    # -- stage 2: end-to-end IR solve vs NumPy solver reference ---------
    report.stages.append((f"solver-e2e:{method}",))
    ir = workload.ir_solve(b, method=method, backend=report.backend)
    ref = workload.reference_solve(b, method=method)
    if bool(ir.converged) != bool(ref.converged):
        report.violations.append(
            f"solver e2e {method}: converged flag mismatch "
            f"(ir={ir.converged} after {ir.iterations} it, "
            f"ref={ref.converged} after {ref.iterations} it)")
    if not np.allclose(ir.x, ref.x, rtol=SOLVE_X_RTOL, atol=SOLVE_X_ATOL,
                       equal_nan=False):
        err = float(np.abs(ir.x - ref.x).max())
        report.violations.append(
            f"solver e2e {method}: IR solution deviates from the NumPy "
            f"reference, max abs error {err:.3e}")
    if ref.converged:
        from repro.cfd.csr import spmv as _csr_spmv

        true_res = float(np.linalg.norm(
            b - _csr_spmv(workload.pattern, workload.amatr, ir.x)))
        bnorm = float(np.linalg.norm(b)) or 1.0
        if true_res / bnorm > SOLVE_RESIDUAL_SLACK * SOLVE_TOL:
            report.violations.append(
                f"solver e2e {method}: IR solution does not satisfy the "
                f"system (true residual {true_res / bnorm:.3e})")
    return report
