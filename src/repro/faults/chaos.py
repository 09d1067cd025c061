"""The seeded chaos campaign: inject every fault kind, prove detection.

:func:`run_chaos_campaign` executes the optimization-ladder sweep on a
tiny mesh over and over, each stage arming exactly one seeded fault from
the :class:`~repro.faults.plan.FaultPlan`, and classifies the outcome:

``recovered``
    the fault left a trace (retry / timeout / invalid / broken-pool
    event, or a re-simulation where a cache hit was due) **and** the
    final counters are bit-identical to the clean baseline;
``detected``
    the fault was flagged (failed / quarantined / validation verdict)
    but the run could not be transparently healed — the operator is
    told, nothing poisoned slips into artifacts;
``silent``
    the fault fired and nothing noticed — the one outcome the
    robustness layer exists to rule out.  A campaign with any silent
    fault exits non-zero.

Alongside the sweep stages, targeted drills corrupt in-memory state
directly (emulator vector registers, cache accounting, a phase array
between kernel and golden reference) to exercise the validators the
sweep path cannot reach.  Two always-on solver drills
(:data:`~repro.faults.plan.SOLVER_FAULT_KINDS`) put the Krylov path
under fire: a seeded zeroed operator row that the solver must refuse to
call converged (with breakdown guards keeping the residual history
finite), and a seeded torn ELL-gather slot — FLOP-conserving, so only
the solver phase-output digests and the solver golden check can pin it.  With ``pass_faults=True`` the campaign also
arms the *compiler-model* faults: one sweep per
:data:`~repro.faults.plan.PASS_FAULT_KINDS`, where a
:class:`~repro.faults.injector.PassFaultyWorker` simulates the seeded
target from kernels tampered by a mis-legalized transformation pass.
These faults conserve FLOPs by construction, so detection rests on the
per-phase golden output digest ladder
(:func:`~repro.validation.invariants.check_phase_digest_ladder`) plus
the ``golden_check(mutate=...)`` drill.  Everything — fault plan, strike
points, backoff jitter — derives from one integer seed, and the report
contains no timestamps or wall-clock times, so two same-seed campaigns
produce byte-identical reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiments.config import MeshSpec, resolve_mesh
from repro.experiments.executor import (
    ExecutionPlan,
    ExecutionResult,
    RunEvent,
    execute_plan,
)
from repro.experiments.journal import replay_journal
from repro.faults.injector import (
    FaultyWorker,
    InterruptingWorker,
    flip_float64_bit,
    inject_cache_miss_drift,
    inject_vreg_nan,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.metrics.counters import counters_to_dict

#: stage classifications, best to worst.  ``rejected`` is the service
#: campaign's third safe outcome: the fault (e.g. a submission flood)
#: was shed with an explicit refusal — load was lost *visibly*, by
#: contract, which is as much a success as recovery.  ``degraded`` is
#: the telemetry plane's outcome: the service kept running but an SLO
#: was breached, the breach was *detected and journaled* as a
#: first-class event — degradation the operator was told about, not
#: degradation that slipped by.
RECOVERED, DETECTED, CLEAN, SILENT = "recovered", "detected", "clean", "silent"
REJECTED = "rejected"
DEGRADED = "degraded"


@dataclass
class StageReport:
    """Outcome of one campaign stage."""

    name: str
    kind: str
    target: str
    classification: str
    evidence: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "target": self.target,
                "classification": self.classification,
                "evidence": list(self.evidence)}


@dataclass
class ChaosReport:
    """Outcome of a whole campaign; serializes deterministically."""

    seed: int
    mesh_dims: tuple[int, int, int]
    plan_size: int
    stages: list[StageReport] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out = {RECOVERED: 0, DETECTED: 0, DEGRADED: 0, REJECTED: 0,
               CLEAN: 0, SILENT: 0}
        for st in self.stages:
            out[st.classification] = out.get(st.classification, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts.get(SILENT, 0) == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mesh_dims": list(self.mesh_dims),
            "plan_size": self.plan_size,
            "ok": self.ok,
            "counts": self.counts,
            "stages": [st.to_dict() for st in self.stages],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        """GitHub-flavored classification table (the CI job summary)."""
        lines = [
            f"### Chaos campaign — seed {self.seed}, "
            f"mesh {'x'.join(str(d) for d in self.mesh_dims)}, "
            f"{self.plan_size} runs/sweep",
            "",
            "| stage | fault | target | outcome |",
            "| --- | --- | --- | --- |",
        ]
        for st in self.stages:
            badge = {"silent": "**SILENT**", "detected": "detected",
                     "recovered": "recovered", "rejected": "rejected",
                     "degraded": "degraded", "clean": "clean"}.get(
                         st.classification, st.classification)
            lines.append(f"| {st.name} | {st.kind} | {st.target or '-'} "
                         f"| {badge} |")
        c = self.counts
        lines += [
            "",
            f"**{c[RECOVERED]} recovered · {c[DETECTED]} detected · "
            f"{c[DEGRADED]} degraded · {c[REJECTED]} rejected · "
            f"{c[CLEAN]} clean · {c[SILENT]} silent** — "
            + ("campaign ok" if self.ok
               else "FAIL: fault(s) silently absorbed"),
            "",
        ]
        return "\n".join(lines)


def _fault_event_kinds(events: list[RunEvent], key: str) -> set[str]:
    """Event kinds that constitute evidence of a noticed fault."""
    notice = {"retry", "timeout", "invalid", "failed", "quarantined"}
    return {ev.kind for ev in events if ev.kind in notice and
            (ev.key == key or not key)}


def _counters_match(result: ExecutionResult, baseline: dict[str, dict],
                    keys) -> bool:
    return all(k in result.runs and
               counters_to_dict(result.runs[k]) == baseline[k]
               for k in keys)


def run_chaos_campaign(seed: int = 0,
                       mesh: MeshSpec = "tiny",
                       out_dir: str | os.PathLike | None = None,
                       jobs: int = 2,
                       timeout_s: float = 2.0,
                       verbose: bool = False,
                       pass_faults: bool = False,
                       service_faults: bool = False,
                       backend: str = "numpy") -> ChaosReport:
    """Run the full seeded campaign; see the module docstring.

    With ``pass_faults=True`` the three compiler-model fault kinds are
    armed as additional sweep stages.  With ``service_faults=True`` the
    sweep-service drills (hung worker, torn store shard, submission
    flood, worker failure storm, kill-mid-sweep + resume) run as extra
    stages — see :mod:`repro.service.chaos`.  The kill stage spawns a
    real ``repro serve`` subprocess and SIGKILLs it, so its evidence
    strings are not byte-deterministic; campaigns compared byte-for-byte
    should leave it off.  ``backend`` selects the kernel
    execution backend for every semantic stage (digest ladders, golden
    drills); honest results are byte-identical across backends, so the
    report does not depend on the choice — only the wall-clock does.
    When *out_dir* is given the report is written there as
    ``chaos-report.json`` (plus ``chaos-summary.md``, the markdown
    classification table).  All scratch state (caches, journals, strike
    markers, digest files) lives in a temporary directory and is
    removed afterwards.
    """
    dims = resolve_mesh(mesh)
    plan = ExecutionPlan.ladder(mesh=dims)
    keys = [cfg.key() for cfg in plan]
    fplan = FaultPlan.generate(seed, keys)
    pplan = (FaultPlan.generate_pass_faults(seed, plan.configs)
             if pass_faults else None)
    report = ChaosReport(seed=seed, mesh_dims=dims, plan_size=len(plan))
    solver_specs: list[FaultSpec] = []

    def note(msg: str) -> None:
        if verbose:
            print(f"[chaos] {msg}", file=sys.stderr, flush=True)

    scratch = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        # -- stage 0: clean baseline (also the bit-identical yardstick) ---
        base_cache = scratch / "baseline"
        events: list[RunEvent] = []
        note("baseline sweep")
        base = execute_plan(plan, cache_dir=base_cache, jobs=1,
                            validate=True, on_event=events.append)
        baseline = {k: counters_to_dict(run) for k, run in base.runs.items()}
        clean = (not base.failed and not base.invalid_keys()
                 and len(base.runs) == len(plan))
        report.stages.append(StageReport(
            name="baseline", kind="none", target="",
            classification=CLEAN if clean else SILENT,
            evidence=[f"{len(base.runs)}/{len(plan)} runs valid",
                      f"validation verdicts ok: "
                      f"{sorted(base.invalid_keys()) or 'all'}"]))

        # -- worker-fault sweeps ------------------------------------------
        def sweep_stage(name: str, kind: str, *, sweep_jobs: int,
                        expect_detected: bool = False) -> None:
            spec = fplan.spec_for(kind)
            note(f"stage {name}: {kind} on {spec.target_key}")
            cache = scratch / name
            worker = FaultyWorker(fplan, scratch / f"{name}.markers",
                                  kinds=(kind,), cache_dir=cache,
                                  hang_s=2 * timeout_s)
            evs: list[RunEvent] = []
            res = execute_plan(plan, cache_dir=cache, jobs=sweep_jobs,
                               timeout_s=timeout_s, retries=2,
                               backoff_s=0.01, validate=True,
                               worker=worker, on_event=evs.append)
            noticed = _fault_event_kinds(evs, spec.target_key)
            evidence = [f"fault events on target: {sorted(noticed)}"]
            if expect_detected:
                # the fault survives per-run checks by design; the
                # cross-run verdict must still flag it.
                flagged = spec.target_key in res.invalid_keys()
                evidence.append(
                    f"cross-run verdict flagged target: {flagged}")
                cls = DETECTED if flagged else SILENT
            elif _counters_match(res, baseline, keys) and noticed:
                cls = RECOVERED
                evidence.append("all counters bit-identical to baseline")
            elif noticed or res.failed or res.quarantined:
                cls = DETECTED
                evidence.append(
                    f"failed={sorted(res.failed)} "
                    f"quarantined={sorted(res.quarantined)}")
            else:
                cls = SILENT
                evidence.append("no event, no verdict, counters drifted")
            report.stages.append(StageReport(
                name=name, kind=kind, target=spec.target_key,
                classification=cls, evidence=evidence))

        sweep_stage("worker-crash", "crash", sweep_jobs=1)
        sweep_stage("nan-counter", "nan_counter", sweep_jobs=1)
        sweep_stage("negative-counter", "negative_counter", sweep_jobs=1)
        sweep_stage("flop-drift", "flop_drift", sweep_jobs=1,
                    expect_detected=True)
        sweep_stage("worker-hang", "hang", sweep_jobs=max(2, jobs))
        sweep_stage("worker-kill", "kill", sweep_jobs=max(2, jobs))

        # -- torn cache entry: worker tears a stored entry mid-sweep ------
        spec = fplan.spec_for("torn_cache")
        note(f"stage torn-cache: tearing {spec.victim_key}")
        cache = scratch / "torn-cache"
        worker = FaultyWorker(fplan, scratch / "torn.markers",
                              kinds=("torn_cache",), cache_dir=cache)
        execute_plan(plan, cache_dir=cache, jobs=1, worker=worker)
        evs2: list[RunEvent] = []
        res2 = execute_plan(plan, cache_dir=cache, jobs=1, validate=True,
                            on_event=evs2.append)
        resim = [ev.key for ev in evs2 if ev.kind == "done"]
        healed = (_counters_match(res2, baseline, keys)
                  and resim == [spec.victim_key])
        report.stages.append(StageReport(
            name="torn-cache", kind="torn_cache", target=spec.victim_key,
            classification=RECOVERED if healed else SILENT,
            evidence=[f"re-simulated after discarding torn entry: {resim}",
                      f"counters bit-identical to baseline: "
                      f"{_counters_match(res2, baseline, keys)}"]))

        # -- bit-flipped cache entry: digest must catch silent rot --------
        note("stage bitflip-cache")
        cache = scratch / "bitflip"
        shutil.copytree(base_cache, cache)
        objects = sorted(cache.glob("objects/*/*.json"))
        victim = objects[seed % len(objects)]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x10  # flip a digit inside some number
        victim.write_bytes(bytes(data))
        evs3: list[RunEvent] = []
        res3 = execute_plan(plan, cache_dir=cache, jobs=1, validate=True,
                            on_event=evs3.append)
        resim = [ev.key for ev in evs3 if ev.kind == "done"]
        healed = _counters_match(res3, baseline, keys) and len(resim) == 1
        report.stages.append(StageReport(
            name="bitflip-cache", kind="bitflip_cache",
            target=victim.name,
            classification=RECOVERED if healed else SILENT,
            evidence=[f"digest rejected entry, re-simulated: {resim}"]))

        # -- journal resume: kill the sweep mid-flight, resume it ---------
        note("stage journal-resume")
        cache = scratch / "resume"
        journal = scratch / "resume.journal"
        stop_after = max(1, len(plan) // 2)
        interrupted = False
        try:
            execute_plan(plan, cache_dir=cache, jobs=1, journal=journal,
                         worker=InterruptingWorker(stop_after))
        except KeyboardInterrupt:
            interrupted = True
        jstate = replay_journal(journal)
        evs4: list[RunEvent] = []
        res4 = execute_plan(plan, cache_dir=cache, jobs=1, journal=journal,
                            validate=True, on_event=evs4.append)
        resumed = sum(1 for ev in evs4 if ev.kind == "done")
        hits = sum(1 for ev in evs4 if ev.kind == "cache_hit")
        healed = (interrupted and jstate is not None and jstate.interrupted
                  and hits == stop_after
                  and resumed == len(plan) - stop_after
                  and _counters_match(res4, baseline, keys))
        report.stages.append(StageReport(
            name="journal-resume", kind="interrupt", target="",
            classification=RECOVERED if healed else SILENT,
            evidence=[
                f"interrupted after {stop_after} runs: {interrupted}",
                f"journal recorded interrupted segment: "
                f"{jstate is not None and jstate.interrupted}",
                f"resume recalled {hits} runs, re-simulated only "
                f"{resumed}"]))

        # -- pass-fault sweeps: the compiler model itself lies ------------
        if pplan is not None:
            from repro.faults.injector import (
                PassFaultyWorker,
                pass_fault_mutator,
            )
            from repro.faults.plan import PASS_FAULT_KINDS, PASS_FAULT_RUNGS
            from repro.validation.golden import golden_check as _gcheck
            from repro.validation.invariants import check_phase_digest_ladder
            from repro.validation.probe import Probe as _Probe

            for kind in PASS_FAULT_KINDS:
                spec = pplan.spec_for(kind)
                rung = PASS_FAULT_RUNGS[kind]
                name = "pass-" + kind.removeprefix(
                    "mislegalized_").replace("_", "-")
                note(f"stage {name}: {kind} on {spec.target_key}")
                cache = scratch / name
                ddir = scratch / f"{name}.digests"
                worker = PassFaultyWorker(kind, spec.target_key,
                                          scratch / f"{name}.markers", ddir,
                                          backend=backend)
                evs5: list[RunEvent] = []
                res = execute_plan(plan, cache_dir=cache, jobs=1,
                                   validate=True, worker=worker,
                                   on_event=evs5.append)
                digests = {}
                for path in sorted(ddir.glob("*.json")):
                    rec = json.loads(path.read_text())
                    digests[rec["key"]] = rec["phase_digests"]
                dviol = check_phase_digest_ladder(digests)
                digest_flagged = spec.target_key in dviol
                verdict_flagged = spec.target_key in res.invalid_keys()
                # the drill: the same tampered pipeline must also fail
                # the golden reference cross-check on its rung.
                drill = _gcheck(_Probe(opt=rung, backend=backend),
                                mutate=pass_fault_mutator(kind))
                # counter-side signature: these faults conserve FLOPs,
                # which is exactly why the digest invariant must exist.
                t_run = res.runs.get(spec.target_key)
                b_run = base.runs.get(spec.target_key)
                flops_conserved = vl_changed = None
                if t_run is not None and b_run is not None:
                    lo, hi = sorted((t_run.total_flops, b_run.total_flops))
                    flops_conserved = hi - lo <= 1e-6 * max(1.0, abs(hi))
                    pids = set(t_run.phases) | set(b_run.phases)
                    vl_changed = any(
                        getattr(t_run.phases.get(p), "vl_hist", None)
                        != getattr(b_run.phases.get(p), "vl_hist", None)
                        for p in pids)
                noticed = digest_flagged or verdict_flagged
                cls = DETECTED if noticed and not drill.ok else SILENT
                evidence = [
                    f"digest ladder flagged target: {digest_flagged}"
                    + (f" ({dviol[spec.target_key][0]})"
                       if digest_flagged else ""),
                    f"counter verdicts flagged target: {verdict_flagged}",
                    f"golden drill on {rung}: "
                    f"{len(drill.violations)} violation(s)"
                    + (f", first: {drill.violations[0]}"
                       if drill.violations else ""),
                    f"FLOPs conserved vs baseline: {flops_conserved}; "
                    f"vl histogram changed: {vl_changed}",
                ]
                report.stages.append(StageReport(
                    name=name, kind=kind, target=spec.target_key,
                    classification=cls, evidence=evidence))

        # -- golden drills: clean pass + poisoned phase array -------------
        from repro.validation.golden import golden_check
        from repro.validation.probe import Probe

        rung = ["vanilla", "vec2", "ivec2", "vec1"][seed % 4]
        note(f"stage golden ({rung})")
        g_clean = golden_check(Probe(opt=rung, backend=backend))
        report.stages.append(StageReport(
            name="golden-clean", kind="none", target=rung,
            classification=CLEAN if g_clean.ok else SILENT,
            evidence=[f"violations: {g_clean.violations[:3]}"]))

        def poison(inst, phase: int, chunk_index: int) -> None:
            # bit 40 of the mantissa: a ~2^-12 relative kick — far above
            # the 1e-9 tolerance, small enough not to blow up phases 5-8.
            if phase == 4 and chunk_index == 0:
                arr = np.asarray(inst.data("gpvel"))
                flip_float64_bit(arr, index=0, bit=40)
        g_bad = golden_check(Probe(opt=rung, backend=backend),
                             corrupt=poison)
        pinned = any("phase 4" in v for v in g_bad.violations)
        report.stages.append(StageReport(
            name="golden-bitflip", kind="bitflip_lane", target=rung,
            classification=DETECTED if (not g_bad.ok and pinned) else SILENT,
            evidence=[f"violations: {len(g_bad.violations)}, "
                      f"pinned to struck phase: {pinned}"]))

        # -- emulator drill: NaN-poisoned vector register lane ------------
        from repro.isa.emulator import VectorEmulator, li, vsetvl

        emu = VectorEmulator(vl_max=16)
        emu.execute([li("a0", 8.0), vsetvl("t0", "a0")])
        inject_vreg_nan(emu, reg=3, lane=seed % 8)
        emu_viol = emu.validate_state()
        report.stages.append(StageReport(
            name="emulator-nan-lane", kind="nan_lane", target="v3",
            classification=DETECTED if emu_viol else SILENT,
            evidence=emu_viol[:3]))

        # -- cache drill: impossible miss accounting ----------------------
        from repro.machine.cache import MemoryHierarchy
        from repro.machine.machines import get_machine

        hier = MemoryHierarchy(get_machine("riscv_vec").memory)
        hier.access(np.arange(256, dtype=np.int64) * 8)
        assert not hier.check_invariants()
        inject_cache_miss_drift(hier.l1, delta=hier.l1.accesses + 1)
        cache_viol = hier.check_invariants()
        report.stages.append(StageReport(
            name="cache-miss-drift", kind="miss_drift", target="L1",
            classification=DETECTED if cache_viol else SILENT,
            evidence=cache_viol[:3]))

        # -- solver drills: the Krylov path (phases 9-12) under fire ------
        from repro.cfd.solver_path import SOLVE_TOL, SolverWorkload
        from repro.cfd.solver_phases import SPMV_PHASE
        from repro.faults.injector import (
            inject_nonconverging_krylov,
            inject_torn_spmv_gather,
        )
        from repro.validation.digests import solver_phase_digests
        from repro.validation.golden import solver_golden_check

        sprobe = Probe(backend=backend)
        sapp = sprobe.build_app()
        honest_workload, rhs = sapp.build_solver()

        # nonconverging_krylov: a seeded row of the shifted operator is
        # zeroed — a singular, inconsistent system no Krylov method can
        # solve.  The solver must stall and *report* it: converged=False
        # with every residual finite (the Jacobi zero-diagonal guard and
        # the breakdown guards are exactly what keeps NaN/Inf out).
        note("stage solver-nonconverging")
        bad_amatr, victim_row = inject_nonconverging_krylov(
            sapp.pattern, honest_workload.amatr, seed)
        sick = SolverWorkload(sapp.pattern, bad_amatr, sapp.vector_size,
                              opt=sapp.opt, flags=sapp.flags,
                              pipeline=sapp.pipeline)
        stall = sick.reference_solve(rhs, method="bicgstab")
        finite = (all(np.isfinite(v) for v in stall.history)
                  and np.isfinite(stall.residual))
        surfaced = not stall.converged
        report.stages.append(StageReport(
            name="solver-nonconverging", kind="nonconverging_krylov",
            target=f"row {victim_row}",
            classification=DETECTED if (surfaced and finite) else SILENT,
            evidence=[
                f"converged=False surfaced: {surfaced} after "
                f"{stall.iterations} iteration(s)",
                f"relative residual stalled at {stall.residual:.3e} "
                f"(tol {SOLVE_TOL:g})",
                f"breakdown guards kept the history finite: {finite}",
            ]))
        solver_specs.append(FaultSpec(kind="nonconverging_krylov",
                                      target_key=f"row {victim_row}"))

        # torn_spmv_gather: one populated slot of the ELL gather table
        # re-pointed at the wrong column.  FLOP- and VL-conserving by
        # construction, so counters stay green — the solver phase-output
        # digests must diverge at the SpMV phase and the solver golden
        # check must fail on the same workload.
        note("stage solver-torn-gather")
        honest_digests = solver_phase_digests(sprobe)
        torn = SolverWorkload(sapp.pattern, honest_workload.amatr,
                              sapp.vector_size, opt=sapp.opt,
                              flags=sapp.flags, pipeline=sapp.pipeline)
        slot, row, old_col, new_col = inject_torn_spmv_gather(
            torn.context.ellval, torn.context.ellcol,
            torn.context.sizes.nrow, seed)
        torn_digests = solver_phase_digests(sprobe, workload=torn)
        diverged = sorted(p for p in honest_digests
                          if torn_digests.get(p) != honest_digests[p])
        pinned = diverged == [SPMV_PHASE]
        g_torn = solver_golden_check(sprobe, workload=torn)
        target = f"ellcol[{slot},{row}] {old_col}->{new_col}"
        report.stages.append(StageReport(
            name="solver-torn-gather", kind="torn_spmv_gather",
            target=target,
            classification=(DETECTED if (pinned and not g_torn.ok)
                            else SILENT),
            evidence=[
                f"digests diverged at phase(s) {diverged}, pinned to "
                f"SpMV alone: {pinned}",
                f"solver golden check: {len(g_torn.violations)} "
                f"violation(s)"
                + (f", first: {g_torn.violations[0]}"
                   if g_torn.violations else ""),
                "FLOP/VL-conserving fault: counter invariants blind by "
                "construction, digest ladder is the detector",
            ]))
        solver_specs.append(FaultSpec(kind="torn_spmv_gather",
                                      target_key=target))

        # -- service drills: the supervised sweep service under fire ------
        if service_faults:
            from repro.service.chaos import append_service_stages

            append_service_stages(report, seed=seed, mesh=mesh,
                                  scratch=scratch / "service",
                                  verbose=verbose)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "chaos-report.json").write_text(report.to_json())
        (out / "chaos-summary.md").write_text(report.to_markdown())
        plan_dict = fplan.to_dict()
        if pplan is not None:
            plan_dict["pass_specs"] = [s.to_dict() for s in pplan.specs]
        if solver_specs:
            plan_dict["solver_specs"] = [s.to_dict() for s in solver_specs]
        (out / "fault-plan.json").write_text(
            json.dumps(plan_dict, indent=2, sort_keys=True) + "\n")
    return report
