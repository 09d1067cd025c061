"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction the ergonomics of the original toolchain -- one
command per artifact or workflow:

* ``info``                      -- the Table-2 platform summary;
* ``table N`` / ``figure N``    -- regenerate one paper artifact;
* ``sweep``                     -- the Figure-11 speed-up ladder;
* ``bench``                     -- time the sweep executor, write BENCH_report.json;
  with ``--baseline PATH`` it also gates the fresh per-phase cycle
  counts against a committed report and exits non-zero on a breach;
  ``--schedule NAME[,NAME...]`` replays discovered pass schedules
  (e.g. from ``repro autotune``) as extra gated runs;
* ``autotune``                  -- discover the best pass schedule per
  phase: enumerate legal schedules (interchange x fission x
  const-trip-count x strip-mine), prune with the machine-model cost
  model, digest-validate survivors, time them through the cached
  executor, and write a byte-deterministic AUTOTUNE_report.json;
  ``--socket`` times candidates through a running sweep service
  instead (submitted as an ``autotune``-kind job);
* ``remarks``                   -- the compiler's vectorization remarks;
* ``passes``                    -- run the transformation pass pipeline
  and show each kernel before/after every applied pass, with the
  transform remarks (the ``-fopt-info`` of the modelled compiler);
* ``advise``                    -- the co-design advisor's findings;
* ``codesign``                  -- run the full iterative loop;
* ``trace``                     -- run under the observability tracer;
  exports Paraver text (``.prv`` + ``.pcf``/``.row``) and, with
  ``--out``, a Chrome ``trace_event`` JSON for ``chrome://tracing``;
* ``chaos``                     -- seeded fault-injection campaign + report;
  with ``--service-faults`` the sweep-service drills (kill-mid-sweep,
  torn store shard, submission flood, hung worker, breaker storm) run
  as extra stages;
* ``serve``                     -- run the supervised sweep service on a
  unix socket: durable job queue, admission control, circuit breaker,
  content-addressed result store (see ``repro.service``);
* ``submit``                    -- submit a sweep to a running service
  (``--ladder`` for the full rung ladder) and optionally wait/stream;
* ``jobs``                      -- inspect a running service: job table
  (+ a one-line health summary), single-job view, results, health,
  drain, shutdown;
* ``top``                       -- live terminal dashboard over the
  service's ``metrics``/``health`` verbs: queue depth, tenant table,
  breaker state, SLO verdicts; ``--once --json`` emits the curated
  byte-deterministic snapshot for scripting and CI diffs.

``submit --trace`` stamps a trace id that travels through the journal,
worker processes, and result store; ``trace --job ID --state-dir DIR``
then renders the job's single cross-process timeline (client-submit →
queue-wait → worker-execute → store-write).

Sweep-shaped commands (``table`` / ``figure`` / ``sweep`` / ``report`` /
``bench``) accept ``--jobs/-j N`` to fan uncached simulations across a
process pool (``-j 0`` means one worker per CPU), ``--validate`` to
cross-check every run against the counter invariants (a violation
aborts the command instead of rendering a poisoned artifact), and
``--journal PATH`` to checkpoint the sweep so an interrupted command
resumes without re-running completed work.  Results print as ASCII
tables (see ``repro.experiments.report``); progress and validation
diagnostics go to stderr, so artifact output is byte-identical at any
job count and with or without ``--validate`` (when no fault fires).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.experiments import figures as F
from repro.experiments import report, tables as T
from repro.experiments.config import RunConfig, resolve_mesh
from repro.experiments.runner import Session

_TABLES = {1: T.table1, 2: T.table2, 3: T.table3, 4: T.table4,
           5: T.table5, 6: T.table6}
_FIGURES = {2: F.figure2, 3: F.figure3, 4: F.figure4, 5: F.figure5,
            6: F.figure6, 7: F.figure7, 8: F.figure8, 9: F.figure9,
            10: F.figure10, 11: F.figure11, 12: F.figure12, 13: F.figure13}


def _mesh_dims(name: str) -> tuple[int, int, int]:
    return resolve_mesh(name)


def _add_mesh(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", choices=("tiny", "quick", "full"),
                   default="quick",
                   help="mesh preset: tiny=64 elements, quick=960, full=7680")


def _add_backend(p: argparse.ArgumentParser) -> None:
    # choices come from the live registry, so a backend registered via
    # repro.backends.register_backend is selectable here too — and an
    # unknown name gets argparse's friendly error listing the registry
    # keys instead of a bare KeyError deep in the stack.
    from repro.backends import BACKENDS, DEFAULT_BACKEND

    p.add_argument("--backend", choices=sorted(BACKENDS),
                   default=DEFAULT_BACKEND,
                   help="kernel execution backend for semantic paths "
                        "(golden checks, digest ladders); results are "
                        "byte-identical, numpy is ~10x faster")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                   help="parallel simulation workers (0 = one per CPU)")


def _add_validate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--validate", action="store_true",
                   help="cross-check every run against the counter "
                        "invariants; abort on any violation")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="checkpoint sweep progress to PATH; re-running "
                        "with the same journal resumes an interrupted "
                        "sweep")
    _add_backend(p)


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_mesh(p)
    p.add_argument("--machine", default="riscv_vec",
                   choices=("riscv_vec", "riscv_vec_next", "sx_aurora",
                            "mn4_avx512", "a64fx"))
    p.add_argument("--opt", default="vec1",
                   choices=("scalar", "vanilla", "vec2", "ivec2", "vec1"))
    p.add_argument("--vs", type=int, default=240, help="VECTOR_SIZE")
    _add_backend(p)


def _run_config(args) -> RunConfig:
    """The one RunConfig a single-run command describes."""
    return RunConfig.from_kwargs(mesh=args.mesh, machine=args.machine,
                                 opt=args.opt, vs=args.vs,
                                 field_seed=getattr(args, "seed", 0),
                                 backend=getattr(args, "backend", "numpy"),
                                 solve=getattr(args, "solve", False))


def _jobs(args) -> int:
    from repro.experiments.executor import default_jobs

    n = getattr(args, "jobs", 1)
    return default_jobs() if n <= 0 else n


def _session(args) -> Session:
    return Session(mesh_dims=_mesh_dims(args.mesh), verbose=True,
                   jobs=_jobs(args),
                   validate=getattr(args, "validate", False),
                   journal=getattr(args, "journal", None),
                   backend=getattr(args, "backend", "numpy"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploiting long vectors with a CFD "
                    "code' (IPPS 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="platform summary (Table 2)")

    p = sub.add_parser("table", help="regenerate a paper table (1-6)")
    p.add_argument("number", type=int, choices=sorted(_TABLES))
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)

    p = sub.add_parser("figure", help="regenerate a paper figure (2-13)")
    p.add_argument("number", type=int, choices=sorted(_FIGURES))
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)

    p = sub.add_parser("sweep", help="speed-up ladder (Figure 11)")
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)

    p = sub.add_parser("report", help="the full evaluation report "
                                      "(every table and figure)")
    _add_mesh(p)
    _add_jobs(p)
    _add_validate(p)
    p.add_argument("-o", "--output", default=None,
                   help="write to a file instead of stdout")

    p = sub.add_parser("chaos", help="seeded fault-injection campaign: "
                                     "prove every fault is detected or "
                                     "recovered")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (same seed = same faults, same "
                        "report)")
    p.add_argument("--mesh", choices=("tiny", "quick", "full"),
                   default="tiny",
                   help="mesh preset for the chaos sweeps (default tiny)")
    _add_jobs(p)
    p.add_argument("-o", "--output", default="chaos",
                   help="directory for chaos-report.json + "
                        "fault-plan.json")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log each stage to stderr")
    p.add_argument("--pass-faults", action="store_true",
                   help="also arm the compiler-model faults: one sweep "
                        "per mis-legalized pass kind, classified like "
                        "worker faults (detection via the per-phase "
                        "output digest ladder)")
    p.add_argument("--validate", action="store_true",
                   help="additionally golden-check every pipeline stage "
                        "of every rung (transformed mode) and prove "
                        "every implemented pass-fault kind is detected")
    p.add_argument("--service-faults", action="store_true",
                   help="also drill the sweep service: kill-mid-sweep, "
                        "torn store shard, submission flood, hung "
                        "worker, circuit-breaker storm — every fault "
                        "must classify recovered/detected/rejected")
    p.add_argument("--service-only", action="store_true",
                   help="run only the service drills (fast CI path); "
                        "implies --service-faults")
    p.add_argument("--no-kill", action="store_true",
                   help="skip the subprocess SIGKILL drill (keeps the "
                        "service report byte-deterministic)")
    _add_backend(p)

    p = sub.add_parser("serve", help="run the supervised sweep service "
                                     "(durable queue + result store) on "
                                     "a unix socket")
    p.add_argument("--state-dir", default="sweep-service", metavar="DIR",
                   help="service state: journal and result store "
                        "(default ./sweep-service); restarting on the "
                        "same dir resumes in-flight jobs")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket path (default STATE_DIR/service.sock)")
    _add_jobs(p)
    p.add_argument("--timeout-s", type=float, default=30.0,
                   help="per-run wall-clock budget (default 30)")
    p.add_argument("--retries", type=int, default=1,
                   help="per-run retry budget (default 1)")
    p.add_argument("--validate", action="store_true",
                   help="cross-check every run against the counter "
                        "invariants")
    p.add_argument("--worker-delay", type=float, default=0.0,
                   metavar="SECONDS", help=argparse.SUPPRESS)  # chaos hook

    p = sub.add_parser("submit", help="submit a sweep to a running "
                                      "service")
    p.add_argument("--socket", default="sweep-service/service.sock",
                   metavar="PATH", help="service socket path")
    p.add_argument("--tenant", default="default",
                   help="tenant name for admission control / accounting")
    p.add_argument("--priority", type=float, default=0.0,
                   help="scheduling priority (higher runs first; queued "
                        "jobs age upward so low priority never starves)")
    p.add_argument("--ladder", action="store_true",
                   help="submit the full optimization ladder for --mesh "
                        "instead of the single --machine/--opt/--vs run")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.add_argument("--stream", action="store_true",
                   help="stream run events live until the job finishes")
    p.add_argument("--trace", action="store_true",
                   help="stamp a trace id on the submission; the service "
                        "propagates it through journal, workers, and "
                        "store, and exports the job's cross-process "
                        "timeline for 'repro trace --job'")
    p.add_argument("--solve", action="store_true",
                   help="time the full assemble+solve cycle: the run "
                        "adds the Krylov solver kernels (phases 9-12) "
                        "and a __solve__ convergence record to the "
                        "payload")
    _add_common(p)

    p = sub.add_parser("jobs", help="inspect a running sweep service")
    p.add_argument("--socket", default="sweep-service/service.sock",
                   metavar="PATH", help="service socket path")
    p.add_argument("--job", default=None, metavar="ID",
                   help="show one job instead of the whole table")
    p.add_argument("--results", action="store_true",
                   help="with --job: fetch the completed payloads (JSON)")
    p.add_argument("--health", action="store_true",
                   help="print the service health document (JSON)")
    p.add_argument("--drain", action="store_true",
                   help="stop admissions; queued jobs finish, then the "
                        "service exits")
    p.add_argument("--shutdown", action="store_true",
                   help="stop the service after the running job")

    p = sub.add_parser("top", help="live dashboard over a running sweep "
                                   "service (metrics + health + SLOs)")
    p.add_argument("--socket", default="sweep-service/service.sock",
                   metavar="PATH", help="service socket path")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="refresh interval in seconds (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no screen refresh)")
    p.add_argument("--json", action="store_true",
                   help="with --once: emit the curated deterministic "
                        "status JSON (byte-identical across identical "
                        "sessions) instead of the rendered dashboard")

    p = sub.add_parser("bench", help="time the sweep executor (serial vs "
                                     "parallel) and write a JSON report")
    _add_mesh(p)
    _add_jobs(p)
    p.add_argument("--profile", choices=("smoke", "standard"),
                   default="standard",
                   help="smoke = 3 runs, standard = the full ~50-run sweep")
    p.add_argument("-o", "--output", default="BENCH_report.json",
                   help="benchmark report path (JSON)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="gate the fresh per-phase cycle counts against "
                        "this committed bench report; exit 1 on any "
                        "phase drifting past --threshold")
    p.add_argument("--threshold", type=float, default=None, metavar="FRAC",
                   help="relative per-phase tolerance for --baseline "
                        "(default 0.10 = 10%%)")
    p.add_argument("--schedule", action="append", default=None,
                   metavar="NAME[,NAME...]",
                   help="replay a discovered pass schedule as an extra "
                        "benchmarked (and --baseline gated) run; "
                        "comma-separate passes within one schedule, "
                        "repeat the flag for several schedules "
                        "(e.g. --schedule const-trip-count,loop-"
                        "interchange,loop-fission)")

    p = sub.add_parser("autotune", help="discover the best pass schedule "
                                        "per phase; write a deterministic "
                                        "winner report")
    p.add_argument("--preset", choices=("tiny", "quick", "full"),
                   default=None,
                   help="mesh preset shorthand; overrides --mesh")
    _add_mesh(p)
    p.add_argument("--machine", default="riscv_vec",
                   choices=("riscv_vec", "riscv_vec_next", "sx_aurora",
                            "mn4_avx512", "a64fx"))
    p.add_argument("--vs", type=int, default=240, help="VECTOR_SIZE")
    p.add_argument("--profile", choices=("smoke", "standard"),
                   default="standard",
                   help="smoke = one strip size per family (CI), "
                        "standard = every legal strip size")
    p.add_argument("--seed", type=int, default=0,
                   help="field seed for the timed candidates (default 0); "
                        "the report is byte-deterministic per seed")
    _add_jobs(p)
    _add_backend(p)
    p.add_argument("-o", "--output", default="AUTOTUNE_report.json",
                   help="winner report path (JSON)")
    p.add_argument("--summary", default=None, metavar="PATH",
                   help="also write the winner table as GitHub-flavoured "
                        "markdown (CI publishes it to the step summary)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="time candidates through a running sweep service "
                        "at this socket (submits one 'autotune'-kind "
                        "job) instead of the local executor")
    p.add_argument("--tenant", default="default",
                   help="tenant name for --socket submissions")

    p = sub.add_parser("remarks", help="compiler vectorization remarks")
    _add_common(p)

    p = sub.add_parser("passes", help="show the transformation pass "
                                      "pipeline: before/after IR + "
                                      "transform remarks")
    _add_common(p)
    p.add_argument("--preset", choices=("tiny", "quick", "full"),
                   default=None,
                   help="mesh preset shorthand; overrides --mesh")
    p.add_argument("--full", action="store_true",
                   help="print full right-hand sides instead of eliding "
                        "them to '...'")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print not-applicable remarks")

    p = sub.add_parser("advise", help="co-design advisor findings")
    _add_common(p)

    p = sub.add_parser("codesign", help="run the iterative co-design loop")
    _add_common(p)

    p = sub.add_parser("trace", help="run under the observability tracer; "
                                     "export Paraver text and Chrome JSON")
    _add_common(p)
    p.add_argument("--preset", choices=("tiny", "quick", "full"),
                   default=None,
                   help="mesh preset shorthand; overrides --mesh")
    p.add_argument("--seed", type=int, default=0,
                   help="field seed for the traced run (default 0)")
    p.add_argument("--solve", action="store_true",
                   help="trace the full assemble+solve cycle: the "
                        "Krylov solver kernels (phases 9-12) run as "
                        "timed SIM spans after assembly")
    p.add_argument("-o", "--output", default="miniapp.prv",
                   help="Paraver trace path (.pcf/.row written alongside)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also export a Chrome trace_event JSON "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--job", default=None, metavar="ID",
                   help="render a traced service job's cross-process "
                        "timeline (from STATE_DIR/traces/ID.json) "
                        "instead of running a new traced simulation")
    p.add_argument("--state-dir", default="sweep-service", metavar="DIR",
                   help="service state dir for --job (default "
                        "./sweep-service)")

    p = sub.add_parser("roofline", help="per-phase roofline analysis")
    _add_common(p)

    return parser


def _cmd_info() -> int:
    print(report.render(T.table2()))
    return 0


def _cmd_table(args) -> int:
    fn = _TABLES[args.number]
    if args.number in (1, 2):
        obj = fn()
    else:
        obj = fn(_session(args))
    print(report.render(obj))
    return 0


def _cmd_figure(args) -> int:
    obj = _FIGURES[args.number](_session(args))
    print(obj.title)
    print(report.format_table(obj.rows()))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.summary import evaluation_report

    text = evaluation_report(_session(args))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    fig = F.figure11(_session(args))
    print(report.format_series_barchart(fig))
    return 0


def _append_bench_history(report_path, payload: dict):
    """Append one machine/preset-keyed line to ``BENCH_history.jsonl``
    next to the report, so successive ``repro bench`` runs accumulate a
    local performance timeline.  Best-effort: an unwritable history file
    never fails the bench that produced it.  Returns the history path,
    or ``None`` if the append failed."""
    import platform

    entry = {
        "timestamp": payload["timestamp"],
        "host": platform.node() or "unknown",
        "machine": platform.machine() or "unknown",
        "mesh": payload["mesh"],
        "profile": payload["profile"],
        "configs": payload["configs"],
        "jobs": payload["jobs"],
        "serial_s": payload["serial_s"],
        "parallel_s": payload["parallel_s"],
        "warm_s": payload["warm_s"],
        "speedup": payload["speedup"],
    }
    history = report_path.parent / "BENCH_history.jsonl"
    try:
        with history.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError:
        return None
    return history


def _cmd_bench(args) -> int:
    """Cold serial vs cold parallel vs warm recall over one plan."""
    import tempfile
    from pathlib import Path

    from repro.experiments.executor import ExecutionPlan, execute_plan
    from repro.obs import gate

    jobs = _jobs(args)
    dims = _mesh_dims(args.mesh)
    plan = (ExecutionPlan.smoke(dims) if args.profile == "smoke"
            else ExecutionPlan.standard(dims))

    # --schedule NAME[,NAME...]: replay discovered pass schedules (the
    # autotune ledger) as extra runs; their per-phase cycles join
    # phase_cycles, so a committed baseline gates them like any rung.
    schedules: list[tuple[str, ...]] = []
    if args.schedule:
        from repro.compiler.transforms import (
            PipelineError,
            pipeline_from_names,
        )

        for spec in args.schedule:
            names = tuple(s.strip() for s in spec.split(",") if s.strip())
            try:
                pipeline_from_names(names)  # legality: spelling + registry
            except PipelineError as exc:
                print(f"[bench] bad --schedule {spec!r}: {exc}",
                      file=sys.stderr, flush=True)
                return 2
            schedules.append(names)
        extras = [RunConfig(opt="vanilla", vector_size=240, mesh_dims=dims,
                            passes=names or None) for names in schedules]
        plan = ExecutionPlan.from_configs(list(plan) + extras)

    def timed(cache_dir, n):
        t0 = time.perf_counter()
        res = execute_plan(plan, cache_dir=cache_dir, jobs=n)
        return time.perf_counter() - t0, res

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as td:
        print(f"[bench] {len(plan)} configs, mesh {dims}, jobs={jobs}",
              file=sys.stderr, flush=True)
        serial_s, serial_res = timed(Path(td) / "serial", 1)
        parallel_s, parallel_res = timed(Path(td) / "parallel", jobs)
        warm_s, warm_res = timed(Path(td) / "parallel", jobs)

    payload = {
        "paper": "Exploiting long vectors with a CFD code (IPPS 2024)",
        "mesh": list(dims),
        "profile": args.profile,
        "schedules": [list(s) for s in schedules],
        "configs": len(plan),
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "cold_cache_hits": serial_res.stats.cache_hits,
        "cold_simulated": serial_res.stats.simulated,
        "warm_cache_hits": warm_res.stats.cache_hits,
        "warm_simulated": warm_res.stats.simulated,
        "retries": parallel_res.stats.retries,
        "failures": parallel_res.stats.failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # per-phase cycle counts: what --baseline gates a future PR on.
        "phase_cycles": gate.phase_cycles_payload(serial_res.runs),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    history = _append_bench_history(Path(args.output), payload)
    rows = [["", "wall-clock [s]", "simulated", "cache hits"],
            ["serial (j=1)", f"{serial_s:.2f}",
             str(serial_res.stats.simulated), str(serial_res.stats.cache_hits)],
            [f"parallel (j={jobs})", f"{parallel_s:.2f}",
             str(parallel_res.stats.simulated),
             str(parallel_res.stats.cache_hits)],
            ["warm recall", f"{warm_s:.2f}", str(warm_res.stats.simulated),
             str(warm_res.stats.cache_hits)]]
    print(report.format_table(rows))
    print(f"\nspeedup (serial/parallel): {payload['speedup']}x"
          f" -- report written to {args.output}"
          + (f", history appended to {history}" if history else ""))
    if schedules:
        print("replayed schedule(s): "
              + ", ".join("+".join(s) or "baseline" for s in schedules))

    if args.baseline:
        threshold = (gate.DEFAULT_THRESHOLD if args.threshold is None
                     else args.threshold)
        try:
            breaches = gate.check_report(payload, args.baseline,
                                         threshold=threshold)
        except ValueError as exc:
            print(f"[bench] unusable baseline: {exc}",
                  file=sys.stderr, flush=True)
            return 2
        gated = len(set(payload["phase_cycles"]))
        if breaches:
            print(f"\nFAIL: {len(breaches)} phase cycle count(s) drifted "
                  f"past {threshold:.0%} vs {args.baseline}:")
            for b in breaches:
                print(f"  {b.describe()}")
            return 1
        print(f"\ngate: {gated} run(s) within {threshold:.0%} "
              f"of {args.baseline}")
    return 0


def _service_time_runs(socket: str, tenant: str):
    """Timing stage for ``repro autotune --socket``: submit the candidate
    plan to a running sweep service as one ``autotune``-kind job, wait,
    and fold the fetched payloads back into RunCounters."""
    from repro.metrics.counters import counters_from_dict
    from repro.service import ServiceClient

    def time_runs(configs):
        client = ServiceClient(socket)
        resp = client.submit(list(configs), tenant=tenant, kind="autotune")
        if not resp.get("ok"):
            raise RuntimeError(
                f"service rejected the candidate plan: "
                f"{resp.get('rejected', resp.get('error'))}")
        job_id = resp["job_id"]
        print(f"[autotune] candidates submitted as job {job_id} "
              f"(kind autotune)", file=sys.stderr, flush=True)
        view = client.wait(job_id)
        if view.get("status") != "done":
            raise RuntimeError(
                f"autotune job {job_id} finished {view.get('status')!r}: "
                f"{view.get('error', '')}")
        fetched = client.fetch(job_id)
        return {key: counters_from_dict(payload)
                for key, payload in fetched["results"].items()}

    return time_runs


def _cmd_autotune(args) -> int:
    from pathlib import Path

    from repro.autotune import AutotuneError, run_autotune

    if args.preset:
        args.mesh = args.preset
    dims = _mesh_dims(args.mesh)
    time_runs = (_service_time_runs(args.socket, args.tenant)
                 if args.socket else None)
    print(f"[autotune] machine {args.machine}, mesh {dims}, "
          f"VECTOR_SIZE {args.vs}, {args.profile} profile, "
          f"seed {args.seed}", file=sys.stderr, flush=True)
    try:
        rep = run_autotune(dims, machine=args.machine, vector_size=args.vs,
                           profile=args.profile, seed=args.seed,
                           backend=args.backend, jobs=_jobs(args),
                           time_runs=time_runs)
    except (AutotuneError, RuntimeError, ValueError) as exc:
        print(f"[autotune] {exc}", file=sys.stderr, flush=True)
        return 1
    Path(args.output).write_text(rep.to_json())
    if args.summary:
        Path(args.summary).write_text(rep.winner_table_markdown())

    counts = rep.counts
    print(f"candidates: {counts['enumerated']} enumerated, "
          f"{counts['pruned']} pruned, {counts['invalid']} invalid, "
          f"{counts['timed']} timed")
    print()
    print(report.format_table(rep.winner_rows()))
    fam = rep.vec1_family
    print(f"\nVEC1 family verdict: subset_ok={fam['subset_ok']} "
          f"union_equals_vec1={fam['union_equals_vec1']} "
          f"rediscovered={fam['rediscovered']}")
    print(f"report written to {args.output}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import run_chaos_campaign

    if args.service_only:
        from repro.service.chaos import run_service_campaign

        rep = run_service_campaign(seed=args.seed, mesh=args.mesh,
                                   out_dir=args.output,
                                   verbose=args.verbose,
                                   include_kill=not args.no_kill)
    else:
        jobs = max(2, _jobs(args))  # kill/hang stages need a real pool
        rep = run_chaos_campaign(seed=args.seed, mesh=args.mesh,
                                 out_dir=args.output, jobs=jobs,
                                 verbose=args.verbose,
                                 pass_faults=args.pass_faults,
                                 service_faults=args.service_faults,
                                 backend=args.backend)
    rows = [["stage", "fault", "target", "outcome"]]
    for st in rep.stages:
        rows.append([st.name, st.kind, st.target or "-", st.classification])
    print(report.format_table(rows))
    counts = rep.counts
    print(f"\nseed {rep.seed}: {counts['recovered']} recovered, "
          f"{counts['detected']} detected, "
          f"{counts.get('degraded', 0)} degraded, "
          f"{counts['rejected']} rejected, "
          f"{counts['clean']} clean, {counts['silent']} silent "
          f"-- report written to {args.output}/chaos-report.json")
    if not rep.ok:
        print("FAIL: injected fault(s) were silently absorbed",
              file=sys.stderr, flush=True)
        return 1
    if args.validate:
        from repro.faults.injector import pass_fault_mutator
        from repro.faults.plan import PASS_FAULT_KINDS, PASS_FAULT_RUNGS
        from repro.validation.golden import golden_check
        from repro.validation.probe import Probe

        vrows = [["rung", "pipeline stages", "outcome"]]
        stages_ok = True
        for rung in ("vanilla", "vec2", "ivec2", "vec1"):
            g = golden_check(Probe(opt=rung, backend=args.backend),
                             transformed=True)
            stages_ok &= g.ok
            vrows.append([rung, str(len(g.stages)),
                          "ok" if g.ok else "FAIL"])
        # every kind in the vocabulary is drilled; a listed-but-stubbed
        # kind raises in pass_fault_mutator instead of being skipped.
        drills_ok = True
        for kind in PASS_FAULT_KINDS:
            rung = PASS_FAULT_RUNGS[kind]
            bad = golden_check(Probe(opt=rung, backend=args.backend),
                               mutate=pass_fault_mutator(kind))
            drills_ok &= not bad.ok
            vrows.append([f"{rung} + {kind}", "fault drill",
                          "detected" if not bad.ok else "SILENT"])
        print()
        print(report.format_table(vrows))
        if not stages_ok or not drills_ok:
            print("FAIL: pass-pipeline golden validation",
                  file=sys.stderr, flush=True)
            return 1
    return 0


def _make_app(args):
    from repro.experiments.executor import build_miniapp

    return build_miniapp(_run_config(args))


def _cmd_remarks(args) -> int:
    app = _make_app(args)
    for r in app.remarks:
        print(r)
    return 0


def _cmd_passes(args) -> int:
    from repro.compiler.irprint import format_kernel

    if args.preset:
        args.mesh = args.preset
    app = _make_app(args)
    names = list(app.pipeline.pass_names)
    print(f"pass pipeline for opt={app.opt!r}: {names or '(empty)'}")
    if not names:
        print("no transformation passes scheduled at this rung; the "
              "canonical baseline kernels go straight to the vectorizer.")
        return 0
    kernels = list(app.baseline_kernels)
    for p in app.pipeline:
        for i, kern in enumerate(kernels):
            new, remark = p.run(kern)
            kernels[i] = new
            if remark.status == "applied":
                print(f"\n== {remark}")
                print("-- before:")
                print(format_kernel(kern, elide_exprs=not args.full))
                print("-- after:")
                print(format_kernel(new, elide_exprs=not args.full))
            elif remark.status == "illegal" or args.verbose:
                print(f"\n== {remark}")
    return 0


def _cmd_advise(args) -> int:
    from repro.codesign import Advisor, render_findings
    from repro.machine.machines import get_machine

    app = _make_app(args)
    advisor = Advisor(get_machine(args.machine))
    print(render_findings(advisor.analyze_miniapp(app)))
    return 0


def _cmd_codesign(args) -> int:
    from repro.cfd.mesh import box_mesh
    from repro.codesign import run_codesign_loop
    from repro.machine.machines import get_machine

    cfg = _run_config(args)
    # the loop starts from the auto-vectorized baseline unless the user
    # explicitly asks to start mid-ladder (vec2 / ivec2).
    start = cfg.opt if cfg.opt in ("vec2", "ivec2") else "vanilla"
    result = run_codesign_loop(box_mesh(*cfg.mesh_dims),
                               get_machine(cfg.machine),
                               vector_size=cfg.vector_size, start_opt=start)
    rows = [["step", "cycles", "speed-up vs start", "next"]]
    for s in result.steps:
        rows.append([s.opt, f"{s.total_cycles:,.0f}",
                     f"{s.speedup_vs_start:.2f}x", s.next_opt or "-"])
    print(report.format_table(rows))
    print(f"\nfinal: {result.final_speedup:.2f}x over {result.sequence[0]}")
    return 0


#: logical stage order of a traced service job — the render sorts by
#: stage first so the timeline reads submit → queue → execute → store
#: even though worker-process spans carry their own wall epoch.
_TRACE_STAGE_ORDER = {"client": 0, "service": 1, "worker": 2,
                      "run": 2, "store": 3}


def _cmd_trace_job(args) -> int:
    """Render a traced service job's single cross-process timeline from
    the trace file the service exported at job completion."""
    from pathlib import Path

    path = Path(args.state_dir) / "traces" / f"{args.job}.json"
    if not path.exists():
        print(f"no trace for job {args.job}: {path} not found "
              f"(was the job submitted with --trace?)",
              file=sys.stderr, flush=True)
        return 1
    doc = json.loads(path.read_text())
    meta = doc.get("otherData", {})
    events = doc.get("traceEvents", [])
    trace_id = meta.get("trace_id", "")

    spans = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        cat = ev.get("cat", "")
        if cat not in _TRACE_STAGE_ORDER:
            continue  # SIM phase/block spans: not part of the job story
        spans.append(ev)
    spans.sort(key=lambda e: (_TRACE_STAGE_ORDER.get(e.get("cat", ""), 9),
                              e.get("ts", 0), str(e.get("name", ""))))
    ids = sorted({str(e.get("args", {}).get("trace", ""))
                  for e in spans} - {""})

    print(f"job {args.job} — trace {trace_id or '?'} "
          f"(tenant {meta.get('tenant', '?')}, {len(spans)} span(s) "
          f"across {len({e.get('pid') for e in spans})} process row(s))")
    rows = [["stage", "span", "t [ms]", "dur [ms]", "pid"]]
    for ev in spans:
        rows.append([ev.get("cat", "?"), str(ev.get("name", "?")),
                     f"{ev.get('ts', 0) / 1e3:.3f}",
                     f"{ev.get('dur', 0) / 1e3:.3f}",
                     str(ev.get("pid", "?"))])
    print(report.format_table(rows))
    if ids and (len(ids) > 1 or (trace_id and ids != [trace_id])):
        print(f"\nWARNING: spans carry {len(ids)} distinct trace id(s): "
              f"{', '.join(ids)}", file=sys.stderr, flush=True)
        return 1
    print(f"\nall spans share trace id {trace_id or (ids[0] if ids else '?')}"
          f" — full Chrome trace at {path}")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.machine.machines import get_machine
    from repro.obs import chrome, render
    from repro.trace import paraver, phase_stats

    if args.job:
        return _cmd_trace_job(args)
    if args.preset:
        args.mesh = args.preset
    tracer = obs.Tracer()
    solve_info = None
    # build the app *inside* the tracer context so the transformation
    # pass spans/remarks land in the trace alongside the run.
    with obs.use(tracer):
        app = _make_app(args)
        if getattr(args, "solve", False):
            _, solve_info = app.run_timed_solve(get_machine(args.machine))
        else:
            app.run_timed(get_machine(args.machine))
    paraver.dump(tracer, args.output, with_config=True)
    written = [str(args.output)]
    if args.out:
        chrome.dump(tracer, args.out,
                    meta={"mesh": args.mesh, "machine": args.machine,
                          "opt": args.opt, "vector_size": args.vs,
                          "field_seed": args.seed})
        written.append(str(args.out))

    remarks = [p for p in tracer.points if p.cat == "pass"]
    if remarks:
        print(f"transform pipeline ({len(remarks)} remark(s)):")
        for p in remarks:
            a = dict(p.args)
            print(f"  phase {a.get('phase')} [{a.get('pass_name')}] "
                  f"{a.get('status')}: {a.get('reason')}")
        print()

    stats = phase_stats(tracer)
    rows = [["phase", "cycles", "vector instrs", "AVL"]]
    for p in sorted(stats):
        s = stats[p]
        rows.append([str(p), f"{s.cycles:,.0f}", f"{s.vector_instrs:,.0f}",
                     f"{s.avl:.0f}"])
    print(report.format_table(rows))
    if solve_info:
        print(f"\nsolver: {solve_info['method']} "
              f"converged={solve_info['converged']} "
              f"iterations={solve_info['iterations']} "
              f"final relative residual={solve_info['residual']:.3e}")
    print()
    print(render.render_timeline(tracer))
    hist = tracer.vl_histogram()
    if hist:
        print()
        print(render.render_vl_hist(
            hist, f"granted-vl histogram ({args.opt} vs{args.vs})", top=8))
    print(f"\ntrace written to {', '.join(written)}")
    return 0


def _cmd_roofline(args) -> int:
    from repro.machine.machines import get_machine
    from repro.metrics.roofline import render_roofline, run_roofline

    app = _make_app(args)
    machine = get_machine(args.machine)
    run = app.run_timed(machine)
    print(render_roofline(run_roofline(run, machine), machine))
    return 0


def _cmd_serve(args) -> int:
    from repro.service import SweepServer, SweepService, default_socket_path

    worker = None
    if args.worker_delay > 0:
        from repro.faults.injector import DelayedWorker

        worker = DelayedWorker(args.worker_delay)
    service = SweepService(args.state_dir, jobs=_jobs(args),
                           timeout_s=args.timeout_s, retries=args.retries,
                           validate=args.validate, worker=worker)
    sock = args.socket or default_socket_path(args.state_dir)
    server = SweepServer(service, sock)
    print(f"[serve] sweep service on {sock} (state: {args.state_dir}, "
          f"resumed {service.resumed_jobs} in-flight job(s))",
          file=sys.stderr, flush=True)
    server.serve_forever()
    print("[serve] drained, journal closed", file=sys.stderr, flush=True)
    return 0


def _submit_configs(args) -> list[RunConfig]:
    if args.ladder:
        from repro.experiments.executor import ExecutionPlan

        return list(ExecutionPlan.ladder(mesh=_mesh_dims(args.mesh)))
    return [_run_config(args)]


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.socket)
    resp = client.submit(_submit_configs(args), tenant=args.tenant,
                         priority=args.priority, trace=args.trace)
    if not resp.get("ok"):
        # an explicit rejection is the admission contract, not a crash.
        print(f"rejected: {resp.get('rejected', resp.get('error'))}",
              file=sys.stderr, flush=True)
        return 1
    job_id = resp["job_id"]
    print(f"submitted {job_id} (queue depth {resp['queued']})"
          + (f", trace {resp['trace_id']} — inspect with "
             f"'repro trace --job {job_id}'"
             if resp.get("trace_id") else ""))
    if args.stream:
        for rec in client.stream(job_id):
            if "event" in rec:
                ev = rec["event"]
                key = ev.get("key", "")
                print(f"  {ev.get('kind', '?'):<12} {key}")
            elif "done" in rec:
                return _print_job(rec["job"])
        return 1
    if args.wait:
        return _print_job(client.wait(job_id))
    return 0


def _print_job(view: dict) -> int:
    print(f"{view['job_id']}: {view['status']} — "
          f"{view['completed']}/{view['total']} completed "
          f"({view['from_store']} from store, "
          f"{view['recomputed']} computed)"
          + (f"; error: {view['error']}" if view.get("error") else ""))
    return 0 if view["status"] == "done" else 1


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.socket)
    if args.drain:
        resp = client.drain()
        print(f"draining (queue depth {resp.get('queue_depth')}, "
              f"running {resp.get('running') or '-'})")
        return 0
    if args.shutdown:
        client.shutdown()
        print("shutdown requested")
        return 0
    if args.health:
        print(json.dumps(client.health(), indent=2, sort_keys=True))
        return 0
    if args.job and args.results:
        resp = client.fetch(args.job)
        if not resp.get("ok"):
            print(resp.get("error"), file=sys.stderr, flush=True)
            return 1
        results = resp["results"]
        print(json.dumps(results, indent=2, sort_keys=True))
        # solver convergence digest (stderr: stdout stays pipeable JSON)
        for key in sorted(results):
            info = (results[key] or {}).get("__solve__")
            if info:
                print(f"{key}: solver {info.get('method')} "
                      f"converged={info.get('converged')} "
                      f"iterations={info.get('iterations')} "
                      f"residual={info.get('residual'):.3e}",
                      file=sys.stderr, flush=True)
        return 0
    if args.job:
        resp = client.poll(args.job)
        if not resp.get("ok"):
            print(resp.get("error"), file=sys.stderr, flush=True)
            return 1
        return _print_job(resp["job"])
    views = client.jobs().get("jobs", [])
    if not views:
        print("no jobs")
        return 0
    rows = [["job", "tenant", "kind", "prio", "status", "done", "store",
             "computed"]]
    for v in views:
        rows.append([v["job_id"], v["tenant"], v.get("kind", "sweep"),
                     f"{v['priority']:g}",
                     v["status"], f"{v['completed']}/{v['total']}",
                     str(v["from_store"]), str(v["recomputed"])])
    print(report.format_table(rows))
    # one health line under the table: the service-side view the job
    # rows alone can't show (queue, breaker, liveness, SLO state).
    h = client.health()
    breaker = h.get("breaker", {})
    print(f"\nservice {h.get('status', '?')} — "
          f"queue {h.get('queue_depth', '?')}, "
          f"running {h.get('running') or '-'}, "
          f"breaker {breaker.get('state', '?')} "
          f"({breaker.get('trips', 0)} trip(s)), "
          f"rejected {h.get('rejected_total', 0)}, "
          f"slo breaches {h.get('slo_breaches', 0)}")
    return 0


def _render_top(health: dict, metrics: dict) -> str:
    """One dashboard frame: service line, tenant/SLO table, counters."""
    lines = []
    breaker = health.get("breaker", {})
    store = health.get("store", {})
    jobs = health.get("jobs", {})
    lines.append(
        f"sweep service: {health.get('status', '?')} — "
        f"queue {health.get('queue_depth', '?')}, "
        f"running {health.get('running') or '-'}, "
        f"breaker {breaker.get('state', '?')} "
        f"({breaker.get('trips', 0)} trip(s))")
    lines.append(
        f"jobs: " + (", ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
                     or "none")
        + f"; store: {store.get('objects', 0)} object(s), "
          f"{store.get('dedup_hits', 0)} dedup hit(s); "
          f"rejected {health.get('rejected_total', 0)}, "
          f"slo breaches {health.get('slo_breaches', 0)}")
    lines.append("")

    counters = metrics.get("metrics", {}).get("counters", {})

    def _count(name: str, tenant: str) -> str:
        return f"{counters.get(f'{name}{{tenant={tenant}}}', 0):g}"

    slo = metrics.get("slo", {})
    rows = [["tenant", "submit", "reject", "done", "failed",
             "wait p95 [s]", "rate", "slo"]]
    for tenant in sorted(slo):
        v = slo[tenant]
        wait, rate = v.get("queue_wait", {}), v.get("completion_rate", {})
        rows.append([
            tenant,
            _count("service_submits_total", tenant),
            _count("service_rejects_total", tenant),
            _count("service_jobs_done_total", tenant),
            _count("service_jobs_failed_total", tenant),
            str(wait.get("p95_s", "-")),
            "-" if rate.get("rate") is None else f"{rate['rate']:.2f}",
            "ok" if v.get("ok") else "BREACH",
        ])
    if len(rows) > 1:
        lines.append(report.format_table(rows))
    else:
        lines.append("no tenants yet — waiting for submissions")
    policy = metrics.get("slo_policy", {})
    if policy:
        lines.append(
            f"\nslo policy: queue-wait p95 <= "
            f"{policy.get('queue_wait_p95_s')}s, completion rate >= "
            f"{policy.get('completion_rate_min')} "
            f"(judged after {policy.get('min_events')} event(s))")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    from repro.service import ServiceClient, ServiceError, stable_status

    client = ServiceClient(args.socket)
    if args.json and not args.once:
        print("--json requires --once (the curated snapshot is for "
              "scripting, not the refresh loop)", file=sys.stderr, flush=True)
        return 2
    try:
        while True:
            health = client.health()
            metrics = client.metrics()
            if args.json:
                print(json.dumps(stable_status(health, metrics),
                                 indent=2, sort_keys=True))
                return 0
            frame = _render_top(health, metrics)
            if args.once:
                print(frame)
                return 0
            # home + clear-to-end keeps the frame flicker-free.
            print(f"\x1b[H\x1b[2J{frame}", flush=True)
            time.sleep(args.interval)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr, flush=True)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": lambda: _cmd_info(),
        "table": lambda: _cmd_table(args),
        "figure": lambda: _cmd_figure(args),
        "sweep": lambda: _cmd_sweep(args),
        "report": lambda: _cmd_report(args),
        "bench": lambda: _cmd_bench(args),
        "autotune": lambda: _cmd_autotune(args),
        "chaos": lambda: _cmd_chaos(args),
        "remarks": lambda: _cmd_remarks(args),
        "passes": lambda: _cmd_passes(args),
        "advise": lambda: _cmd_advise(args),
        "codesign": lambda: _cmd_codesign(args),
        "trace": lambda: _cmd_trace(args),
        "roofline": lambda: _cmd_roofline(args),
        "serve": lambda: _cmd_serve(args),
        "submit": lambda: _cmd_submit(args),
        "jobs": lambda: _cmd_jobs(args),
        "top": lambda: _cmd_top(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
