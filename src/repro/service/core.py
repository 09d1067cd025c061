"""The supervised sweep service core.

:class:`SweepService` promotes the chaos-hardened executor into
long-running, multi-tenant infrastructure.  One instance owns a *state
directory*::

    state_dir/service.journal   durable job table (jobs.py vocabulary)
    state_dir/store/            the content-addressed result store, which
                                ``execute_plan`` writes into directly

and exposes the queue API the socket front end (:mod:`.server`) and the
CLI speak: :meth:`submit` / :meth:`poll` / :meth:`stream` /
:meth:`jobs` / :meth:`health` / :meth:`drain` / :meth:`fetch`.

Robustness properties, each proven by a chaos stage:

* **durability** — every completed run is fsynced into the store and
  journaled *before* the service acknowledges it; kill -9 at any
  instant and a restarted service re-dispatches in-flight jobs with
  every previously completed result served from the store, zero
  recomputation (``service_kill`` stage);
* **dedup** — identical configs from any tenant resolve through the
  store's link plane: a million users sweeping the same config space
  cost one simulation (baseline stage's cross-tenant drill);
* **admission control** — token-bucket rate limits per tenant and
  global, plus a queue-depth bound; every rejection is an explicit
  response with a reason, journaled, never a silent drop
  (``submission_flood`` stage);
* **circuit breaking** — repeated job failures trip the breaker; new
  work is rejected while open, one probe is admitted after the
  cooldown, and a probe success restores service
  (``worker_failure_storm`` stage);
* **bounded degradation** — per-run timeout/retry/backoff/quarantine
  are inherited from :func:`~repro.experiments.executor.execute_plan`
  (``hung_worker`` stage), and a torn store shard fails its digest
  check and is recomputed, surfaced as a ``store_corrupt`` event
  (``torn_shard`` stage).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.experiments.config import RunConfig
from repro.experiments.executor import (
    RunEvent,
    execute_plan,
    link_name,
    simulate_to_dict,
)
from repro.experiments.store import ResultStore
from repro.obs import chrome
from repro.obs.metrics import use as _metrics_use
from repro.obs.tracer import WALL, Tracer
from repro.obs.tracer import active as _obs_active
from repro.obs.tracer import use as _obs_use
from repro.service.admission import AdmissionController, Decision
from repro.service.breaker import CircuitBreaker
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    ServiceJournal,
    replay_service_journal,
)
from repro.service.scheduler import PriorityScheduler
from repro.service.telemetry import ServiceTelemetry, SLOPolicy


def _event_dict(ev: RunEvent) -> dict:
    return {"kind": ev.kind, "key": ev.key, "attempt": ev.attempt,
            "wall_s": round(ev.wall_s, 6), "error": ev.error,
            "queued": ev.queued}


class TracedJobWorker:
    """Picklable worker wrapper opening one ``worker-execute`` span per
    config on whatever tracer is ambient where the config actually runs,
    and stamping the job's trace id into the payload as ``__trace__``
    (digest-neutral; the store keeps it in the object).

    In-process (``jobs=1``) that is the job's own tracer, installed by
    :meth:`SweepService._process`; in a pool worker it is the fresh
    tracer :class:`~repro.obs.workers.TracedWorker` installs, so the
    span lands in the per-worker trace file and is merged back with a
    remapped pid — either way the span carries the job's trace id and
    the cross-process timeline stays one timeline.
    """

    def __init__(self, worker: Callable[[RunConfig], dict], trace_id: str):
        self.worker = worker
        self.trace_id = trace_id

    def __call__(self, cfg: RunConfig) -> dict:
        tracer = _obs_active()
        if tracer is None:
            payload = self.worker(cfg)
        else:
            with tracer.span(f"worker-execute {cfg.key()}", cat="worker",
                             trace=self.trace_id, key=cfg.key()):
                payload = self.worker(cfg)
        return {**payload, "__trace__": self.trace_id}


class SweepService:
    """Supervised, multi-tenant job queue in front of ``execute_plan``."""

    def __init__(self, state_dir: str,  *,
                 jobs: int = 1,
                 timeout_s: Optional[float] = 30.0,
                 retries: int = 1,
                 backoff_s: float = 0.05,
                 validate: bool = False,
                 worker: Optional[Callable[[RunConfig], dict]] = None,
                 admission: Optional[AdmissionController] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 scheduler: Optional[PriorityScheduler] = None,
                 telemetry: Optional[ServiceTelemetry] = None,
                 slo: Optional[SLOPolicy] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_n = max(1, jobs)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.validate = validate
        self.worker = worker or simulate_to_dict
        self.admission = admission or AdmissionController(clock=clock)
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.scheduler = scheduler or PriorityScheduler()
        self.telemetry = telemetry or ServiceTelemetry(slo=slo)
        self.clock = clock
        self.store = ResultStore(self.state_dir / "store",
                                 metrics=self.telemetry.registry)
        self.traces_dir = self.state_dir / "traces"
        # every component publishes into the one telemetry registry.
        self.admission.metrics = self.telemetry.registry
        self.breaker.on_transition = self.telemetry.record_breaker_transition

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.draining = False
        self._running_job: Optional[str] = None

        # -- resume: fold the journal, requeue whatever was in flight ------
        journal_path = self.state_dir / "service.journal"
        state = replay_service_journal(journal_path)
        self._jobs: dict[str, Job] = state.jobs if state else {}
        self._order: list[str] = list(state.order) if state else []
        self._seq = state.next_seq() if state else 1
        self.rejected_total = state.rejected if state else 0
        self.resumed_jobs = 0
        self._journal = ServiceJournal(journal_path)
        self._journal.record("service_start", jobs=self.jobs_n)
        if state:
            # counters survive kill -9: the journal fold re-seeds the
            # metrics plane before any new work is accepted.
            self.telemetry.seed(state)
            now = self.clock()
            for job in state.unfinished():
                job.status = QUEUED
                job.submitted_at = now
                self.scheduler.push(job.job_id, job.priority, now)
                self.resumed_jobs += 1
        self.telemetry.set_queue_depth(len(self.scheduler))

    # -- submission --------------------------------------------------------

    def submit(self, configs: Iterable[RunConfig] | RunConfig,
               tenant: str = "default", priority: float = 0.0,
               trace_id: str = "", kind: str = "sweep") -> dict:
        """Enqueue one sweep; returns ``{"ok": True, "job_id": ...}`` or
        an explicit ``{"ok": False, "rejected": reason}`` — a submission
        is *never* silently dropped.

        *kind* labels the workload (``sweep`` by default, ``autotune``
        for candidate-timing plans submitted by ``repro autotune``); it
        is journaled, survives restart, and shows in ``repro jobs``.

        A non-empty *trace_id* (stamped by a traced
        :meth:`~repro.service.client.ServiceClient.submit`) makes this a
        **traced job**: the service opens a per-job tracer whose epoch is
        the submission instant, stamps a ``client-submit`` marker, and
        every later stage — queue wait, worker execution (in-process or
        across the pool), store writes — lands on the same timeline,
        exported to ``state_dir/traces/<job_id>.json`` at job terminal.
        """
        if isinstance(configs, RunConfig):
            configs = [configs]
        configs = tuple(configs)
        if not configs:
            return self._reject(tenant, "empty submission: no configs")
        with self._cond:
            if self.draining:
                return self._reject(tenant, "service draining: no new work "
                                            "accepted, retry after restart")
            if not self.breaker.allow():
                return self._reject(
                    tenant, f"circuit breaker {self.breaker.describe()}")
            decision: Decision = self.admission.admit(
                tenant, queue_depth=len(self.scheduler))
            if not decision.admitted:
                return self._reject(tenant, decision.reason)
            job_id = f"j{self._seq:05d}"
            self._seq += 1
            job = Job(job_id=job_id, tenant=tenant, priority=float(priority),
                      configs=configs, trace_id=str(trace_id or ""),
                      kind=str(kind or "sweep"))
            job.submitted_at = self.clock()
            if job.trace_id:
                job.tracer = Tracer()
                job.tracer.span_at("client-submit", cat="client",
                                   t0=0.0, t1=0.0, domain=WALL,
                                   trace=job.trace_id, job=job_id,
                                   tenant=tenant)
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._journal.record("submit", job_id=job_id, tenant=tenant,
                                 priority=float(priority),
                                 trace_id=job.trace_id, kind=job.kind,
                                 configs=[c.to_dict() for c in configs])
            self.scheduler.push(job_id, float(priority), self.clock())
            self.telemetry.record_submit(tenant)
            self.telemetry.set_queue_depth(len(self.scheduler))
            tracer = _obs_active()
            if tracer is not None:
                tracer.event("job submitted", cat="service", job=job_id,
                             tenant=tenant, configs=len(configs))
                tracer.counter("service queue depth", len(self.scheduler))
            self._cond.notify_all()
            resp = {"ok": True, "job_id": job_id,
                    "queued": len(self.scheduler)}
            if job.trace_id:
                resp["trace_id"] = job.trace_id
            return resp

    def _reject(self, tenant: str, reason: str) -> dict:
        self.rejected_total += 1
        self._journal.record("rejected", tenant=tenant, reason=reason)
        self.telemetry.record_reject(tenant, reason)
        # a rejection can flip a tenant's completion-rate SLO: evaluate
        # now so the breach is journaled while it is happening, not at
        # the next dashboard poll.
        self.telemetry.check_slos(self._journal.record)
        tracer = _obs_active()
        if tracer is not None:
            tracer.event("submission rejected", cat="service",
                         tenant=tenant, reason=reason)
        return {"ok": False, "rejected": reason}

    # -- processing --------------------------------------------------------

    def process_next(self, wait_s: float = 0.0) -> Optional[str]:
        """Run the most urgent queued job to completion (in this thread);
        returns its id, or ``None`` when the queue stayed idle for
        *wait_s*."""
        deadline = self.clock() + wait_s
        with self._cond:
            job_id = self.scheduler.pop(self.clock())
            while job_id is None:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return None
                self._cond.wait(min(remaining, 0.2))
                job_id = self.scheduler.pop(self.clock())
            job = self._jobs[job_id]
            job.status = RUNNING
            self._running_job = job_id
            self._journal.record("job_start", job_id=job_id)
            wait_s = max(0.0, self.clock() - job.submitted_at)
            self.telemetry.record_queue_wait(job.tenant, wait_s)
            self.telemetry.set_queue_depth(len(self.scheduler))
            if job.tracer is not None:
                job.tracer.span_at("queue-wait", cat="service",
                                   t0=0.0, t1=wait_s, domain=WALL,
                                   trace=job.trace_id, job=job_id)
        try:
            self._process(job)
        finally:
            with self._lock:
                self._running_job = None
        return job_id

    def _complete(self, job: Job, key: str, digest: str, source: str) -> None:
        """Mark one config done — store linked, journal written, event
        emitted — under the service lock."""
        with self._lock:
            job.completed[key] = digest
            job.sources[key] = source
            job.events.append({"kind": "store_hit" if source != "computed"
                               else "done", "key": key, "source": source})
            self._journal.record("config_done", job_id=job.job_id, key=key,
                                 digest=digest, source=source)
            self.telemetry.record_config_done(source)

    def _process(self, job: Job) -> None:
        t_start = self.clock()
        if job.tracer is not None:
            # traced job: its own tracer becomes ambient, so the
            # executor, machine, and pool workers all land on the job's
            # timeline (a cross-process single trace).
            with _obs_use(job.tracer):
                self._process_spanned(job)
        else:
            self._process_spanned(job)
        wall_s = max(0.0, self.clock() - t_start)
        if job.status == DONE:
            self.telemetry.record_job_done(job.tenant, wall_s)
        elif job.status == FAILED:
            self.telemetry.record_job_failed(job.tenant, wall_s)
        self.telemetry.check_slos(self._journal.record)
        self._export_job_trace(job)

    def _process_spanned(self, job: Job) -> None:
        tracer = _obs_active()
        if tracer is None:
            self._process_inner(job, None)
            return
        with tracer.span("job", cat="service", job=job.job_id,
                         tenant=job.tenant):
            self._process_inner(job, tracer)

    def _export_job_trace(self, job: Job) -> None:
        """Write a traced job's merged timeline (Chrome format) to
        ``state_dir/traces/<job_id>.json`` — what ``repro trace --job``
        reads.  A failed export never fails the job."""
        if job.tracer is None:
            return
        try:
            self.traces_dir.mkdir(parents=True, exist_ok=True)
            chrome.dump(job.tracer, self.traces_dir / f"{job.job_id}.json",
                        include_wall=True,
                        meta={"trace_id": job.trace_id, "job_id": job.job_id,
                              "tenant": job.tenant})
        except OSError:  # pragma: no cover - disk trouble
            pass

    def _process_inner(self, job: Job, tracer) -> None:
        cfg_by_key = {cfg.key(): cfg for cfg in job.configs}

        # -- resumed completions: serve from the store, never recompute ----
        for key in list(job.completed):
            payload = self.store.get(job.completed[key])
            if payload is None:
                # lost or torn object: recompute this one config.
                with self._lock:
                    job.events.append({"kind": "store_corrupt", "key": key,
                                       "error": "journaled result missing "
                                                "from store"})
                    del job.completed[key]
                    job.sources.pop(key, None)
            else:
                self._complete(job, key, job.completed[key], "store")

        # -- cross-tenant / cross-job dedup through the link plane ---------
        before = self.store.stats.corrupt_discarded
        for key, cfg in cfg_by_key.items():
            if key in job.completed:
                continue
            payload = self.store.lookup(link_name(cfg))
            if payload is not None:
                self._complete(job, key, payload["__digest__"], "store")
        torn = self.store.stats.corrupt_discarded - before
        if torn:
            with self._lock:
                job.events.append({"kind": "store_corrupt",
                                   "error": f"{torn} torn shard object(s) "
                                            "discarded, recomputing"})
            if tracer is not None:
                tracer.event("store corruption repaired", cat="service",
                             job=job.job_id, objects=torn)

        remaining = [cfg for key, cfg in cfg_by_key.items()
                     if key not in job.completed]

        def on_event(ev: RunEvent) -> None:
            # execute_plan has already put and linked a ``done`` payload
            # in this store; the event names its digest.
            if ev.kind == "done":
                self._complete(job, ev.key, ev.digest, "computed")
                return
            with self._lock:
                job.events.append(_event_dict(ev))
            if tracer is not None:
                tracer.counter("service run queue", ev.queued)

        worker = self.worker
        if job.trace_id:
            worker = TracedJobWorker(worker, job.trace_id)

        result = None
        if remaining:
            # the store's put/link counters join the service's registry.
            with _metrics_use(self.telemetry.registry):
                result = execute_plan(remaining, cache_dir=self.store.root,
                                      jobs=self.jobs_n,
                                      timeout_s=self.timeout_s,
                                      retries=self.retries,
                                      backoff_s=self.backoff_s,
                                      validate=self.validate, worker=worker,
                                      on_event=on_event)

        with self._lock:
            if result is not None:
                job.failed.update(result.failed)
            if job.failed:
                job.status = FAILED
                job.error = (f"{len(job.failed)} run(s) failed permanently; "
                             f"{len(job.completed)}/{job.total} completed")
                self._journal.record("job_failed", job_id=job.job_id,
                                     error=job.error, failed=job.failed)
                self.breaker.record_failure()
            else:
                job.status = DONE
                self._journal.record("job_done", job_id=job.job_id)
                self.breaker.record_success()
            if tracer is not None:
                tracer.event("job finished", cat="service", job=job.job_id,
                             status=job.status,
                             from_store=job.from_store,
                             recomputed=job.recomputed)

    # -- queries -----------------------------------------------------------

    def poll(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            return {"ok": True, "job": job.view()}

    def job_views(self) -> list[dict]:
        with self._lock:
            return [self._jobs[j].view() for j in self._order]

    def stream(self, job_id: str, cursor: int = 0) -> dict:
        """Events from *cursor* on, plus the job view; the client polls
        until ``job.status`` is terminal."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            events = list(job.events[cursor:])
            return {"ok": True, "events": events,
                    "cursor": cursor + len(events), "job": job.view()}

    def fetch(self, job_id: str) -> dict:
        """Completed payloads for one job, straight from the store."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            completed = dict(job.completed)
        payloads = {}
        for key, digest in completed.items():
            payload = self.store.get(digest)
            if payload is not None:
                payloads[key] = payload
        return {"ok": True, "results": payloads}

    def health(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "ok": True,
                "status": "draining" if self.draining else "serving",
                "queue_depth": len(self.scheduler),
                "running": self._running_job,
                "jobs": by_status,
                "rejected_total": self.rejected_total,
                "resumed_jobs": self.resumed_jobs,
                "breaker": self.breaker.health(),
                "admission": self.admission.health(),
                "store": self._store_health(),
                "slo_breaches": self.telemetry.breach_count(),
            }

    def _store_health(self) -> dict:
        """Store health; execute_plan writes through its own store view,
        so its puts reach this service only as registry counters."""
        reg = self.telemetry.registry
        return {**self.store.health(),
                "puts": int(reg.counter_value("store_puts_total")),
                "dedup_hits": int(reg.counter_value("store_dedup_hits_total"))}

    def metrics(self) -> dict:
        """The telemetry plane's wire payload: a deterministic key-sorted
        registry snapshot plus per-tenant SLO verdicts.  Evaluating here
        also journals any breach first seen at query time — a dashboard
        poll that discovers degradation makes it durable."""
        with self._lock:
            journal = (self._journal.record
                       if not self._journal.closed else None)
            verdicts = self.telemetry.check_slos(journal)
            return {
                "ok": True,
                "metrics": self.telemetry.registry.snapshot(),
                "slo": verdicts,
                "slo_policy": self.telemetry.slo.to_dict(),
                "queue_depth": len(self.scheduler),
            }

    def trace_export_path(self, job_id: str) -> Path:
        """Where a traced job's merged timeline lands on disk."""
        return self.traces_dir / f"{job_id}.json"

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> dict:
        """Stop accepting work; queued + running jobs finish first."""
        with self._cond:
            self.draining = True
            self._journal.record("drain")
            self._cond.notify_all()
            return {"ok": True, "status": "draining",
                    "queue_depth": len(self.scheduler),
                    "running": self._running_job}

    def drained(self) -> bool:
        with self._lock:
            return (self.draining and not len(self.scheduler)
                    and self._running_job is None)

    def close(self) -> None:
        """Close the journal (idempotent).  Callers must stop the worker
        loop first — :meth:`SweepServer.close` joins it before calling
        this — so no job is mid-record when the file goes away."""
        with self._lock:
            if self._journal.closed:
                return
            self._journal.record("service_stop")
            self._journal.close()
