"""The telemetry plane: SLO verdicts, breach journaling, restart seed,
and the curated deterministic status view."""

import json

from repro.service.jobs import replay_service_journal
from repro.service.telemetry import (
    SLO_COMPLETION,
    SLO_QUEUE_WAIT,
    SLOPolicy,
    ServiceTelemetry,
    reject_cause,
    stable_status,
)


def _recorder():
    records = []

    def journal(event, **fields):
        records.append({"event": event, **fields})

    return records, journal


def test_verdicts_empty_until_tenants_appear():
    tel = ServiceTelemetry()
    assert tel.slo_verdicts() == {}
    assert tel.breach_count() == 0


def test_completion_rate_needs_min_events():
    tel = ServiceTelemetry(slo=SLOPolicy(min_events=3))
    records, journal = _recorder()
    # two rejections: suspicious, but below the evidence bar.
    tel.record_reject("alice", "queue full (64)")
    tel.record_reject("alice", "queue full (64)")
    v = tel.check_slos(journal)
    assert v["alice"][SLO_COMPLETION]["rate"] is None
    assert v["alice"]["ok"]
    assert records == []
    # the third makes it judgeable — and breached.
    tel.record_reject("alice", "queue full (64)")
    v = tel.check_slos(journal)
    assert v["alice"][SLO_COMPLETION] == {
        "rate": 0.0, "target_min": 0.9, "events": 3, "ok": False}
    assert [r["event"] for r in records] == ["slo_breach"]
    assert records[0]["tenant"] == "alice"
    assert records[0]["slo"] == SLO_COMPLETION


def test_breach_journaled_once_per_episode_then_again_after_recovery():
    tel = ServiceTelemetry(slo=SLOPolicy(min_events=2,
                                         completion_rate_min=0.75))
    records, journal = _recorder()
    tel.record_reject("alice", "queue full (64)")
    tel.record_reject("alice", "queue full (64)")
    tel.check_slos(journal)
    tel.check_slos(journal)  # same episode: no duplicate record
    assert len(records) == 1
    assert tel.breach_count() == 1
    # recovery: enough completions to clear the rate, episode closes.
    for _ in range(6):
        tel.record_job_done("alice", wall_s=0.1)
    v = tel.check_slos(journal)
    assert v["alice"]["ok"]
    assert tel.breach_count() == 0
    # relapse: a fresh episode journals a fresh event.
    for _ in range(25):
        tel.record_reject("alice", "queue full (64)")
    tel.check_slos(journal)
    assert len(records) == 2
    breaches = tel.registry.counter_value(
        "service_slo_breaches_total", slo=SLO_COMPLETION, tenant="alice")
    assert breaches == 2


def test_queue_wait_slo_uses_bucket_bound_estimates():
    tel = ServiceTelemetry(slo=SLOPolicy(queue_wait_p95_s=5.0))
    for _ in range(20):
        tel.record_queue_wait("alice", 0.01)  # idle service: first bucket
    v = tel.slo_verdicts()["alice"][SLO_QUEUE_WAIT]
    assert v == {"p50_s": 0.5, "p95_s": 0.5, "target_p95_s": 5.0,
                 "samples": 20, "ok": True}
    # a stall: p95 climbs past the target.
    for _ in range(200):
        tel.record_queue_wait("alice", 45.0)
    v = tel.slo_verdicts()["alice"][SLO_QUEUE_WAIT]
    assert v["p95_s"] == 60.0 and not v["ok"]


def test_breaker_transitions_and_causes_are_counted():
    tel = ServiceTelemetry()
    tel.record_breaker_transition("closed", "open")
    tel.record_breaker_transition("open", "half_open")
    assert tel.registry.counter_value(
        "breaker_transitions_total", **{"from": "closed", "to": "open"}) == 1
    tel.record_reject("a", "tenant rate limit exceeded")
    tel.record_reject("a", "circuit breaker open (cooling down)")
    assert tel.registry.counter_value(
        "service_rejects_by_cause_total", cause="tenant_rate") == 1
    assert tel.registry.counter_value(
        "service_rejects_by_cause_total", cause="breaker") == 1


def test_reject_cause_vocabulary():
    assert reject_cause("queue full (64 jobs)") == "queue_full"
    assert reject_cause("tenant rate limit exceeded") == "tenant_rate"
    assert reject_cause("service rate limit exceeded") == "global_rate"
    assert reject_cause("circuit breaker open") == "breaker"
    assert reject_cause("service draining") == "draining"
    assert reject_cause("empty submission") == "empty"
    assert reject_cause("cosmic rays") == "other"


def test_seed_restores_counters_and_breach_set(tmp_path):
    """kill -9 continuity: journal fold -> seed() -> same counters."""
    from repro.experiments.config import RunConfig
    from repro.service.jobs import ServiceJournal

    cfg = RunConfig(opt="vanilla", vector_size=16, mesh_dims=(4, 4, 4))
    journal = ServiceJournal(tmp_path / "service.journal")
    journal.record("service_start", jobs=1)
    journal.record("submit", job_id="j1", tenant="alice", priority=0,
                   configs=[cfg.to_dict()], trace_id="")
    journal.record("rejected", tenant="mallory", reason="tenant rate limit")
    journal.record("rejected", tenant="mallory", reason="tenant rate limit")
    journal.record("rejected", tenant="mallory", reason="tenant rate limit")
    journal.record("slo_breach", tenant="mallory", slo=SLO_COMPLETION,
                   value=0.0, target=0.9)
    journal.record("job_start", job_id="j1")
    journal.record("config_done", job_id="j1", key=cfg.key(), digest="d",
                   source="computed")
    journal.record("job_done", job_id="j1")
    journal.close()

    state = replay_service_journal(tmp_path / "service.journal")
    tel = ServiceTelemetry()
    tel.seed(state)
    reg = tel.registry
    assert reg.counter_value("service_submits_total", tenant="alice") == 1
    assert reg.counter_value("service_rejects_total", tenant="mallory") == 3
    assert reg.counter_value("service_jobs_done_total", tenant="alice") == 1
    assert reg.counter_value("service_configs_done_total",
                             source="computed") == 1
    assert reg.counter_value("service_slo_breaches_total",
                             slo=SLO_COMPLETION, tenant="mallory") == 1
    # the open episode survived: no duplicate journaling on the next check.
    records, rec = _recorder()
    tel.check_slos(rec)
    assert records == []
    assert tel.breach_count() == 1


def test_stable_status_filters_wall_clock_series():
    health = {"status": "serving", "queue_depth": 0,
              "jobs": {"done": 2}, "rejected_total": 1,
              "breaker": {"state": "closed", "trips": 0, "cooldown_s": 5.0},
              "store": {"objects": 2, "links": 4, "puts": 2,
                        "dedup_hits": 2, "hits": 0, "corrupt": 0}}
    metrics = {
        "metrics": {
            "counters": {
                "service_submits_total{tenant=alice}": 2.0,
                "store_puts_total": 2.0,
                "executor_events_total{kind=done}": 7.0,  # unstable: jobs=N
                "admission_decisions_total{outcome=admitted}": 2.0,
            },
            "gauges": {"service_queue_depth": 0.0},
            "histograms": {"service_job_wall_seconds": {"sum": 1.23}},
        },
        "slo": {"alice": {"ok": True}},
    }
    status = stable_status(health, metrics)
    assert set(status["counters"]) == {
        "service_submits_total{tenant=alice}", "store_puts_total"}
    assert "histograms" not in json.dumps(status)
    assert status["breaker"] == {"state": "closed", "trips": 0}
    assert status["slo"] == {"alice": {"ok": True}}
    # deterministic serialization: the CI diff contract.
    assert (json.dumps(status, sort_keys=True)
            == json.dumps(stable_status(health, metrics), sort_keys=True))


def test_service_metrics_verb_and_trace_export(tmp_path):
    """End-to-end through SweepService: metrics verb, SLO plane, trace
    propagation into the store payload and the exported timeline."""
    from repro.experiments.config import RunConfig
    from repro.experiments.executor import link_name
    from repro.service.core import SweepService

    svc = SweepService(str(tmp_path / "state"))
    cfg = RunConfig(opt="vanilla", vector_size=16, mesh_dims=(4, 4, 4))
    resp = svc.submit([cfg], tenant="alice", trace_id="feedbeef12345678")
    assert resp["ok"] and resp["trace_id"] == "feedbeef12345678"
    svc.process_next()
    out = svc.metrics()
    svc.close()
    assert out["ok"]
    assert out["metrics"]["counters"][
        "service_submits_total{tenant=alice}"] == 1.0
    assert out["slo"]["alice"]["ok"]
    assert out["slo_policy"] == SLOPolicy().to_dict()
    # the trace id reached the store payload (digest-neutral __ key)...
    digest = svc.store.digest_for(link_name(cfg))
    body = json.loads(svc.store.object_path(digest).read_text())
    assert body["__trace__"] == "feedbeef12345678"
    # ...and the exported timeline has the whole story under one id.
    doc = json.loads(svc.trace_export_path(resp["job_id"]).read_text())
    assert doc["otherData"]["trace_id"] == "feedbeef12345678"
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert "client-submit" in names and "queue-wait" in names
    assert any(n.startswith("worker-execute ") for n in names)
    assert any(n.startswith("store-write ") for n in names)
    ids = {e["args"]["trace"] for e in doc["traceEvents"]
           if e.get("ph") == "X" and "trace" in e.get("args", {})}
    assert ids == {"feedbeef12345678"}
