"""Unified observability layer: the tracing spine of the reproduction.

The paper's co-design loop runs on instrumentation -- Extrae phase
events, PAPI counters, Vehave per-instruction traces, Paraver timelines.
This package is that toolchain for the simulated stack, one tracer
threaded through every layer:

* :mod:`repro.obs.tracer` -- the contextvar-scoped span/event/counter
  :class:`Tracer` (wall + sim clocks, zero-cost when disabled), the
  machine's block / vector-instruction records, and :func:`phase_stats`,
  the trace-derived per-phase metrics cross-checked against the
  hardware counters;
* :mod:`repro.obs.chrome` -- Chrome ``trace_event`` export for
  ``chrome://tracing`` flamegraphs;
* :mod:`repro.obs.paraver` -- Paraver ``.prv`` / ``.pcf`` / ``.row``
  export and re-import;
* :mod:`repro.obs.render` -- terminal timeline and vl-histogram views;
* :mod:`repro.obs.workers` -- per-worker trace files merged across the
  executor's process pool;
* :mod:`repro.obs.gate` -- the ``repro bench --baseline`` per-phase
  cycle regression gate;
* :mod:`repro.obs.metrics` -- the aggregate view: a lock-safe registry
  of counters/gauges/histograms with its own ambient slot
  (``metrics.use`` / ``metrics.active``), published into by the sweep
  service and executor (see :mod:`repro.service.telemetry`).

Typical use::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use(tracer):                   # ambient for this context
        counters = app.run_timed(params)    # machine records phase spans
    obs.chrome.dump(tracer, "t.json")       # open in chrome://tracing
"""

from repro.obs import chrome, gate, metrics, paraver, render, workers
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    BlockEvent,
    CounterSample,
    InstrEvent,
    PhaseTraceStats,
    PointEvent,
    SpanRecord,
    Tracer,
    VectorInstrEvent,
    active,
    counter,
    current,
    event,
    phase_stats,
    span,
    use,
)

__all__ = [
    "BlockEvent",
    "CounterSample",
    "InstrEvent",
    "MetricsRegistry",
    "NULL_TRACER",
    "PhaseTraceStats",
    "PointEvent",
    "SpanRecord",
    "Tracer",
    "VectorInstrEvent",
    "active",
    "chrome",
    "counter",
    "current",
    "event",
    "gate",
    "metrics",
    "paraver",
    "phase_stats",
    "render",
    "span",
    "use",
    "workers",
]
