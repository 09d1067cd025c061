"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public functions of each ``repro`` layer and
re-binds every module-level name that refers to them, so a call counts
whichever module the caller resolved the name from (``repro.machine.cpu``
binds ``byte_addresses`` itself, for example).  Spans are kept in memory
per thread; a span's self time is its duration minus the time of the
spans it encloses.  :meth:`SpanRecorder.snapshot` returns the totals,
and :func:`layer_metrics` turns them into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Class.attr`` or ``module:func``."""

    path: str
    layer: str
    #: ``post(args, kwargs, result, pre, count)`` adds work counters.
    post: Optional[Callable] = None
    #: ``pre(args, kwargs)`` runs before the call; its value goes to post.
    pre: Optional[Callable] = None


def _cache_post(args, kwargs, result, pre, count):
    level = "l1" if args[0].params.name.startswith("L1") else "l2"
    count("machine.cache.lines", int(args[1].size))
    count(f"machine.cache.{level}_accesses", int(args[1].size))
    count(f"machine.cache.{level}_misses", int(result.size))


def _kernel_pre(args, kwargs):
    _machine, compiled, _instance, run = args
    return run.phase(compiled.phase).cycles_total


def _kernel_post(args, kwargs, result, pre, count):
    _machine, compiled, _instance, run = args
    count("machine.timing.blocks", len(compiled.blocks))
    count("machine.sim_cycles", run.phase(compiled.phase).cycles_total - pre)


def _lookup_post(prefix: str, hit: Callable):
    def post(args, kwargs, result, pre, count):
        count(f"{prefix}.lookups", 1)
        count(f"{prefix}.hits", 1 if hit(result) else 0)
    return post


def _submit_post(args, kwargs, result, pre, count):
    count("service.rejected", 1 if result.get("rejected") else 0)


TARGETS: tuple[Target, ...] = (
    Target("repro.machine.cache:Cache.access_lines", "machine.cache",
           post=_cache_post),
    Target("repro.compiler.program:byte_addresses", "machine.addrgen",
           post=lambda a, k, r, p, count: count("machine.addrgen.elements",
                                                int(r.size))),
    Target("repro.compiler.program:loop_grid", "machine.addrgen"),
    Target("repro.machine.cpu:Machine.execute_kernel", "machine.timing",
           pre=_kernel_pre, post=_kernel_post),
    Target("repro.cfd.mesh:box_mesh", "cfd.mesh"),
    Target("repro.cfd.assembly:MiniApp.__init__", "cfd.miniapp"),
    Target("repro.cfd.assembly:MiniApp.run_timed", "cfd.assembly"),
    Target("repro.cfd.assembly:MiniApp.run_timed_solve", "cfd.solve"),
    Target("repro.compiler.transforms.pipeline:PassPipeline.run",
           "compiler.passes"),
    Target("repro.compiler.program:compile_kernels", "compiler.codegen",
           post=lambda a, k, r, p, count: count("compiler.kernels",
                                                len(r.compiled))),
    Target("repro.backends.numpy_backend:NumpyExecutor.run", "backends.exec"),
    Target("repro.validation.digests:phase_output_digests",
           "validation.digest"),
    Target("repro.validation.digests:solver_phase_digests",
           "validation.digest"),
    Target("repro.experiments.executor:execute_plan", "experiments.executor"),
    Target("repro.experiments.executor:store_payload",
           "experiments.cache.write"),
    Target("repro.experiments.executor:load_cached_entry",
           "experiments.cache.read",
           post=_lookup_post("experiments.cache", lambda r: r[0] is not None)),
    Target("repro.service.store:ResultStore.put", "service.store.put"),
    Target("repro.service.store:ResultStore.get", "service.store.get"),
    Target("repro.service.store:ResultStore.lookup", "service.store.lookup",
           post=_lookup_post("service.store", lambda r: r is not None)),
    Target("repro.service.store:ResultStore.link", "service.store.link"),
    Target("repro.service.jobs:ServiceJournal.record", "service.journal"),
    Target("repro.service.client:ServiceClient.submit", "service.client.submit",
           post=_submit_post),
    Target("repro.service.client:ServiceClient.poll", "service.client.poll"),
    Target("repro.service.client:ServiceClient.fetch", "service.client.fetch"),
)

#: layers whose spans run in the process that serves requests; the
#: ``service.client.*`` layers run in the load generator.
CLIENT_LAYERS = ("service.client.submit", "service.client.poll",
                 "service.client.fetch")


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []      # [layer, t0, child_s]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}  # per target path
        self.counts: dict[str, float] = {}


class SpanRecorder:
    """In-memory span totals, one table per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def enter(self, layer: str) -> _ThreadState:
        st = self._state()
        st.stack.append([layer, time.perf_counter(), 0.0])
        return st

    def exit(self, st: _ThreadState, path: str) -> None:
        layer, t0, child_s = st.stack.pop()
        dur = time.perf_counter() - t0
        if st.stack:
            st.stack[-1][2] += dur
        st.self_s[layer] = st.self_s.get(layer, 0.0) + dur - child_s
        st.calls[path] = st.calls.get(path, 0) + 1

    def count(self, name: str, value: float) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def snapshot(self) -> dict:
        """JSON-able totals: ``self_s`` and ``counts`` summed over
        threads, ``calls`` per wrapped target, and each thread's own
        self-time sum."""
        out = {"self_s": {}, "calls": {t.path: 0 for t in TARGETS},
               "counts": {}, "thread_self_s": []}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, table in (("self_s", st.self_s), ("calls", st.calls),
                               ("counts", st.counts)):
                for name, value in table.items():
                    out[key][name] = out[key].get(name, 0) + value
            out["thread_self_s"].append(sum(st.self_s.values()))
        return out


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        return getattr(module, owner_name), method
    return module, attr


def _wrap(target: Target, orig: Callable, rec: SpanRecorder) -> Callable:
    layer, path, pre, post = target.layer, target.path, target.pre, target.post

    def wrapper(*args, **kwargs):
        before = pre(args, kwargs) if pre is not None else None
        st = rec.enter(layer)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.exit(st, path)
        if post is not None:
            post(args, kwargs, result, before, rec.count)
        return result
    wrapper.__wrapped__ = orig
    return wrapper


class Installation:
    """The wrappers in place; :meth:`remove` restores every binding."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        # an inherited method is restored by deleting the override.
        own = name in vars(owner)
        self._undo.append((owner, name, getattr(owner, name) if own else None))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is None:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every :data:`TARGETS` entry and re-bind each module-level
    name that refers to a wrapped function."""
    import repro.autotune  # noqa: F401  (binds names the tuner imports)
    import repro.service  # noqa: F401

    inst = Installation(recorder)
    for target in TARGETS:
        owner, name = _resolve(target.path)
        orig = getattr(owner, name)
        wrapped = _wrap(target, orig, recorder)
        if isinstance(owner, type):
            inst._set(owner, name, wrapped)
            continue
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "") \
                    .startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    inst._set(module, attr, wrapped)
    return inst


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SELF_TIME_METRICS = {
    "machine.cache.self_s": "machine.cache",
    "machine.addrgen.self_s": "machine.addrgen",
    "machine.timing.self_s": "machine.timing",
    "cfd.mesh.self_s": "cfd.mesh",
    "cfd.miniapp.self_s": "cfd.miniapp",
    "cfd.assembly.self_s": "cfd.assembly",
    "cfd.solve.self_s": "cfd.solve",
    "compiler.passes.self_s": "compiler.passes",
    "compiler.codegen.self_s": "compiler.codegen",
    "backends.exec.self_s": "backends.exec",
    "validation.digest.self_s": "validation.digest",
    "experiments.executor.self_s": "experiments.executor",
    "experiments.cache.write_s": "experiments.cache.write",
    "experiments.cache.read_s": "experiments.cache.read",
    "service.store.put_s": "service.store.put",
    "service.store.get_s": "service.store.get",
    "service.store.lookup_s": "service.store.lookup",
    "service.store.link_s": "service.store.link",
    "service.journal.record_s": "service.journal",
    "service.client.submit_s": "service.client.submit",
    "service.client.poll_s": "service.client.poll",
    "service.client.fetch_s": "service.client.fetch",
}


def calls_of(snap: dict, *paths: str) -> int:
    return sum(snap["calls"].get(p, 0) for p in paths)


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics one snapshot yields (autotune, service and
    harness metrics are added by the caller)."""
    self_s, counts = snap["self_s"], snap["counts"]
    out = {name: self_s.get(layer, 0.0)
           for name, layer in SELF_TIME_METRICS.items()}
    out.update({
        "machine.cache.lines": counts.get("machine.cache.lines", 0),
        "machine.cache.l1_miss_ratio": _ratio(
            counts.get("machine.cache.l1_misses", 0),
            counts.get("machine.cache.l1_accesses", 0)),
        "machine.cache.l2_miss_ratio": _ratio(
            counts.get("machine.cache.l2_misses", 0),
            counts.get("machine.cache.l2_accesses", 0)),
        "machine.addrgen.elements": counts.get("machine.addrgen.elements", 0),
        "machine.timing.blocks": counts.get("machine.timing.blocks", 0),
        "machine.sim_cycles": counts.get("machine.sim_cycles", 0.0),
        "compiler.passes.runs": calls_of(
            snap, "repro.compiler.transforms.pipeline:PassPipeline.run"),
        "compiler.kernels": counts.get("compiler.kernels", 0),
        "backends.kernel_runs": calls_of(
            snap, "repro.backends.numpy_backend:NumpyExecutor.run"),
        "validation.digest.calls": calls_of(
            snap, "repro.validation.digests:phase_output_digests",
            "repro.validation.digests:solver_phase_digests"),
        "experiments.cache.hit_ratio": _ratio(
            counts.get("experiments.cache.hits", 0),
            counts.get("experiments.cache.lookups", 0)),
        "service.store.hit_ratio": _ratio(
            counts.get("service.store.hits", 0),
            counts.get("service.store.lookups", 0)),
        "service.journal.records": calls_of(
            snap, "repro.service.jobs:ServiceJournal.record"),
        "service.rejected": counts.get("service.rejected", 0),
    })
    return out


def merge(*snaps: dict) -> dict:
    """Sum snapshots taken in different processes."""
    out = {"self_s": {}, "calls": {}, "counts": {}, "thread_self_s": []}
    for snap in snaps:
        for key in ("self_s", "calls", "counts"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["thread_self_s"] += snap["thread_self_s"]
    return out
