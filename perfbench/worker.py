"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
starts with empty in-process memos, as a ``repro`` command does.  It
prints one JSON object (the repetition's measurements) on its last
stdout line.  ``--setup-only`` stops after set-up and reports the
set-up times only (a list: the service workload starts its server
several times).  ``--trace FILE`` wraps the layers (``layers.py``) before the
timed work and writes the span totals to FILE.

    python3 perfbench/worker.py --workload sweep-cache --seed 1 \
        --work-dir .perfbench_work/r0 --spawned-at <CLOCK_MONOTONIC>
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: iterations of the calibration loop (~0.2 s of pure-Python work).
CALIB_ITERS = 2_000_000


def calibrate() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedGauge:
    """Reads this CPU's speed while the timed work runs.

    Other tenants of the host slow the CPU down in bursts of a few
    seconds (up to ~2x, in thread CPU time as much as in wall time).
    A background thread reads the gauge every ``PERIOD_S``: it times two
    fixed slices of interpreter work in its own CPU time, a tight
    arithmetic loop and a pointer chase through a ~8 MB list, because
    contention slows compute-bound and memory-bound code by different
    amounts; a reading is the geometric mean of the two slices' times
    over their uncontended times (``REF_*``, measured on a 2-vCPU Xeon
    cloud VM).  :meth:`scale` turns the readings around an interval into
    the factor that maps it to an uncontended CPU.  Over the sweeps'
    configs this leaves a ~3-5% run-to-run spread where raw times spread
    ~10-50%, less than either slice alone leaves.  It hides part of a
    real change: on that VM, ``Cache.access_lines`` made 1.45x slower by
    extra arithmetic, and 1.37x slower by random reads of a 128 MB
    array, read 1.33-1.38x and 1.27-1.28x scaled (README, "Speed
    scaling").  The work is pinned to one CPU, so the gauge thread reads
    the CPU the work runs on.  This is ROADMAP's calibration-ratio idea
    applied continuously: time over the speed read while that time was
    spent.
    """

    LOOP_ITERS = 10_000
    REF_LOOP_S = 0.75e-3
    CHASE_READS = 5_000
    CHASE_LIST_LEN = 250_000
    REF_CHASE_S = 1.0e-3
    PERIOD_S = 0.1

    def __init__(self):
        import random

        rng = random.Random(0)
        self._values = [rng.random() for _ in range(self.CHASE_LIST_LEN)]
        self._order = [rng.randrange(self.CHASE_LIST_LEN)
                       for _ in range(self.CHASE_READS)]
        #: (perf_counter, slowness): 1.0 is an uncontended CPU.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def read(self) -> float:
        t0 = time.thread_time()
        acc = 0
        for i in range(self.LOOP_ITERS):
            acc += i * i % 7
        t1 = time.thread_time()
        values = self._values
        total = 0.0
        for i in self._order:
            total += values[i]
        t2 = time.thread_time()
        slowness = math.sqrt((t1 - t0) / self.REF_LOOP_S
                             * (t2 - t1) / self.REF_CHASE_S)
        self.samples.append((time.perf_counter(), slowness))
        return slowness

    def start(self) -> None:
        def loop() -> None:
            while not self._stop.wait(self.PERIOD_S):
                self.read()
        self._thread = threading.Thread(target=loop, name="speed-gauge",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def scale(self, t0: float, t1: float, pad: float = 0.0) -> float:
        """1 / mean reading over [t0 - pad, t1 + pad] (the nearest
        reading when none falls inside)."""
        inside = [c for t, c in self.samples if t0 - pad <= t <= t1 + pad]
        if not inside:
            mid = (t0 + t1) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return len(inside) / sum(inside)


def pin_to_one_cpu() -> None:
    """Pin this process (and the threads it starts) to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def clear_memos() -> None:
    """Empty the honest-digest memos and check that they are empty."""
    from repro.validation import digests

    for memo in (digests._honest_digests, digests._honest_solver_digests):
        memo.cache_clear()
        if memo.cache_info().currsize != 0:
            raise RuntimeError(f"{memo.__name__} memo not empty before timing")


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def digest_of(run) -> str:
    from repro.experiments.executor import payload_digest
    from repro.metrics.counters import counters_to_dict

    return payload_digest(counters_to_dict(run))


def speedup_err(scalar_cycles: float, vec1_cycles: float) -> float:
    return abs(scalar_cycles / vec1_cycles - workloads.PAPER_SPEEDUP) \
        / workloads.PAPER_SPEEDUP


class Outcome:
    """Attempted/failed operation tally with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def check_runs(out: Outcome, runs: dict, configs, reference: dict,
               failed: dict) -> None:
    for cfg in configs:
        key = cfg.key()
        if key in failed or key not in runs:
            out.check(False, f"{key}: failed ({failed.get(key, 'missing')})")
            continue
        want = reference.get(key)
        got = digest_of(runs[key])
        out.check(got == want, f"{key}: digest {got[:12]} != reference "
                               f"{str(want)[:12]}")


WARM_SAMPLES = 120
WARM_GAP_S = 0.01
#: config hits per warm sample: a small plan is re-run several times in
#: a sample, so that every sample takes ~10 ms.
WARM_SAMPLE_HITS = 50
#: gauge readings within this distance of a short interval scale it.
PAD_S = 1.0


def warm_recall(configs, cache_dir, gauge: SpeedGauge
                ) -> tuple[list[float], object]:
    """Re-run a finished plan against its warm cache, ``WARM_SAMPLES``
    timed samples ``WARM_GAP_S`` apart: every config is a cache hit.  A
    sample takes milliseconds, less than a burst of contention, so each
    is scaled by the gauge readings taken just before and just after it.
    Returns each sample's scaled time per config, and the last result."""
    from repro.experiments.executor import execute_plan

    passes = max(1, round(WARM_SAMPLE_HITS / len(configs)))
    execute_plan(configs, cache_dir=cache_dir)  # warms the read path
    readings = [gauge.read()]
    raw: list[float] = []
    for _ in range(WARM_SAMPLES):
        time.sleep(WARM_GAP_S)
        t0 = time.perf_counter()
        for _ in range(passes):
            result = execute_plan(configs, cache_dir=cache_dir)
        raw.append((time.perf_counter() - t0) / passes)
        readings.append(gauge.read())
    return [t * 2 / (readings[i] + readings[i + 1]) / len(configs)
            for i, t in enumerate(raw)], result


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def timed_work(recorder, work):
    """Calibrate, then run ``work()`` as the timed work with the gauge
    running (and the layer wrappers installed for a traced run).
    Returns (result, calib_s, gauge, t0, t1)."""
    calib_s = calibrate()
    gauge = SpeedGauge()
    inst = install(recorder)
    gauge.start()
    t0 = time.perf_counter()
    try:
        result = work()
    finally:
        t1 = time.perf_counter()
        gauge.stop()
        if inst is not None:
            inst.remove()
    return result, calib_s, gauge, t0, t1


def run_sweep(args, cache_dir: Path, recorder) -> dict:
    from repro.experiments import executor

    configs = workloads.sweep_configs(args.workload, args.seed)
    reference = load_reference()[args.workload]
    windows: list[tuple[float, float]] = []

    def on_event(ev) -> None:
        if ev.kind == "done":
            now = time.perf_counter()
            windows.append((now - ev.wall_s, now))

    clear_memos()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": [setup_s]}
    # looked up after install(), so a traced run calls the wrapper.
    result, calib_s, gauge, t0, t1 = timed_work(
        recorder, lambda: executor.execute_plan(
            configs, cache_dir=cache_dir, jobs=1, on_event=on_event))

    out = Outcome()
    check_runs(out, result.runs, configs, reference, result.failed)
    hits, warm = warm_recall(configs, cache_dir, gauge)
    out.check(warm.stats.cache_hits == len(configs) and not warm.failed,
              f"warm recall: {warm.stats.cache_hits}/{len(configs)} hits")
    scalar, vec1 = workloads.paper_pair(configs[0].mesh_dims,
                                        configs[0].field_seed,
                                        configs[0].cache_enabled)
    runs = result.runs
    err = (speedup_err(runs[scalar.key()].total_cycles,
                       runs[vec1.key()].total_cycles)
           if scalar.key() in runs and vec1.key() in runs else None)
    out.check(err is not None, "paper pair missing")
    return {"setup_s": setup_s, "calib_s": calib_s,
            **timings(gauge, t0, t1, windows, hits),
            "paper_speedup_err": err, "attempted": out.attempted,
            "failed": out.failed, "errors": out.errors}


def iqm(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half.  Robust to the
    few samples a burst of contention inflates, and smoother than the
    median."""
    values = sorted(values)
    k = len(values) // 4
    middle = values[k:len(values) - k]
    return sum(middle) / len(middle) if middle else 0.0


def timings(gauge: SpeedGauge, t0: float, t1: float,
            windows: list[tuple[float, float]], hits: list[float]) -> dict:
    """Raw and speed-scaled wall time of [t0, t1]; ``miss_s`` and
    ``hit_s``, the interquartile means of the scaled time of a config
    window and of the warm samples' scaled time per config."""
    scale = gauge.scale(t0, t1)
    misses = [(b - a) * gauge.scale(a, b, PAD_S) for a, b in windows]
    return {"wall_raw_s": t1 - t0, "wall_s": (t1 - t0) * scale,
            "speed_scale": scale, "hits": hits, "misses": misses,
            "hit_s": iqm(hits), "miss_s": iqm(misses)}


class _TimedWorker:
    """The executor's default simulation worker, timed per config."""

    def __init__(self):
        from repro.experiments.executor import simulate_to_dict

        self.simulate = simulate_to_dict
        self.windows: list[tuple[float, float]] = []

    def __call__(self, cfg):
        t0 = time.perf_counter()
        payload = self.simulate(cfg)
        self.windows.append((t0, time.perf_counter()))
        return payload


def run_autotune_rep(args, cache_dir: Path, recorder) -> dict:
    from repro.autotune import tuner
    from repro.experiments.executor import execute_plan

    at = workloads.AUTOTUNE
    reference = load_reference()["autotune"]
    fixture = json.loads(
        (ROOT / "tests" / "fixtures" / "autotune_winners.json").read_text())
    worker = _TimedWorker()

    clear_memos()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": [setup_s]}
    report, calib_s, gauge, t0, t1 = timed_work(
        recorder, lambda: tuner.run_autotune(
            at["mesh_dims"], machine=at["machine"],
            vector_size=at["vector_size"], profile=at["profile"],
            seed=at["seed"], cache_dir=cache_dir, jobs=1, worker=worker))

    out = Outcome()
    doc = json.loads(report.to_json())
    out.check(doc["winners"] == fixture["winners"]
              and doc["vec1_family"] == fixture["vec1_family"],
              "autotune winners differ from tests/fixtures/"
              "autotune_winners.json")
    timed = [tuner.candidate_config(c.schedule, machine=at["machine"],
                                    vector_size=at["vector_size"],
                                    mesh_dims=at["mesh_dims"],
                                    seed=at["seed"], backend=report.backend)
             for c in report.candidates if c.status == "timed"]
    hits, warm = warm_recall(timed, cache_dir, gauge)
    out.check(warm.stats.cache_hits == len(timed),
              f"warm recall: {warm.stats.cache_hits}/{len(timed)} hits")
    check_runs(out, warm.runs, timed, reference, warm.failed)
    # the paper's headline pair on the tuned mesh, outside the timed work.
    pair = workloads.paper_pair(at["mesh_dims"],
                                workloads.field_seed_for(args.seed))
    pair_result = execute_plan(list(pair), cache_dir=cache_dir)
    check_runs(out, pair_result.runs, pair, reference, pair_result.failed)
    runs = pair_result.runs
    err = (speedup_err(runs[pair[0].key()].total_cycles,
                       runs[pair[1].key()].total_cycles)
           if not pair_result.failed else None)
    out.check(err is not None, "paper pair missing")
    return {"setup_s": setup_s, "calib_s": calib_s,
            **timings(gauge, t0, t1, worker.windows, hits),
            "paper_speedup_err": err, "attempted": out.attempted,
            "failed": out.failed, "errors": out.errors,
            "autotune": dict(report.counts)}


# ---------------------------------------------------------------------------
# the service workload: one server process, an open-loop load generator
# ---------------------------------------------------------------------------


def _server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_server(work_dir: Path, trace_out: Path | None, state: str):
    """Start ``repro serve`` (or the traced launcher) on the fresh state
    dir *state*, from the current directory *work_dir*; returns
    (process, seconds until the socket answered).  The server inherits
    this process's CPU affinity."""
    import socket

    sock = "svc.sock"   # relative to work_dir: unix socket paths are short
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro", "serve"]
    else:
        cmd = [sys.executable, str(HERE / "serve.py"),
               "--trace-out", str(trace_out)]
    cmd += ["--state-dir", state, "--socket", sock]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work_dir, env=_server_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = t0 + 30.0
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(sock)
            break
        except OSError:
            if proc.poll() is not None or time.perf_counter() > deadline:
                stop_server(proc, None)
                raise RuntimeError("sweep service did not come up")
            time.sleep(0.005)
        finally:
            s.close()
    return proc, time.perf_counter() - t0


def peak_rss_mb_of(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def stop_server(proc, client) -> None:
    """Drain the server and wait until it has exited."""
    if client is not None:
        try:
            client.drain()
        except Exception:  # noqa: BLE001 - fall through to terminate
            pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


#: server starts one set-up-only service process times.
SERVICE_SETUP_STARTS = 5
#: the load generator's poll interval while it waits for a job.
POLL_S = 0.01


def _histogram_sums(metrics: dict, name: str) -> tuple[float, int]:
    hist = metrics.get("metrics", {}).get("histograms", {})
    found = [h for k, h in hist.items() if k.startswith(name)]
    return sum(h["sum"] for h in found), sum(h["count"] for h in found)


def run_service(args, work_dir: Path, recorder) -> dict:
    from repro.experiments.executor import payload_digest
    from repro.service.client import ServiceClient, ServiceError

    traffic = workloads.service_traffic(args.seed)
    reference = load_reference()["service"]
    trace_out = work_dir / "server-spans.json" if args.trace else None

    os.chdir(work_dir)  # the socket path is relative to the work dir
    if args.setup_only:
        setups = []
        for i in range(SERVICE_SETUP_STARTS):
            proc, setup_s = start_server(work_dir, None, f"state{i}")
            stop_server(proc, ServiceClient("svc.sock"))
            setups.append(setup_s)
        return {"setup_s": setups}
    proc, setup_s = start_server(work_dir, trace_out, "state")
    client = ServiceClient("svc.sock", timeout_s=60.0)
    gauge = SpeedGauge()
    try:
        calib_s = calibrate()
        inst = install(recorder)
        gauge.start()
        submitted: queue.Queue = queue.Queue()
        done: list[dict] = []

        def collect() -> None:
            """Second thread: wait for each job in submission order
            (jobs run one at a time, first in first out), fetch it, and
            read the server's job-time histogram: its growth is the
            job's own time on the server."""
            while True:
                item = submitted.get()
                if item is None:
                    return
                sub, due, resp = item
                rec = {"sub": sub, "due": due, "resp": resp}
                try:
                    if resp.get("ok"):
                        rec["job"] = client.wait(resp["job_id"],
                                                 poll_s=POLL_S)
                        rec["results"] = client.fetch(resp["job_id"]).get(
                            "results", {})
                        rec["job_hist"] = _histogram_sums(
                            client.metrics(), "service_job_wall_seconds")
                except ServiceError as exc:  # counted as a failed job
                    rec["resp"] = {"ok": False, "error": str(exc)}
                rec["end"] = time.perf_counter()
                done.append(rec)

        collector = threading.Thread(target=collect, name="collector")
        collector.start()
        lateness = 0.0
        start = time.perf_counter() + 0.05
        try:
            for sub in traffic:
                due = start + sub.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness = max(lateness, time.perf_counter() - due)
                resp = client.submit(list(sub.configs), tenant=sub.tenant)
                submitted.put((sub, due, resp))
        finally:
            submitted.put(None)
            collector.join()
            gauge.stop()
        if inst is not None:
            inst.remove()
        metrics = client.metrics()
        peak_rss_mb = peak_rss_mb_of(proc.pid)
    finally:
        stop_server(proc, client)

    out = Outcome()
    hits: list[float] = []
    misses: list[float] = []
    results: dict[str, dict] = {}
    raw_s = scaled_s = 0.0
    # a job's server time is the histogram's growth since the previous
    # read; a read that took in two jobs (the next one finished first)
    # gives no sample.
    last = (0.0, 0)
    for rec in done:
        hist = rec.get("job_hist")
        if hist is not None:
            if hist[1] - last[1] == 1:
                rec["job_s"] = hist[0] - last[0]
            last = hist
    for rec in done:
        job = rec.get("job") or {}
        ok = (rec["resp"].get("ok") and job.get("status") == "done"
              and len(rec.get("results", {})) == len(rec["sub"].configs))
        out.check(bool(ok), f"job {rec['resp']}: {job.get('status')}")
        if not ok:
            continue
        for cfg in rec["sub"].configs:
            payload = rec["results"][cfg.key()]
            results[cfg.key()] = payload
            got = payload_digest(payload)
            out.check(got == reference.get(cfg.key()),
                      f"{cfg.key()}: digest {got[:12]} != reference")
        # a first submission simulates every config; a resubmission none.
        want = len(rec["sub"].configs) if rec["sub"].new else 0
        out.check(job["recomputed"] == want,
                  f"job {job['job_id']}: {job['recomputed']} configs "
                  f"simulated, {want} expected")
        if "job_s" in rec:
            # a miss runs for seconds, so the readings taken while it ran
            # scale it; a hit is over within a reading or two.
            pad = 0.0 if rec["sub"].new else PAD_S
            raw_s += rec["job_s"]
            scaled = rec["job_s"] * gauge.scale(rec["due"], rec["end"], pad)
            scaled_s += scaled
            (misses if rec["sub"].new else hits).append(scaled)
    pair = workloads.paper_pair(traffic[0].configs[0].mesh_dims,
                                workloads.field_seed_for(args.seed))
    err = None
    if all(cfg.key() in results for cfg in pair):
        err = speedup_err(_total_cycles(results[pair[0].key()]),
                          _total_cycles(results[pair[1].key()]))
    out.check(err is not None, "paper pair missing")
    busy_s, _ = _histogram_sums(metrics, "service_job_wall_seconds")
    # the server is idle most of the traffic window: its busy time is
    # scaled by the jobs' own scales, weighted by their time.
    scale = scaled_s / raw_s if raw_s else gauge.scale(
        start, max(rec["end"] for rec in done))
    wait_sum, wait_n = _histogram_sums(metrics, "service_queue_wait_seconds")
    extra = {"queue_wait_s": wait_sum / wait_n if wait_n else 0.0,
             "lateness_max_s": lateness}
    if trace_out is not None:
        extra["server_spans"] = json.loads(trace_out.read_text())
    return {"setup_s": setup_s, "calib_s": calib_s,
            "wall_s": busy_s * scale, "wall_raw_s": busy_s,
            "speed_scale": scale,
            "hits": hits, "misses": misses,
            # hits take a few ms and spread 2x from job to job (journal
            # fsyncs, a host hiccup): the 10th percentile of the 48 is
            # steadier from run to run than their median or mean.
            "hit_s": statistics.quantiles(hits, n=10)[0],
            # every run simulates the same four ladders: their mean does
            # not depend on which one the seed puts first (and so pays
            # the server's warm-up).
            "miss_s": statistics.fmean(misses),
            "paper_speedup_err": err,
            "peak_rss_mb": peak_rss_mb, "attempted": out.attempted,
            "failed": out.failed, "errors": out.errors, **extra}


def _total_cycles(payload: dict) -> float:
    from repro.metrics.counters import counters_from_dict

    return counters_from_dict(payload).total_cycles


# ---------------------------------------------------------------------------


def install(recorder):
    if recorder is None:
        return None
    import layers

    return layers.install(recorder)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this "
                         "process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, metavar="FILE",
                    help="wrap the layers and write span totals to FILE")
    args = ap.parse_args(argv)

    work_dir = Path(args.work_dir).resolve()
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = None
    if args.trace:
        import layers

        recorder = layers.SpanRecorder()
    # the work, the gauge thread and (for service) the server and the
    # load generator share one CPU, so the gauge reads the CPU they use.
    pin_to_one_cpu()
    if args.workload == "service":
        rep = run_service(args, work_dir, recorder)
    elif args.workload == "autotune":
        rep = run_autotune_rep(args, work_dir / "cache", recorder)
    else:
        rep = run_sweep(args, work_dir / "cache", recorder)
    if "peak_rss_mb" not in rep and not args.setup_only:
        rep["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    if recorder is not None:
        Path(args.trace).write_text(json.dumps(recorder.snapshot()))
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
