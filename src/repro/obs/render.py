"""Terminal rendering of traces: phase timeline and vl histograms.

A text-mode substitute for the Paraver gradient views the paper reads:
:func:`timeline` finds which phase dominates each slice of the run,
``render_timeline`` draws that as one strip, ``render_vl_hist`` shows the AVL distribution -- the artifact that makes
the Vitruvius mod-40 FSM effect visible straight from a sweep.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional

from repro.obs.tracer import Tracer

#: glyph per phase id for the timeline strip.
# assembly phases 1-8 render as digits; solver phases 9-12
# (spmv, dot, axpy, precond) as s/d/a/p.
_PHASE_GLYPHS = "·12345678sdap"


def timeline(tracer: Tracer, buckets: int = 40) -> list[tuple[float, int]]:
    """Coarse phase timeline: dominant phase per time bucket.

    A text-mode substitute for a Paraver phase-gradient view; returns
    (bucket start time, dominant phase) pairs.
    """
    total = tracer.total_cycles()
    if total <= 0 or not tracer.blocks:
        return []
    width = total / buckets
    out = []
    for i in range(buckets):
        lo, hi = i * width, (i + 1) * width
        weights: Counter = Counter()
        for b in tracer.blocks:
            overlap = min(hi, b.t_end) - max(lo, b.t_start)
            if overlap > 0:
                weights[b.phase] += overlap
        if weights:
            out.append((lo, weights.most_common(1)[0][0]))
    return out


def render_timeline(tracer: Tracer, buckets: int = 64) -> str:
    """One-line dominant-phase timeline plus a legend."""
    tl = timeline(tracer, buckets=buckets)
    if not tl:
        return "(empty trace)"
    strip = "".join(
        _PHASE_GLYPHS[p] if 0 < p < len(_PHASE_GLYPHS) else "?"
        for _, p in tl)
    total = tracer.total_cycles()
    return (f"phase timeline ({total:,.0f} cycles, {len(tl)} buckets)\n"
            f"  |{strip}|\n"
            f"  legend: glyph = dominant phase in that time slice "
            f"(1-8 assembly, s/d/a/p = solver spmv/dot/axpy/precond)")


def mod40_fraction(hist: Mapping[int, float]) -> float:
    """Fraction of dynamic vector instructions whose granted vl is a
    multiple of 40 (the Vitruvius FSM's fast lengths, paper §2.3)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    return sum(c for vl, c in hist.items() if vl % 40 == 0) / total


def render_vl_hist(hist: Mapping[int, float], title: str = "vl histogram",
                   width: int = 40, top: Optional[int] = None) -> str:
    """ASCII bar chart of a {granted vl: dynamic count} histogram."""
    if not hist:
        return f"{title}: (no vector instructions)"
    items = sorted(hist.items())
    if top is not None and len(items) > top:
        items = sorted(items, key=lambda kv: -kv[1])[:top]
        items.sort()
    peak = max(c for _, c in items)
    total = sum(hist.values())
    lines = [f"{title} ({total:,.0f} vector instructions, "
             f"{100 * mod40_fraction(hist):.0f}% at vl % 40 == 0)"]
    for vl, count in items:
        bar = "#" * max(1, int(round(width * count / peak)))
        tag = " *" if vl % 40 == 0 else ""
        lines.append(f"  vl {vl:>4} | {bar} {count:,.0f}{tag}")
    lines.append("  (* = multiple of 40: fastest through the Vitruvius FSM)")
    return "\n".join(lines)


def render_phase_vl_hists(per_phase: Mapping[int, Mapping[int, float]],
                          width: int = 30) -> str:
    """Per-phase AVL distributions, one block per phase."""
    blocks = []
    for phase in sorted(per_phase):
        hist = per_phase[phase]
        if not hist:
            continue
        blocks.append(render_vl_hist(hist, title=f"phase {phase}",
                                     width=width))
    return "\n".join(blocks) if blocks else "(no vector instructions)"
