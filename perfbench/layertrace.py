"""Outside-in tracing of gaussem: span wrappers around each module's public callables.

The benchmark never edits the program.  A ``Tracer`` replaces a callable
where its caller looks it up (methods on their class, functions in the
importing module's namespace), records one span per call and puts every
original back in ``restore``.  A layer's self time is its span's duration
minus the part of that interval covered by its direct child spans.

Run as a script, this file is a traced stand-in for ``python -m gaussem.cli``:

    PYTHONPATH=src python3 perfbench/layertrace.py superadd --model sk --n 8 --n1 4 --beta 1

It writes the command's output unchanged to stdout and, as the last line of
stderr, ``perfbench-trace <json>`` with per-span-name totals.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

MARKER = "perfbench-trace "


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(id(s), []), s.start, s.end)
        for s in spans
    ]


def summarize(spans: list[Span]) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds]."""
    out: dict[str, list[float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own
    return out


class Tracer:
    """Span recorder that patches callables in place and restores them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()  # guards the read-modify-write in `after` hooks
        self._saved: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str | Callable[[object], str],
             after: Callable[["Tracer", tuple, dict, object], None] | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a function of the call's result that
        returns it.  ``after`` runs outside the span, so its work is not
        charged to the layer.
        """
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name if isinstance(name, str) else attr, 0.0, 0.0,
                        stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
            if not isinstance(name, str):
                span.name = name(result)
            if after is not None:
                with tracer._lock:
                    after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> dict:
        return {
            "spans": summarize(self.spans),
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
        }


MB = 1e6


def _weight_bytes(tracer: Tracer, args: tuple, kwargs: dict, sampler) -> None:
    # computed from the coupling count; the map itself is not built here
    from gaussem.disorder import StructuralSampler

    model = args[0]
    if not isinstance(sampler, StructuralSampler) or model.kind == "rem":
        return
    n_couplings = model.coupling_structure().n_couplings
    tracer.peaks["disorder.weight_mb"] = max(
        tracer.peaks["disorder.weight_mb"], (1 << model.n) * n_couplings * 8 / MB)


def _gap_bytes(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    n = args[1].n
    tracer.peaks["audit.gap_mb"] = max(tracer.peaks["audit.gap_mb"], 4**n * 8 / MB)


def _triple_bytes(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    # every joint draw of the scan is held: full, two lifts and two blocks
    partition, samples = args[1], args[4]
    per_draw = 3 * (1 << partition.n) + (1 << partition.n1) + (1 << partition.n2)
    tracer.peaks["disorder.triple_mb"] = max(
        tracer.peaks["disorder.triple_mb"], samples * per_draw * 8 / MB)


def _count_pairs(tracer: Tracer, args: tuple, kwargs: dict, report) -> None:
    tracer.counters["audit.pairs"] += report.pairs_checked


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables each benchmark layer is measured through."""
    from gaussem import audit, cli, disorder, grem, interpolation, models, thermo

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(disorder.SeedPolicy, "stream", "disorder.stream")
    tracer.wrap(disorder.StructuralSampler, "sample", "disorder.sample")
    tracer.wrap(disorder.CholeskySampler, "sample", "disorder.sample")
    tracer.wrap(disorder.TripleSampler, "draw", "disorder.triple_draw")
    for owner in (disorder, thermo):
        tracer.wrap(owner, "make_sampler", "disorder.make_sampler", after=_weight_bytes)
    tracer.wrap(models.CouplingStructure, "weight_matrix", "models.weight_matrix")
    tracer.wrap(thermo, "alpha_of_energies", "thermo.alpha_of_energies")
    for owner in (cli, thermo):
        tracer.wrap(owner, "quenched_alpha", "thermo.quenched_alpha")
    tracer.wrap(cli, "superadditivity_report", "thermo.superadditivity_report")
    tracer.wrap(cli, "monotonicity_scan", "interpolation.monotonicity_scan",
                after=_triple_bytes)
    tracer.wrap(interpolation.TwoReplicaGibbs, "__init__", "interpolation.gibbs")
    tracer.wrap(audit, "gap_matrix", "audit.gap_matrix", after=_gap_bytes)
    tracer.wrap(cli, "check_condition", "audit.check_condition")
    tracer.wrap(audit, "audit_partition",
                lambda r: "audit.partition_exact" if r.exact else "audit.partition_dense",
                after=_count_pairs)
    tracer.wrap(cli, "validate_psd", "audit.validate_psd")
    for owner in (audit, disorder):
        tracer.wrap(owner, "psd_factor", "util.psd_factor")
    tracer.wrap(grem, "merge_level_matrix", "grem.merge_level_matrix")
    tracer.wrap(cli, "check_lift_covariance", "grem.check_lift_covariance")


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import gaussem.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install_layers(tracer)
    try:
        status = gaussem.cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    doc = tracer.summary()
    doc["import_s"] = import_s
    sys.stderr.write(MARKER + json.dumps(doc, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
