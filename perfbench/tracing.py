"""Per-layer metrics from a traced run, measured from outside the program.

A layer is a module of the package (``_purecount`` counts as ``kernels``).
Each operation runs under its own ``cProfile`` profiler, which records
Python functions only: a builtin call's time stays in its caller's own
time.  A layer's self time is the time spent in its own functions, plus
the time of standard-library functions (``fractions``, ``re``, ...) called
from them; such a function reached from several layers is split in
proportion to each call edge's cumulative time.  Time in another layer's
functions is that layer's, so a layer's self time is its span time minus
its child spans in other layers.

Two counts are read from call arguments by wrapping one function each, only
while a traced round runs:

* ``kernels.worlds``: sum of 2**nbits over calls of the subset-enumeration
  kernel;
* ``bipartite.pairs``: sum of 2**(n_left + n_right) over pair enumerations.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import program

LAYERS = (
    "cli",
    "instances",
    "cq",
    "evaluate",
    "kernels",
    "gadgets",
    "bipartite",
    "reduction_ur",
    "reduction_pqe",
)
_MODULE_LAYER = {name: name for name in LAYERS} | {"_purecount": "kernels"}

# cumulative time of these functions, per operation, gives the sweep slopes
SLOPE_FUNCTIONS = {
    "cq.match_slope": ("cq", "enumerate_matches"),
    "evaluate.safe_slope": ("evaluate", "pqe_safe"),
}


class Tracer:
    """Profiles operations one at a time and accumulates per-layer figures."""

    def __init__(self):
        self._layer_cache: dict[str, str | None] = {}
        self.counts = {"kernels.worlds": 0, "bipartite.pairs": 0}

    def layer_of(self, func) -> str | None:
        filename = func[0]
        if filename not in self._layer_cache:
            path = Path(filename)
            layer = None
            if path.suffix == ".py" and path.resolve().parent == program.PACKAGE:
                layer = _MODULE_LAYER.get(path.stem)
            self._layer_cache[filename] = layer
        return self._layer_cache[filename]

    @contextmanager
    def counting(self):
        """Count the work of the kernel and the pair enumerator, from zero,
        by wrapping them while the block runs."""
        from qreliab import bipartite, kernels, reduction_ur

        self.counts = dict.fromkeys(self.counts, 0)

        count_kernel = kernels.count_containing_any
        iter_pairs = bipartite.iter_pairs

        def counted_kernel(nbits, masks):
            self.counts["kernels.worlds"] += 1 << nbits
            return count_kernel(nbits, masks)

        def counted_pairs(g, cap=None):
            self.counts["bipartite.pairs"] += 1 << (len(g.left) + len(g.right))
            return iter_pairs(g, cap)

        kernels.count_containing_any = counted_kernel
        bipartite.iter_pairs = counted_pairs
        reduction_ur.iter_pairs = counted_pairs
        try:
            yield
        finally:
            kernels.count_containing_any = count_kernel
            bipartite.iter_pairs = iter_pairs
            reduction_ur.iter_pairs = iter_pairs

    def profile(self, call):
        """Run call() under a fresh profiler; return (answer, seconds, stats)."""
        profiler = cProfile.Profile(builtins=False)
        start = time.perf_counter()
        profiler.enable()
        try:
            answer = call()
        finally:
            profiler.disable()
            seconds = time.perf_counter() - start
        return answer, seconds, pstats.Stats(profiler).stats

    def self_times(self, stats) -> dict[str, float]:
        """Self seconds per layer for one profiled operation."""
        shares: dict = {}

        def share(func, seen: frozenset) -> dict[str, float]:
            """How func's time splits over the layers that called it."""
            if func in shares:
                return shares[func]
            callers = stats[func][4]
            weights = {c: edge[3] for c, edge in callers.items()}
            total = sum(weights.values())
            if total == 0:
                weights = {c: edge[1] for c, edge in callers.items()}
                total = sum(weights.values())
            out: dict[str, float] = defaultdict(float)
            for caller, weight in weights.items():
                if total == 0:
                    break
                layer = self.layer_of(caller)
                if layer is not None:
                    out[layer] += weight / total
                elif caller in stats and caller not in seen:
                    for lay, part in share(caller, seen | {func}).items():
                        out[lay] += weight / total * part
            shares[func] = out
            return out

        totals: dict[str, float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                totals[layer] += tt
            else:
                for lay, part in share(func, frozenset()).items():
                    totals[lay] += tt * part
        return dict(totals)

    def cumulative(self, stats, layer: str, name: str) -> float:
        return sum(
            ct
            for func, (_cc, _nc, _tt, ct, _callers) in stats.items()
            if func[2] == name and self.layer_of(func) == layer
        )


def slope(points: dict[int, float]) -> float:
    """Least-squares exponent b of time = a * size**b; 0 with fewer than two
    sizes that took any time."""
    pts = [(math.log(n), math.log(t)) for n, t in points.items() if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
