"""Spans and counters for the benchmark's traced mode.

The benchmark wraps every call it makes into a public function of the
library in a span named ``<module>.<function>``.  Spans hold a name, start,
end, parent span and item id; they stay in memory and are written out when
the run ends.  Counters record sizes and iteration counts at the same call
sites.  With tracing off, :class:`NullTracer` keeps the same call shape and
records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Span name -> per-layer time metric.  A layer metric is the summed self time
# of its spans (duration minus the time covered by child spans).
LAYER_OF_SPAN = {
    "physmodels.quench_amplitudes": "physmodels.quench_s",
    "physmodels.quench_dataset": "physmodels.quench_s",
    "physmodels.thermal_dataset_ed": "physmodels.thermal_ed_s",
    "physmodels.state_dataset": "physmodels.state_data_s",
    "physmodels.concurrence_noise_robustness": "physmodels.concurrence_s",
    "physmodels.optimal_structure_witness": "physmodels.structure_s",
    "corrdata.write_dataset": "corrdata.io_s",
    "corrdata.read_dataset": "corrdata.io_s",
    "momentmat.layout_for": "momentmat.layout_s",
    "sdpcore.assemble_primal": "sdpcore.assemble_s",
    "sdpcore.solve": "sdpcore.solve_s",
    "sdpcore.extract_witness": "sdpcore.witness_s",
    "witnesslab.cmc_check": "witnesslab.cmc_s",
    "witnesslab.phase_witness_value": "witnesslab.families_s",
    "witnesslab.bipartite_witness_value": "witnesslab.families_s",
    "witnesslab.spin_squeezing_check": "witnesslab.families_s",
    "witnesslab.eval_witness": "witnesslab.eval_s",
    "seporacle.random_product_state": "seporacle.product_data_s",
    "seporacle.dataset_of": "seporacle.product_data_s",
    "seporacle.max_over_product_states": "seporacle.search_s",
}

COUNTERS = ("corrdata.io_bytes", "momentmat.gamma_dim", "momentmat.free_vars",
            "sdpcore.iterations", "sdpcore.schur_dim", "sdpcore.block_cube_sum",
            "sdpcore.non_optimal")

ITEM_SPAN = "item"


class Span:
    __slots__ = ("name", "start", "end", "parent", "item")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item}


class _Open:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append(Span(self.name, time.perf_counter(), parent, tr.item))
        tr._stack.append(len(tr.spans) - 1)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[tr._stack.pop()].end = time.perf_counter()
        return False


class Tracer:
    """Records spans and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = []  # (item, name, value)
        self.item = None
        self._stack = []

    def span(self, name):
        return _Open(self, name)

    def call(self, name, fn, *args, **kwargs):
        with _Open(self, name):
            return fn(*args, **kwargs)

    def count(self, name, value):
        self.counts.append((self.item, name, value))

    def dump(self):
        return {"spans": [s.as_dict(k) for k, s in enumerate(self.spans)],
                "counts": [{"item": i, "name": n, "value": v} for i, n, v in self.counts]}


class _Nothing:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOTHING = _Nothing()


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    item = None

    def span(self, name):
        return _NOTHING

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


def layer_totals(tracer, items):
    """Per-layer self times, counters and span coverage over ``items``.

    Returns ``(times, counts, covered, item_time)``: summed self time per
    layer metric, summed counters, the time of the item spans covered by
    their named child spans, and the summed duration of the item spans.
    """
    items = set(items)
    child_time = defaultdict(float)
    for s in tracer.spans:
        if s.item in items and s.parent is not None:
            child_time[s.parent] += s.end - s.start
    times = defaultdict(float)
    covered = item_time = 0.0
    for k, s in enumerate(tracer.spans):
        if s.item not in items:
            continue
        dur = s.end - s.start
        if s.name == ITEM_SPAN:
            item_time += dur
            covered += child_time[k]
        else:
            times[LAYER_OF_SPAN[s.name]] += dur - child_time[k]
    counts = defaultdict(float)
    for item, name, value in tracer.counts:
        if item in items:
            counts[name] += value
    return times, counts, covered, item_time
