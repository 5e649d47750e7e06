"""Spans around the library's layers, recorded from outside the library.

The worker wraps every public function each layer module defines (plus
``FieldSpec.np_tables``) and rebinds the name in every ``constacyclic``
module that imported it, so ``cosets_of`` is traced whether it is called
from ``arith``, ``codes`` or ``duadic``.  Spans live in memory as
``[name, start, end, parent, op]`` rows and are written out when the
pass ends; the analysis half of this file turns them into self times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("arith", "gf", "codes", "duadic", "mds", "cli")
ROOT = "op"  # the harness's own span around each op


def _is_skipped_alg(result):
    return any(
        c.name == "factor-product-identity" and c.skipped for c in result.checks
    )


def _counters():
    """Per-span counters: (counts, args, result) hooks run after the call."""
    seen_tables = set()

    def cosets_of(counts, args, result):
        counts["arith.cosets_of.residues"] += len(result.ambient)

    def poly_from_root_set(counts, args, result):
        counts["gf.poly_from_root_set.roots"] += len(result.coeffs) - 1

    def np_tables(counts, args, result):
        field = args[0]
        if field not in seen_tables:  # tables are built once per field
            seen_tables.add(field)
            counts["gf.np_tables.cells"] += field.q * field.q

    def min_distance(counts, args, result):
        code = args[0]
        q, k = code.setting.q, code.dim
        counts["codes.min_distance.codewords"] += (q**k - 1) // (q - 1)

    def verify_splitting(counts, args, result):
        counts["duadic.verify.alg_skipped"] += _is_skipped_alg(result)

    def verify_certificate(counts, args, result):
        counts["duadic.verify.alg_skipped"] += _is_skipped_alg(result[0])

    return {
        "arith.cosets_of": cosets_of,
        "gf.poly_from_root_set": poly_from_root_set,
        "gf.np_tables": np_tables,
        "codes.min_distance": min_distance,
        "duadic.verify_splitting": verify_splitting,
        "duadic.verify_certificate": verify_certificate,
    }


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = True
        self.counts = defaultdict(int)

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        from constacyclic.errors import TooLarge

        tracer, counts = self, self.counts
        too_large = name + ".too_large"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except TooLarge:
                counts[too_large] += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(counts, args, result)
            return result

        return traced


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "constacyclic" or name.startswith("constacyclic."))
    ]


def _rebind(old, new):
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def public_functions(module):
    """(name, function) for each public callable the module itself defines."""
    return [
        (name, obj) for name, obj in vars(module).items()
        if not name.startswith("_")
        and not isinstance(obj, type)
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    ]


def install(tracer):
    """Wrap every layer's public functions and ``FieldSpec.np_tables``."""
    import importlib

    from constacyclic import gf

    counters = _counters()
    for layer in LAYERS:
        module = importlib.import_module(f"constacyclic.{layer}")
        for fname, fn in public_functions(module):
            name = f"{layer}.{fname}"
            _rebind(fn, tracer.wrap(name, fn, counters.get(name)))
    gf.FieldSpec.np_tables = tracer.wrap(
        "gf.np_tables", gf.FieldSpec.np_tables, counters["gf.np_tables"]
    )


def install_mul_counter():
    """Count FieldSpec.mul calls (a counting pass, no spans); returns a reader."""
    from constacyclic import gf

    calls = [0]
    mul = gf.FieldSpec.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    gf.FieldSpec.mul = counted
    return lambda: calls[0]


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered = _union_length(
            (max(start, spans[k][1]), min(end, spans[k][2])) for k in kids
        )
        out.append(end - start - covered)
    return out


def inclusive_time(spans, names):
    """Summed duration of spans named in ``names`` not nested in another one."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def layer_of(name):
    return "harness" if name == ROOT else name.split(".", 1)[0]
