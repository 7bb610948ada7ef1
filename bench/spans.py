"""Span tracing of the xyyx layers, applied from outside the package.

``Tracer.install`` replaces each traced function by a wrapper at every xyyx
module that holds it by name (``xyyx.cli.eval_product`` and
``xyyx.transforms.eval_product`` are the same function under two names), and
wraps mpmath's ``mp.log`` to count logarithms.  Spans stay in memory until
``write``.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import sys
import time

from mpmath import mp

# Traced functions per module.  In cli only these three are traced, so that
# cli.main's self time holds argument parsing, payload rendering and the JSON
# dump.  errors holds only exception types.
LAYERS = {
    "cli": ["main", "build_parser", "render_real"],
    "transforms": ["pair_from_euler", "manual_pair", "quad_from_family", "manual_quad",
                   "closed_equality_check", "verify_pair_transform", "verify_quad_transform"],
    "vpv": ["visible_points", "mobius_sieve", "count_visible", "closed_form", "tail_bound",
            "eval_product", "log_double_series", "exact_regroup_check"],
    "solutions": ["euler_solution", "verify_power_equation", "general_solution",
                  "rational_family", "verify_product_equation", "verify_fractions",
                  "manual_tuple", "numeric_verify", "classify_triviality",
                  "search_integer_solutions"],
    "exact": ["is_prime", "factorize", "log10_interval", "digit_count",
              "PrimePowerProduct.__mul__", "PrimePowerProduct.__pow__"],
}

# Span layout: [name, start_ns, end_ns, parent index, request id, mp.log calls
# made directly inside, note]; the note is the box of an eval_product span and
# the warning of a verify_quad_transform span.
NOTES = {
    "vpv.eval_product": lambda report: report.truncation,
    "transforms.verify_quad_transform": lambda report: report.warning,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.request, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[6] = note(result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "xyyx" or n.startswith("xyyx.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"xyyx.{layer}"]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                if owner_name:  # a method: replace it on its class
                    self._replace(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapper)

        spans, stack, log = self.spans, self.stack, mp.log

        def counted_log(*args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            return log(*args, **kwargs)

        mp.log = counted_log  # instance attribute shadows the context method
        self._undo.append(lambda: delattr(mp, "log"))

    def _replace(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_ns, self_ns, logs (inclusive), notes."""
        spans = self.spans
        child_ns = [0] * len(spans)
        logs = [s[5] for s in spans]
        for i in range(len(spans) - 1, -1, -1):
            s = spans[i]
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
                logs[s[3]] += logs[i]
        out: dict[str, dict] = {}
        for i, s in enumerate(spans):
            agg = out.setdefault(s[0], {"calls": 0, "total_ns": 0, "self_ns": 0, "logs": 0, "notes": []})
            agg["calls"] += 1
            agg["total_ns"] += s[2] - s[1]
            agg["self_ns"] += s[2] - s[1] - child_ns[i]
            agg["logs"] += logs[i]
            if s[6] is not None:
                agg["notes"].append(s[6])
        return out

    def write(self, path) -> None:
        """One tab-separated line per span, in start order."""
        with open(path, "w") as f:
            f.write("id\tparent\trequest\tname\tstart_ns\tend_ns\tlogs\tnote\n")
            t0 = self.spans[0][1] if self.spans else 0
            for i, s in enumerate(self.spans):
                note = "" if s[6] is None else str(s[6])
                f.write(f"{i}\t{s[3]}\t{s[4]}\t{s[0]}\t{s[1] - t0}\t{s[2] - t0}\t{s[5]}\t{note}\n")
