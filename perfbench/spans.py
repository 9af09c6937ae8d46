"""Spans and counters around seqmin's public functions, for the traced run.

Each traced function is wrapped here, in the benchmark's own files, and
the wrapper is rebound in every seqmin module that holds the original
(``seqmin.lfsr.add_scaled`` and ``seqmin.plcp.mr_init`` are such names),
so calls between seqmin's modules are seen too.  ``uninstall`` puts the
originals back.

A span records (name, start, end, parent span, operation id).  Spans stay
in memory until the run writes them out.  A group's self time is the time
of its spans minus the time of their child spans.  Ring methods are
counted, not timed.
"""

from __future__ import annotations

import sys
import time

# metric group -> (module, function) pairs whose spans it sums
SPAN_GROUPS = {
    "cli.self_s": [("seqmin.cli", "main")],
    "cli.build_parser_s": [("seqmin.cli", "build_parser")],
    "sequence.parse_s": [("seqmin.sequence", "parse_sequence"), ("seqmin.poly", "parse_poly")],
    "lfsr.engine_s": [("seqmin.lfsr", f) for f in
                      ("run", "minimal_realisation", "mr_scan", "lc_profile")],
    "lfsr.verify_s": [("seqmin.lfsr", "verify_identity")],
    "poly.add_scaled_s": [("seqmin.poly", "add_scaled")],
    "poly.mul_s": [("seqmin.poly", "mul")],
    "bezout.s": [("seqmin.bezout", "bezout_pair")],
    "plcp.s": [("seqmin.plcp", f) for f in ("is_plcp", "check_stable_theorem", "count_plcp")],
    "annihilator.s": [("seqmin.annihilator", f) for f in
                      ("lc_bullet", "min_nonvanishing", "extend_by_jump")],
    "reverse.s": [("seqmin.reverse", f) for f in ("reverse_lc", "iy_classify")],
    "oracle.s": [("seqmin.oracle", f) for f in ("brute_min_annihilator", "ext_euclid")],
}

# counter -> (module, function) whose calls it counts
CALL_COUNTS = {
    "lfsr.engine_passes": ("seqmin.lfsr", "mr_init"),
    "lfsr.steps": ("seqmin.lfsr", "mr_step"),
    "poly.add_scaled_calls": ("seqmin.poly", "add_scaled"),
    "poly.mul_calls": ("seqmin.poly", "mul"),
}

RING_METHODS = ("mul", "add", "is_zero", "coerce")

COUNTERS = tuple(CALL_COUNTS) + ("poly.mul_coeff_products",) + tuple(
    "ring.%s_calls" % m for m in RING_METHODS)


class Tracer:
    """Installs wrappers; collects spans, self times and counts per operation."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, op id)
        self.self_s = {}  # (op id, group) -> seconds
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack = []  # [span id, child seconds] of open spans
        self._next_id = 0
        self._undo = []

    # -- installing ---------------------------------------------------------

    def install(self, functions=True, ring_methods=RING_METHODS):
        """Wrap the traced functions (unless functions=False) and ring methods."""
        wrappers = {}
        for group, targets in SPAN_GROUPS.items():
            for key in targets:
                wrappers[key] = self._span(group, key[1], _lookup(*key))
        for counter, key in CALL_COUNTS.items():
            inner = wrappers.get(key) or _lookup(*key)
            wrappers[key] = self._count(counter, inner, key == ("seqmin.poly", "mul"))
        if functions:
            for key, wrapper in wrappers.items():
                self._rebind(_lookup(*key), wrapper)
        ring = sys.modules["seqmin.ring"]
        for m in ring_methods:
            owners = [c for c in vars(ring).values() if isinstance(c, type)
                      and issubclass(c, ring.Domain) and m in vars(c)]
            if not owners:
                raise AttributeError("no domain of seqmin.ring defines %r" % m)
            for cls in owners:
                orig = vars(cls)[m]
                setattr(cls, m, self._count("ring.%s_calls" % m, orig))
                self._undo.append((cls, m, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "seqmin" or modname.startswith("seqmin."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    # -- wrappers -------------------------------------------------------------

    def _span(self, group, name, f):
        stack, spans, self_s = self._stack, self.spans, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append([sid, 0.0])
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                t1 = clock()
                _, child = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = (self.op, group)
                self_s[key] = self_s.get(key, 0.0) + dur - child
                spans.append((sid, name, t0, t1, parent, self.op))

        return traced

    def _count(self, counter, f, products=False):
        counts = self.counts

        if products:
            def counted(a, b):
                counts[counter] += 1
                counts["poly.mul_coeff_products"] += len(a.coeffs) * len(b.coeffs)
                return f(a, b)
        else:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return f(*args, **kwargs)

        return counted


def _lookup(modname, fname):
    """The traced function; a name seqmin no longer has fails the traced run."""
    return getattr(sys.modules[modname], fname)
