"""Per-layer tracing for the benchmark.

The tracer wraps varcalc's layer functions from outside the program.  A
module that did ``from .algebra import d_h`` holds its own reference, so
every ``varcalc.*`` module (and every extra namespace given to ``install``)
that bound a layer function by name is patched, not only the module that
defines it.  Methods are patched on their class.

Each wrapped call is a span: name, start, end, parent span and op id.  The
hot leaves (``norm_word``, ``apply_derivation``, ``wedge``) run hundreds of
thousands of times per op mix, so for them only calls and self time per
(function, parent layer) are aggregated instead of storing one span per
call.  Self time is a span's duration minus the time its traced children
cover.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced layer function; the metric
# prefix is "<module>.<function>".
LAYERS = (
    ("algebra", "norm_word"), ("algebra", "apply_derivation"),
    ("algebra", "LocalForm.wedge"), ("algebra", "d_h"), ("algebra", "d_v"),
    ("algebra", "substitute"),
    ("theory", "Theory.reduce_on_shell"), ("theory", "theory_from_text"),
    ("homotopy", "HomotopySuite.h_horizontal"), ("homotopy", "HomotopySuite.h_inf"),
    ("homotopy", "HomotopySuite.d0"), ("homotopy", "HomotopySuite.sigma1"),
    ("homotopy", "HomotopySuite.h_vertical"), ("homotopy", "pseudo_inverse_psd"),
    ("euler", "interior_euler"), ("euler", "exterior_euler"),
    ("bv", "bv_extend"), ("bv", "bv_bracket"), ("bv", "verify_cme"),
    ("bv", "verify_bvbfv"),
    ("slicing", "restrict_to_slice"), ("slicing", "sigma_noether"),
    ("slicing", "corner_data"),
    ("noether", "verify_identity"), ("noether", "noether2"),
    ("dsl", "parse_theory"), ("dsl", "elaborate_form"),
    ("render", "report_json"), ("render", "render_text"),
    ("cli", "main"),
    ("mech", "flow"), ("mech", "check_conservation"),
)
HOT = {"algebra.norm_word", "algebra.apply_derivation", "algebra.wedge"}

# Published per-layer metrics, "<module>.<function>.<stat>".
METRICS = (
    "algebra.norm_word.calls", "algebra.norm_word.self_s",
    "algebra.norm_word.zero_ratio",
    "algebra.apply_derivation.calls", "algebra.apply_derivation.self_s",
    "algebra.wedge.calls", "algebra.wedge.self_s",
    "algebra.d_h.calls", "algebra.d_h.self_s", "algebra.d_h.terms_out",
    "algebra.d_v.calls", "algebra.d_v.self_s",
    "algebra.substitute.calls", "algebra.substitute.self_s",
    "theory.reduce_on_shell.calls", "theory.reduce_on_shell.self_s",
    "theory.reduce_on_shell.rounds",
    "homotopy.h_horizontal.calls", "homotopy.h_horizontal.self_s",
    "homotopy.h_inf.calls", "homotopy.h_inf.self_s",
    "homotopy.h_inf.sigma1_per_call",
    "homotopy.d0.calls", "homotopy.d0.self_s",
    "homotopy.sigma1.calls", "homotopy.sigma1.self_s",
    "homotopy.h_vertical.calls", "homotopy.h_vertical.self_s",
    "homotopy.pseudo_inverse_psd.calls", "homotopy.pseudo_inverse_psd.self_s",
    "euler.interior_euler.calls", "euler.interior_euler.self_s",
    "euler.exterior_euler.calls", "euler.exterior_euler.self_s",
    "bv.bv_extend.self_s", "bv.bv_bracket.calls", "bv.bv_bracket.self_s",
    "bv.verify_cme.self_s", "bv.verify_bvbfv.self_s",
    "slicing.restrict_to_slice.self_s", "slicing.sigma_noether.self_s",
    "slicing.corner_data.self_s",
    "noether.verify_identity.calls", "noether.verify_identity.self_s",
    "noether.noether2.self_s",
    "dsl.parse_theory.self_s", "dsl.elaborate_form.calls",
    "dsl.elaborate_form.self_s", "theory.theory_from_text.self_s",
    "render.report_json.calls", "render.report_json.self_s",
    "render.render_text.self_s", "cli.main.self_s",
    "mech.flow.self_s", "mech.check_conservation.self_s",
)
# Stats that must repeat exactly between two traced runs at one seed.
DETERMINISTIC = tuple(m for m in METRICS if not m.endswith("self_s"))


def layer_name(module, path):
    return f"{module}.{path.split('.')[-1]}"


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self._stack = []          # [name, start, child_time, span_id]
        self._depth = defaultdict(int)
        self._next_id = 0
        self.spans = []           # (id, name, start, end, parent_id, op_id, self_s)
        self.agg = defaultdict(lambda: [0, 0.0])   # (name, parent) -> [calls, self_s]
        self.counts = defaultdict(int)
        self.incl = defaultdict(float)   # name -> time inside outermost calls
        self._patched = []        # (owner, attr, original)

    # -- patching -----------------------------------------------------------
    def install(self, extra_namespaces=()):
        """Wrap every layer function wherever varcalc bound it by name."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "varcalc" or n.startswith("varcalc."))]
        for module, path in LAYERS:
            owner = sys.modules[f"varcalc.{module}"]
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            orig = owner.__dict__[parts[-1]]
            wrapped = self._wrap(layer_name(module, path), orig)
            self._set(owner, parts[-1], orig, wrapped)
            if len(parts) == 1:
                for ns in list(mods) + list(extra_namespaces):
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._set(ns, attr, orig, wrapped)

    def _set(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        depth = self._depth
        counts = self.counts
        incl = self.incl
        clock = time.perf_counter
        hot = name in HOT
        on_result = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "algebra.substitute" and depth["theory.reduce_on_shell"]:
                counts["theory.reduce_on_shell.rounds"] += 1
            elif name == "homotopy.sigma1" and depth["homotopy.h_inf"]:
                counts["homotopy.h_inf.sigma1_per_call"] += 1
            if hot:
                span_id = None
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                dur = end - frame[1]
                self_s = dur - frame[2]
                if not depth[name]:
                    incl[name] += dur
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if hot:
                    cell = tracer.agg[(name, parent[0] if parent else None)]
                    cell[0] += 1
                    cell[1] += self_s
                else:
                    tracer.spans.append((span_id, name, frame[1], end,
                                         parent[3] if parent else None,
                                         tracer.op_id, self_s))
            if on_result is not None:
                on_result(counts, res)
            return res
        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------
    def layer_totals(self):
        """{name: [calls, self_s]} over spans and aggregated leaves."""
        tot = defaultdict(lambda: [0, 0.0])
        for (name, _parent), (calls, self_s) in self.agg.items():
            tot[name][0] += calls
            tot[name][1] += self_s
        for span in self.spans:
            cell = tot[span[1]]
            cell[0] += 1
            cell[1] += span[6]
        return tot

    def metrics(self):
        tot = self.layer_totals()
        out = {}
        for metric in METRICS:
            layer, stat = metric.rsplit(".", 1)
            calls, self_s = tot.get(layer, (0, 0.0))
            if stat == "calls":
                out[metric] = calls
            elif stat == "self_s":
                out[metric] = self_s
            elif stat == "zero_ratio":
                out[metric] = self.counts[metric] / calls if calls else 0.0
            elif stat == "terms_out":
                out[metric] = self.counts[metric]
            else:   # rounds, sigma1_per_call: per call of the layer
                out[metric] = self.counts[metric] / calls if calls else 0.0
        return out

    def dump(self, path, meta):
        import json
        doc = {"meta": meta, "inclusive_s": dict(self.incl),
               "span_fields": ["id", "name", "start", "end", "parent", "op", "self_s"],
               "spans": self.spans,
               "aggregated": [[n, p, c, s] for (n, p), (c, s) in sorted(
                   self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_zero(counts, res):
    if res is None:
        counts["algebra.norm_word.zero_ratio"] += 1


def _count_terms(counts, res):
    counts["algebra.d_h.terms_out"] += len(res.terms)


_COUNTERS = {"algebra.norm_word": _count_zero, "algebra.d_h": _count_terms}
