"""Deterministic text and JSON renderers for local forms."""

from __future__ import annotations

import json

SCHEMA = "varcalc.report.v1"


def _midx_suffix(midx):
    digits = []
    for mu, k in enumerate(midx):
        digits.extend([str(mu)] * k)
    return "_," + "".join(digits) if digits else ""


def _fn_name(chart, sym, dords):
    fn = chart.function(sym)
    total = sum(dords)
    if fn.arity == 1 and total <= 3:
        return fn.name + "'" * total
    if total == 0:
        return fn.name
    return fn.name + "{" + ",".join(str(d) for d in dords) + "}"


def _args_text(chart, args, scaled=False):
    out = []
    for a in args:
        if a[0] == '0':
            out.append("0")
        else:
            nm = chart.component(a[1]).name + _midx_suffix(a[2])
            out.append("l " + nm if scaled else nm)
    return "(" + ", ".join(out) + ")"


def atom_text(chart, atom):
    t = atom[0]
    if t == 'j':
        return chart.component(atom[1]).name + _midx_suffix(atom[2])
    if t == 'ji':
        return "inv(" + chart.component(atom[1]).name + ")"
    if t == 'f':
        return _fn_name(chart, atom[1], atom[2]) + _args_text(chart, atom[3])
    if t == 'F':
        inner = " * ".join(
            _fn_name(chart, app[1], app[2]) + _args_text(chart, app[3], scaled=True)
            for app in atom[2])
        return f"fint({atom[1]}; {inner})"
    if t == 'v':
        return "delta(" + chart.component(atom[1]).name + _midx_suffix(atom[2]) + ")"
    if t == 'h':
        return "dx" + str(atom[1])
    raise ValueError(f"unknown atom {atom!r}")


def _term_sort_key(key):
    return (len(key), key)


_SLOT = {'v': 1, 'h': 2}        # factors, vertical legs, horizontal legs


def _rendered(form):
    """Each term of a form in print order, every atom rendered once:
    (coefficient, [factors, vertical legs, horizontal legs], unsigned
    text)."""
    chart = form.chart
    out = []
    for key in sorted(form.terms, key=_term_sort_key):
        c = form.terms[key]
        lists = ([], [], [])
        for a in key:
            lists[_SLOT.get(a[0], 0)].append(atom_text(chart, a))
        mag = -c if c < 0 else c
        body = " * ".join(([str(mag)] if mag != 1 or not key else []) + lists[0])
        legs = lists[1] + lists[2]
        if legs:
            body = " ∧ ".join(([body] if body else []) + legs)
        out.append((c, lists, body))
    return out


def _text(terms):
    """Rendered terms joined by their signs; "0" for none."""
    if not terms:
        return "0"
    pieces = [("-" if c < 0 else "") + body for c, _lists, body in terms[:1]]
    pieces += [("- " if c < 0 else "+ ") + body for c, _lists, body in terms[1:]]
    return " ".join(pieces)


def render_text(form):
    return _text(_rendered(form))


def form_json(form):
    terms = _rendered(form)
    p, q = form.grading()
    return {
        "grading": {"vertical": p, "horizontal": q,
                    "ghost": form.ghost_degree()},
        "text": _text(terms),
        "terms": [{"coeff": f"{c.numerator}/{c.denominator}", "factors": factors,
                   "vertical": vertical, "horizontal": horizontal}
                  for c, (factors, vertical, horizontal), _body in terms],
    }


def report_json(command, results):
    doc = {"schema": SCHEMA, "generator": "varcalc 0.1.0",
           "command": command, "results": results}
    return json.dumps(doc, indent=2, sort_keys=True)
