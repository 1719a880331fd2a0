"""Deterministic text and JSON renderers for local forms."""

from __future__ import annotations

import json
from fractions import Fraction

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


def term_text(chart, key, coeff):
    scal = [atom_text(chart, a) for a in key if a[0] not in ('v', 'h')]
    legs = [atom_text(chart, a) for a in key if a[0] in ('v', 'h')]
    c = Fraction(coeff)
    mag = -c if c < 0 else c
    parts = []
    if mag != 1 or (not scal and not legs):
        parts.append(str(mag))
    parts.extend(scal)
    body = " * ".join(parts) if parts else ""
    if legs:
        wedge = " ∧ ".join(legs)
        body = (body + " ∧ " + wedge) if body else wedge
    return ("-" if c < 0 else "") + body


def _term_sort_key(key):
    return (len(key), key)


def render_text(form):
    if form.is_zero():
        return "0"
    chart = form.chart
    pieces = []
    for key in sorted(form.terms, key=_term_sort_key):
        txt = term_text(chart, key, form.terms[key])
        if pieces and not txt.startswith("-"):
            pieces.append("+ " + txt)
        elif pieces:
            pieces.append("- " + txt[1:])
        else:
            pieces.append(txt)
    return " ".join(pieces)


def form_json(form):
    chart = form.chart
    terms = []
    for key in sorted(form.terms, key=_term_sort_key):
        c = form.terms[key]
        terms.append({
            "coeff": f"{c.numerator}/{c.denominator}",
            "factors": [atom_text(chart, a) for a in key if a[0] not in ('v', 'h')],
            "vertical": [atom_text(chart, a) for a in key if a[0] == 'v'],
            "horizontal": [atom_text(chart, a) for a in key if a[0] == 'h'],
        })
    p, q = form.grading()
    return {
        "grading": {"vertical": p, "horizontal": q,
                    "ghost": form.ghost_degree()},
        "text": render_text(form),
        "terms": terms,
    }


def report_json(command, results):
    doc = {"schema": SCHEMA, "generator": "varcalc 0.1.0",
           "command": command, "results": results}
    return json.dumps(doc, indent=2, sort_keys=True)
