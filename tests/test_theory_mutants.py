"""Mutants of the bundled theory files: drop, repeat or swap a token or a
line.  Each mutant builds, or raises a VarcalcError subclass; an error
raised while a declaration is read or elaborated carries its position
(notes/decisions.md §17)."""

import re
from importlib import resources

from hypothesis import given, settings, strategies as st

from varcalc.chart import InvariantViolation, NoSolvedForm, VarcalcError
from varcalc.theory import theory_from_text

TEXTS = {p.name[:-4]: p.read_text(encoding="utf-8")
         for p in sorted(resources.files("varcalc.theories").iterdir(),
                         key=lambda p: p.name)
         if p.name.endswith(".thy")}
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def _tokens(line):
    """A line as pieces: whitespace runs, words and single symbols."""
    return re.findall(r"\s+|[\w',]+|.", line)


def mutate(text, op, i, j, k=0):
    """``text`` with one edit: of lines i and j, or of tokens j and k of
    line i (indices taken modulo the count)."""
    lines = text.splitlines()
    a, b = i % len(lines), j % len(lines)
    if op == "drop line":
        del lines[a]
    elif op == "repeat line":
        lines.insert(a, lines[a])
    elif op == "swap lines":
        lines[a], lines[b] = lines[b], lines[a]
    else:
        pieces = _tokens(lines[a])
        toks = [n for n, p in enumerate(pieces) if not p.isspace()]
        if not toks:
            return None
        s, t = toks[j % len(toks)], toks[k % len(toks)]
        if op == "drop token":
            del pieces[s]
        elif op == "repeat token":
            pieces.insert(s, pieces[s] + " ")
        else:
            pieces[s], pieces[t] = pieces[t], pieces[s]
        lines[a] = "".join(pieces)
    return "\n".join(lines) + "\n"


def _exempt(e):
    """The exit-1 kinds of §17 that carry no position: the invariants of
    Theory, a missing lagrangian, and no solved form for the `solve` jets."""
    return (isinstance(e, (InvariantViolation, NoSolvedForm))
            or str(e) == "theory has no lagrangian")


@SEEDED
@given(st.sampled_from(sorted(TEXTS)),
       st.sampled_from(["drop line", "repeat line", "swap lines",
                        "drop token", "repeat token", "swap tokens"]),
       st.integers(0, 200), st.integers(0, 200), st.integers(0, 200))
def test_mutant_builds_or_raises_a_positioned_error(name, op, i, j, k):
    text = mutate(TEXTS[name], op, i, j, k)
    if text is None:
        return
    try:
        theory_from_text(text)
    except VarcalcError as e:
        if not _exempt(e):
            assert e.line is not None, (type(e).__name__, str(e), text)
            assert str(e).startswith(f"{e.line}:{e.col}: "), str(e)


def test_mutations_edit_the_text():
    text = TEXTS["scalar_field"]
    lines = text.splitlines()
    assert mutate(text, "drop line", 1, 0).splitlines() == lines[:1] + lines[2:]
    assert mutate(text, "repeat line", 1, 0).splitlines() == lines[:2] + lines[1:]
    swapped = mutate(text, "swap lines", 0, 1).splitlines()
    assert swapped[:2] == [lines[1], lines[0]]
    assert mutate("theory t\n", "drop token", 0, 0) == " t\n"
    assert mutate("theory t\n", "repeat token", 0, 1) == "theory t t\n"
    assert mutate("theory t\n", "swap tokens", 0, 0, 1) == "t theory\n"
    assert mutate("lagrangian q_,01*q'\n", "drop token", 0, 2) == "lagrangian q_,01q'\n"
    assert mutate("\n\n", "drop token", 0, 0) is None
