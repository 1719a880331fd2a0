"""Theory-file and expression front end.

Theory files are line oriented; expressions use a small graded-product
grammar (see docs/thy-format.md for the EBNF).  The elaborator turns parse
trees into normalized LocalForms on the theory's chart; Lie-algebra valued
subexpressions are carried with free basis indices until they are closed
by tr(.), [.,.] or <.,.>.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .chart import (
    Chart, CONST, CPARAM, DEFAULT_JET_CUTOFF, DYNAMIC, PARAM, DimensionMismatch,
    VarcalcError, det, inverse,
)
from .algebra import LocalForm, d_h, d_v, midx_zero, midx_order
from .lie import Structure, _perm_sign, structure_from_spec


class SyntaxError_(VarcalcError):
    def __init__(self, msg, line=1, col=1):
        super().__init__(f"{line}:{col}: {msg}")
        self.line, self.col = line, col


class UndeclaredIdentifier(VarcalcError):
    pass


class GradingMismatch(VarcalcError):
    pass


class MissingStructureConstants(VarcalcError):
    pass


@contextmanager
def located(line, col):
    """Position an error raised inside at (line, col) of the theory file,
    as SyntaxError_ positions its own: the message gets the prefix
    'line:col: ' and the error its line and col.  Its type stays, and an
    error that has a position already keeps it."""
    try:
        yield
    except VarcalcError as e:
        if e.line is None:
            e.line, e.col = line, col
            e.args = (f"{line}:{col}: {e}",)
        raise


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = ("∧", "+", "-", "*", "^", "(", ")", ",", ";", "<", ">", "[", "]", "{", "}", "=")


def tokenize(text, line_no=1, col=1):
    """Tokens of ``text`` as (kind, value, line, column); ``col`` is the
    column of the text's first character on its line."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1; col += 1
            continue
        if ch == "#":
            break
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), line_no, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            # derivative suffix  name_,012
            if name.endswith("_") and j < n and text[j] == ",":
                j += 1
                k = j
                while k < n and text[k].isdigit():
                    k += 1
                if k == j:
                    raise SyntaxError_("expected direction digits after '_,'", line_no, col)
                toks.append(("jet", (name[:-1], text[j:k]), line_no, col))
                col += k - i
                i = k
                continue
            primes = 0
            while j < n and text[j] == "'":
                primes += 1
                j += 1
            toks.append(("ident", (name, primes), line_no, col))
            col += j - i
            i = j
            continue
        if ch == "/":
            toks.append(("/", "/", line_no, col))
            i += 1; col += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, line_no, col))
            i += 1; col += 1
            continue
        raise SyntaxError_(f"unexpected character {ch!r}", line_no, col)
    toks.append(("end", None, line_no, col))
    return toks


# ---------------------------------------------------------------------------
# expression parser -> ExprAst (nested tuples)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise SyntaxError_(f"expected {kind!r}, found {t[1]!r}", t[2], t[3])
        return t

    def parse_expr(self):
        node = self.parse_product()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_product()
            node = ("add", node, rhs) if op == "+" else ("add", node, ("neg", rhs))
        return node

    def parse_product(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "∧", "^"):
            self.next()
            node = ("mul", node, self.parse_unary())
        return node

    def parse_unary(self):
        t = self.peek()
        if t[0] == "-":
            self.next()
            return ("neg", self.parse_unary())
        return self.parse_atom()

    def parse_number(self):
        t = self.expect("num")
        value = Fraction(t[1])
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("num")
            if not den[1]:
                raise SyntaxError_("division by zero", den[2], den[3])
            value /= den[1]
        return value

    def parse_atom(self):
        t = self.peek()
        if t[0] == "num":
            return ("num", self.parse_number())
        if t[0] == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t[0] == "<":
            self.next()
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(">")
            return ("pair", a, b)
        if t[0] == "[":
            self.next()
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect("]")
            return ("bracket", a, b)
        if t[0] == "jet":
            self.next()
            name, digits = t[1]
            return ("jet", name, digits)
        if t[0] == "ident":
            self.next()
            name, primes = t[1]
            if name == "fint" and self.peek()[0] == "(":
                self.next()
                k = self.parse_number()
                self.expect(";")
                apps = [self.parse_atom()]
                while self.peek()[0] == "*":
                    self.next()
                    apps.append(self.parse_atom())
                self.expect(")")
                return ("fint", k, apps)
            if self.peek()[0] == "{":
                self.next()
                dords = [int(self.parse_number())]
                while self.peek()[0] == ",":
                    self.next()
                    dords.append(int(self.parse_number()))
                self.expect("}")
                self.expect("(")
                args = self.parse_args()
                return ("call", name, tuple(dords), args)
            if self.peek()[0] == "(":
                self.next()
                if name in ("d", "delta", "star", "tr", "inv"):
                    node = self.parse_expr()
                    self.expect(")")
                    return (name, node)
                args = self.parse_args()
                return ("call", name, (primes,), args)
            if primes:
                raise SyntaxError_(f"stray prime on {name!r}", t[2], t[3])
            return ("id", name)
        raise SyntaxError_(f"unexpected token {t[1]!r}", t[2], t[3])

    def parse_args(self):
        args = []
        if self.peek()[0] != ")":
            args.append(self.parse_arg())
            while self.peek()[0] == ",":
                self.next()
                args.append(self.parse_arg())
        self.expect(")")
        return tuple(args)

    def parse_arg(self):
        # 'l name' marks a lambda-scaled argument inside fint
        t = self.peek()
        scaled = False
        if t[0] == "ident" and t[1] == ("l", 0):
            nxt = self.toks[self.pos + 1]
            if nxt[0] in ("ident", "jet", "num"):
                self.next()
                scaled = True
        node = self.parse_atom()
        return ("scaled", node) if scaled else node


def parse_expression(text, line_no=1, col=1):
    p = _Parser(tokenize(text, line_no, col))
    node = p.parse_expr()
    tail = p.peek()
    if tail[0] != "end":
        raise SyntaxError_(f"trailing input {tail[1]!r}", tail[2], tail[3])
    return node


# ---------------------------------------------------------------------------
# elaborated values: forms with free Lie indices
# ---------------------------------------------------------------------------

@dataclass
class Val:
    indices: tuple            # tuple of structure names, one per free index
    comps: dict               # index tuple -> LocalForm

    @classmethod
    def scalar(cls, form):
        return cls((), {(): form})

    def map(self, fn):
        return Val(self.indices, {k: fn(v) for k, v in self.comps.items()})

    def __add__(self, other):
        if self.indices != other.indices:
            raise GradingMismatch("cannot add values with different Lie indices")
        comps = dict(self.comps)
        for k, v in other.comps.items():
            comps[k] = comps.get(k, None) + v if k in comps else v
        return Val(self.indices, comps)

    def __neg__(self):
        return self.map(lambda f: -f)

    def wedge(self, other):
        indices = self.indices + other.indices
        comps = {}
        for k1, f1 in self.comps.items():
            for k2, f2 in other.comps.items():
                w = f1.wedge(f2)
                if not w.is_zero():
                    key = k1 + k2
                    comps[key] = comps.get(key, None) + w if key in comps else w
        return Val(indices, comps)

    def require_scalar(self, what="expression"):
        if self.indices:
            raise GradingMismatch(f"{what} has free Lie indices")
        return self.comps.get((), None)


# ---------------------------------------------------------------------------
# field groups and the theory definition
# ---------------------------------------------------------------------------

@dataclass
class FieldGroup:
    name: str
    form_degree: int                # 0 = scalar
    lie: str | None
    ghost: int
    kind: str                       # DYNAMIC or PARAM
    comps: dict                     # (form idx tuple, lie idx tuple) -> fid
    multiplicity: int = 0           # >0: plain multi-component parameter


class FieldDecl(NamedTuple):
    """A declared field, parameter or source (see _parse_field_decl)."""
    name: str
    degree: int
    lie: str | None
    ghost: int
    multiplicity: int
    constant: bool


@dataclass
class SymmetryDecl:
    name: str
    line: int
    params: list                    # FieldDecl
    assignments: dict               # field group name -> (AST, line, col)


@dataclass
class TheoryDef:
    name: str = "theory"
    dim: int = 0
    metric: list | None = None                       # rows; a signature is its diagonal
    coords: list = field(default_factory=list)
    constants: list = field(default_factory=list)    # (name, line)
    functions: list = field(default_factory=list)    # (name, arity, line)
    structures: dict = field(default_factory=dict)   # name -> Structure
    fields: list = field(default_factory=list)       # (FieldDecl, line)
    sources: list = field(default_factory=list)      # (FieldDecl, (AST, line, col))
    lagrangian: tuple | None = None                  # (AST, line, col)
    symmetries: list = field(default_factory=list)   # SymmetryDecl
    solve: list = field(default_factory=list)        # (component name, midx, line)
    orientation: int = 1
    jet_cutoff: int = DEFAULT_JET_CUTOFF


def _jet_midx(name, digits, dim):
    """The multi-index of the jet name_,digits on a dim-dimensional chart."""
    m = [0] * dim
    for dch in digits:
        mu = int(dch)
        if mu >= dim:
            raise DimensionMismatch(f"direction {mu} out of range in {name}_,{digits}")
        m[mu] += 1
    return tuple(m)


# ---------------------------------------------------------------------------
# the elaboration context
# ---------------------------------------------------------------------------

class ElabContext:
    def __init__(self, chart: Chart, metric=None, orientation=1):
        """``metric`` is the constant metric of the Hodge star, as rows;
        None is the Euclidean one.  ``parse_theory`` validates a theory
        file's metric, |det g| = 1."""
        self.chart = chart
        self.groups: dict[str, FieldGroup] = {}
        self.structures: dict[str, Structure] = {}
        self.sources: dict[str, Val] = {}
        if metric is None:
            metric = [[int(i == j) for j in range(chart.dim)] for i in range(chart.dim)]
        self.metric_inv = inverse(metric)
        self.orientation = orientation

    # -- registration ------------------------------------------------------
    def add_field_group(self, name, form_degree=0, lie=None, ghost=0,
                        kind=DYNAMIC, multiplicity=0):
        chart = self.chart
        n = chart.dim
        if lie is not None and lie not in self.structures:
            raise MissingStructureConstants(f"structure {lie!r} not declared")
        lrange = range(self.structures[lie].dim) if lie else [None]
        comps = {}
        if multiplicity:
            fidx_list = [(i,) for i in range(multiplicity)]
        else:
            fidx_list = list(combinations(range(n), form_degree))
        for fidx in fidx_list:
            for a in lrange:
                cname = name
                if multiplicity:
                    cname += str(fidx[0])
                elif form_degree:
                    cname += "".join(str(i) for i in fidx)
                if a is not None:
                    cname += f"_{a}"
                comp = chart.add_component(cname, ghost=ghost, kind=kind)
                key = (fidx, (a,) if a is not None else ())
                comps[key] = comp.fid
        g = FieldGroup(name, form_degree, lie, ghost, kind, comps, multiplicity)
        self.groups[name] = g
        return g

    # -- value construction --------------------------------------------------
    def group_value(self, g: FieldGroup):
        if g.multiplicity:
            raise GradingMismatch(
                f"parameter family {g.name!r} has no collective value; use its "
                f"components {g.name}0..")
        chart = self.chart
        comps = {}
        z = midx_zero(chart.dim)
        for (fidx, lidx), fid in g.comps.items():
            word = [('j', fid, z)] + [('h', mu) for mu in fidx]
            form = LocalForm.from_word(chart, tuple(word))
            comps[lidx] = comps[lidx] + form if lidx in comps else form
        return Val((g.lie,) if g.lie else (), comps)

    def jet_value(self, name, digits):
        chart = self.chart
        if not chart.has_name(name):
            raise UndeclaredIdentifier(f"unknown component {name!r}")
        m = _jet_midx(name, digits, chart.dim)
        return Val.scalar(LocalForm.from_word(chart, (('j', chart.by_name(name).fid, m),)))

    # -- hodge dual ----------------------------------------------------------
    def hodge_legs(self, hset):
        """star(dx^H) as a list of (coeff, ordered complementary tuple).

        The coefficient of dx^K is det(g^{M_i H_j}) * sign(M ++ K) with M
        the ascending complement of K; |det g| = 1 is enforced by
        ``parse_theory``, so no square roots appear.
        """
        n = self.chart.dim
        k = len(hset)
        out = []
        for K in combinations(range(n), n - k):
            M = tuple(i for i in range(n) if i not in K)
            minor = det([[self.metric_inv[m][h] for h in hset] for m in M])
            if not minor:
                continue
            out.append((minor * _perm_sign(M + K) * self.orientation, K))
        return out

    def star(self, form: LocalForm):
        chart = self.chart
        out = LocalForm(chart)
        for key, coeff in form.terms.items():
            body = tuple(a for a in key if a[0] != 'h')
            hset = tuple(a[1] for a in key if a[0] == 'h')
            for c, comp in self.hodge_legs(hset):
                word = body + tuple(('h', mu) for mu in comp)
                out._accum(word, coeff * c)
        return out

    # -- elaboration -----------------------------------------------------------
    def form(self, node) -> LocalForm:
        """The scalar form an expression AST denotes."""
        form = self.elaborate(node).require_scalar("expression")
        return form if form is not None else LocalForm.zero(self.chart)

    def elaborate(self, node):
        kind = node[0]
        if kind == "num":
            return Val.scalar(LocalForm.scalar(self.chart, node[1]))
        if kind == "add":
            return self.elaborate(node[1]) + self.elaborate(node[2])
        if kind == "neg":
            return -self.elaborate(node[1])
        if kind == "mul":
            return self.elaborate(node[1]).wedge(self.elaborate(node[2]))
        if kind == "id":
            name = node[1]
            if name == "vol":
                word = tuple(('h', mu) for mu in range(self.chart.dim))
                return Val.scalar(LocalForm.from_word(self.chart, word,
                                                      self.orientation))
            if name.startswith("dx") and name[2:].isdigit():
                mu = int(name[2:])
                if mu >= self.chart.dim:
                    raise DimensionMismatch(f"{name} out of range")
                return Val.scalar(LocalForm.from_word(self.chart, (('h', mu),)))
            if name in self.sources:
                return self.sources[name]
            if name in self.groups:
                return self.group_value(self.groups[name])
            if self.chart.has_name(name):
                return self.jet_value(name, "")
            raise UndeclaredIdentifier(f"unknown identifier {name!r}")
        if kind == "jet":
            return self.jet_value(node[1], node[2])
        if kind == "d":
            return self.elaborate(node[1]).map(d_h)
        if kind == "delta":
            return self.elaborate(node[1]).map(d_v)
        if kind == "star":
            return self.elaborate(node[1]).map(self.star)
        if kind == "inv":
            v = self.elaborate(node[1]).require_scalar("inv argument")
            if v is None or len(v.terms) != 1:
                raise GradingMismatch("inv expects a single named constant")
            (w, c), = v.terms.items()
            if c != 1 or len(w) != 1 or w[0][0] != 'j' or \
                    self.chart.kind(w[0][1]) != CONST or midx_order(w[0][2]):
                raise GradingMismatch("inv expects a single named constant")
            return Val.scalar(LocalForm.from_word(self.chart, (('ji', w[0][1]),)))
        if kind == "tr":
            # tr distributes over sums (summands may carry different index
            # multiplicities, e.g. tr(A ^ dA + 2/3 A ^ A ^ A))
            total = None
            for sign, sub in _additive_terms(node[1]):
                piece = self._trace(self.elaborate(sub))
                if sign < 0:
                    piece = -piece
                total = piece if total is None else total + piece
            return total
        if kind == "bracket":
            return self._bracket(self.elaborate(node[1]), self.elaborate(node[2]))
        if kind == "pair":
            return self._pair(self.elaborate(node[1]), self.elaborate(node[2]))
        if kind == "call":
            return self._call(node)
        if kind == "fint":
            return self._fint(node)
        raise VarcalcError(f"unhandled node {kind!r}")

    def _structure_of(self, names, what):
        sts = set(names)
        if len(sts) != 1:
            raise GradingMismatch(f"{what} requires matching Lie indices, got {names}")
        return self.structures[sts.pop()]

    def _trace(self, v: Val):
        if len(v.indices) == 0:
            raise GradingMismatch("tr of a scalar")
        if len(v.indices) == 1:
            return Val.scalar(LocalForm.zero(self.chart))
        st = self._structure_of(v.indices, "tr")
        if len(v.indices) > 3:
            raise GradingMismatch("tr supports at most triple products")
        out = LocalForm.zero(self.chart)
        for idx, f in v.comps.items():
            k = st.invariant(idx)
            if k:
                out = out + f * k
        return Val.scalar(out)

    def _bracket(self, x: Val, y: Val):
        if len(x.indices) != 1 or len(y.indices) != 1:
            raise GradingMismatch("[.,.] needs two Lie-valued factors")
        st = self._structure_of(x.indices + y.indices, "[.,.]")
        comps = {}
        for (a,), fa in x.comps.items():
            for (b,), fb in y.comps.items():
                w = fa.wedge(fb)
                if w.is_zero():
                    continue
                for c, coeff in st.bracket_coeffs(a, b):
                    key = (c,)
                    add = w * coeff
                    comps[key] = comps.get(key, None) + add if key in comps else add
        return Val((st.name,), comps)

    def _pair(self, x: Val, y: Val):
        if len(x.indices) != 1 or len(y.indices) != 1:
            raise GradingMismatch("<.,.> needs two Lie-valued factors")
        st = self._structure_of(x.indices + y.indices, "<.,.>")
        out = LocalForm.zero(self.chart)
        for (a,), fa in x.comps.items():
            for (b,), fb in y.comps.items():
                k = st.pair(a, b)
                if k:
                    out = out + fa.wedge(fb) * k
        return Val.scalar(out)

    def _arg_atom(self, node):
        if node[0] == "num" and node[1] == 0:
            return ('0',)
        v = self.elaborate(node).require_scalar("function argument")
        if v is None or v.is_zero():
            return ('0',)
        if len(v.terms) == 1:
            (w, c), = v.terms.items()
            if c == 1 and len(w) == 1 and w[0][0] == 'j':
                if self.chart.ghost(w[0][1]) & 1:
                    raise GradingMismatch("function arguments must be even, "
                                          "not odd ghosts")
                return w[0]
        raise GradingMismatch("function arguments must be plain jets or 0")

    def _call(self, node):
        _, name, dspec, args = node
        fn = self.chart.function_by_name(name)
        atoms = tuple(self._arg_atom(a[1] if a[0] == "scaled" else a) for a in args)
        if len(atoms) != fn.arity:
            raise GradingMismatch(f"{name} expects {fn.arity} arguments")
        if len(dspec) == fn.arity:
            dords = tuple(dspec)
        elif len(dspec) == 1:
            dords = (dspec[0],) + (0,) * (fn.arity - 1)
        else:
            raise GradingMismatch(f"bad derivative orders for {name}")
        return Val.scalar(LocalForm.from_word(
            self.chart, (('f', fn.sym_id, dords, atoms),)))

    def _fint(self, node):
        _, k, apps = node
        inner = []
        for app in apps:
            if app[0] != "call":
                raise GradingMismatch("fint expects function applications")
            v = self._call(app)
            (w, c), = v.comps[()].terms.items()
            inner.append(w[0])
        return Val.scalar(LocalForm.from_word(
            self.chart, (('F', int(k), tuple(sorted(inner))),)))


def elaborate_form(ctx: ElabContext, text, line_no=1) -> LocalForm:
    return ctx.form(parse_expression(text, line_no))


# ---------------------------------------------------------------------------
# theory-file parser
# ---------------------------------------------------------------------------

def parse_theory(text) -> TheoryDef:
    td = TheoryDef()
    lines = text.splitlines()
    if not any(ln.strip() and not ln.strip().startswith("#") for ln in lines):
        raise SyntaxError_("empty theory file", 1, 1)
    at = {}                 # section head -> line of its last occurrence
    metric_head = None      # 'signature' or 'metric', whichever came last
    slashed = None          # a metric token with '/' inside it, such as 1/2
    jets = []               # solve jets (name, digits, line, col)
    current_sym = None
    for no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split()
        head = parts[0]
        if line[0] in " \t" and current_sym is not None:
            if "=" not in line:
                raise SyntaxError_("expected 'field = expression'", no, 1)
            lhs, rhs = line.split("=", 1)
            current_sym.assignments[lhs.strip()] = _parse_tail(rhs.strip(), line, no)
            continue
        current_sym = None
        at[head] = no
        if head == "theory":
            td.name = _operand(parts, 1, no, last=True)
        elif head == "dimension":
            td.dim = _operand(parts, 1, no, int, last=True)
            if td.dim < 1:
                raise SyntaxError_("dimension must be >= 1", no, 1)
        elif head == "coordinates":
            td.coords = parts[1:]
        elif head == "signature":
            bad = [p for p in parts[1:] if p not in ("+", "-")]
            if bad:
                raise SyntaxError_(f"signature expects '+' or '-', found {bad[0]!r}", no, 1)
            signs = [1 if p == "+" else -1 for p in parts[1:]]
            td.metric = [[s if i == j else 0 for j in range(len(signs))]
                         for i, s in enumerate(signs)]
            metric_head = head
        elif head == "metric":
            rows = " ".join(parts[1:]).split("/")
            slashed = next((p for p in parts[1:] if "/" in p.strip("/")), None)
            try:
                td.metric = [[Fraction(x) for x in row.split()] for row in rows]
            except ValueError:
                raise SyntaxError_("metric expects rational entries", no, 1) from None
            metric_head = head
        elif head == "orientation":
            td.orientation = _operand(parts, 1, no, int, last=True)
            if td.orientation not in (1, -1):
                raise SyntaxError_("orientation must be 1 or -1", no, 1)
        elif head == "jet_cutoff":
            td.jet_cutoff = _operand(parts, 1, no, int, last=True)
            if td.jet_cutoff < 0:
                raise SyntaxError_("jet_cutoff must be >= 0", no, 1)
        elif head == "constant":
            td.constants.extend((nm, no) for nm in parts[1:])
        elif head == "function":
            declared = parts[2:3] == ["arity"]
            arity = _operand(parts, 3, no, int, last=True) if declared else 1
            td.functions.append((_operand(parts, 1, no, last=not declared), arity, no))
        elif head == "structure":
            name = _operand(parts, 1, no)
            spec = _operand(parts, 2, no, last=True) if len(parts) > 2 else "abelian"
            td.structures[name] = _structure(name, spec, no)
        elif head == "field":
            td.fields.append((_parse_field_decl(parts[1:], no), no))
        elif head == "source":
            if "=" not in line:
                raise SyntaxError_("source needs '= expression'", no, 1)
            decl, value = line.split("=", 1)
            td.sources.append((_parse_field_decl(decl.split()[1:], no),
                               _parse_tail(value.strip(), line, no)))
        elif head == "lagrangian":
            td.lagrangian = _parse_tail(_operand(line.split(None, 1), 1, no), line, no)
        elif head == "symmetry":
            name = _operand(parts, 1, no)
            if any(s.name == name for s in td.symmetries):
                raise SyntaxError_(f"duplicate symmetry {name!r}", no, 1)
            current_sym = SymmetryDecl(name, no, [], {})
            td.symmetries.append(current_sym)
            rest = parts[2:]
            while rest:
                if rest[0] != "param":
                    raise SyntaxError_(f"unexpected token {rest[0]!r} in symmetry", no, 1)
                decl = [_operand(rest, 1, no)]
                rest = rest[2:]
                while rest and rest[0] != "param":
                    decl.append(rest.pop(0))
                current_sym.params.append(_parse_field_decl(decl, no))
        elif head == "solve":
            for kind, jet, _no, col in tokenize(line, no)[1:-1]:
                # one jet per whitespace-separated word
                if kind != "jet" or not line[col - 2].isspace():
                    raise SyntaxError_("solve expects jets like q_,00", no, col)
                jets.append((*jet, no, col))
        else:
            raise SyntaxError_(f"unknown section {head!r}", no, 1)
    n = td.dim
    if n < 1:
        raise SyntaxError_("missing dimension", 1, 1)
    if td.metric is None:
        raise SyntaxError_("missing signature or metric", 1, 1)
    if len(td.metric) != n or any(len(row) != n for row in td.metric):
        message = "signature length must equal dimension"
        if metric_head == "metric":
            message = f"metric must be {n} x {n}"
            if slashed:
                message += (f" ('/' separates rows, so an entry such as {slashed} "
                            "must be written as a decimal)")
        raise SyntaxError_(message, at[metric_head], 1)
    if metric_head == "metric":
        mdet = det(td.metric)
        if abs(mdet) != 1:
            raise SyntaxError_("metric determinant must be +-1 for exact Hodge duals"
                               if mdet else "degenerate metric", at["metric"], 1)
    if "coordinates" in at and len(td.coords) != n:
        raise SyntaxError_(f"coordinates must name {n} coordinates", at["coordinates"], 1)
    for name, digits, no, col in jets:
        try:
            td.solve.append((name, _jet_midx(name, digits, n), no))
        except DimensionMismatch as e:
            raise SyntaxError_(str(e), no, col) from None
    return td


def _parse_tail(expr, line, no):
    """(AST, line, col) of ``expr``, a suffix of line ``no``, with col and
    the columns of its tokens counted from the start of the line."""
    col = len(line) - len(expr) + 1
    return parse_expression(expr, no, col), no, col


def _operand(parts, k, no, conv=str, last=False):
    """parts[k] through conv; a SyntaxError_ at line ``no`` when it is
    missing or malformed, or when ``last`` is true and a token follows it."""
    try:
        value = conv(parts[k])
    except (IndexError, ValueError):
        what = "an integer" if conv is int else "an argument"
        raise SyntaxError_(f"{parts[k - 1]!r} expects {what}" if k
                           else f"expected {what}", no, 1) from None
    if last and len(parts) > k + 1:
        raise SyntaxError_(f"unexpected token {parts[k + 1]!r} in {parts[0]}", no, 1)
    return value


def _parse_field_decl(parts, no):
    # NAME ('scalar' | 'form' K) [lie G] [ghost N] [components N] [constant]
    name = _operand(parts, 0, no)
    deg = 0
    lie = None
    ghost = 0
    mult = 0
    constant = False
    rest = parts[1:]
    j = 0
    while j < len(rest):
        tok = rest[j]
        if tok == "scalar":
            deg = 0
        elif tok == "form":
            j += 1
            deg = _operand(rest, j, no, int)
            if deg < 0:
                raise SyntaxError_("form degree must be >= 0", no, 1)
        elif tok == "lie":
            j += 1
            lie = _operand(rest, j, no)
        elif tok == "ghost":
            j += 1
            ghost = _operand(rest, j, no, int)
        elif tok == "components":
            j += 1
            mult = _operand(rest, j, no, int)
            if mult < 1:
                raise SyntaxError_("components must be >= 1", no, 1)
        elif tok == "constant":
            constant = True
        else:
            raise SyntaxError_(f"unknown field attribute {tok!r}", no, 1)
        j += 1
    return FieldDecl(name, deg, lie, ghost, mult, constant)


def _structure(name, spec, no):
    """The structure constants a 'structure' section names."""
    st = structure_from_spec(name, spec)
    if st is None:
        raise SyntaxError_(f"unknown structure spec {spec!r}", no, 1)
    if not st.check_jacobi():
        raise VarcalcError(f"structure {name!r} violates the Jacobi identity")
    return st


def build_context(td: TheoryDef):
    """Build (chart, context) from a theory definition."""
    chart = Chart(td.dim, coord_names=td.coords, jet_cutoff=td.jet_cutoff)
    chart.add_coordinates()
    ctx = ElabContext(chart, td.metric, td.orientation)
    ctx.structures.update(td.structures)
    for nm, no in td.constants:
        with located(no, 1):
            chart.add_component(nm, kind=CONST)
    for nm, arity, no in td.functions:
        with located(no, 1):
            chart.add_function(nm, arity=arity)
    for (name, deg, lie, ghost, mult, _c), no in td.fields:
        with located(no, 1):
            ctx.add_field_group(name, deg, lie, ghost, DYNAMIC, mult)
    for sym in td.symmetries:
        for name, deg, lie, ghost, mult, constant in sym.params:
            if name not in ctx.groups:
                kind = CPARAM if constant else PARAM
                with located(sym.line, 1):
                    ctx.add_field_group(name, deg, lie, ghost, kind, mult)
                # auxiliary twin copy used by the pairwise identity checks
                ctx.add_field_group(name + "__b", deg, lie, ghost, kind, mult)
    for decl, (ast, no, col) in td.sources:
        with located(no, col):
            form = ctx.form(ast)
            if not d_h(form).is_zero():
                raise VarcalcError(
                    f"external source {decl.name!r} is not closed (d j != 0)")
        ctx.sources[decl.name] = Val.scalar(form)
    return chart, ctx


def _additive_terms(node, sign=1):
    """Flatten top-level sums of an expression AST into (sign, node) pairs."""
    if node[0] == "add":
        yield from _additive_terms(node[1], sign)
        yield from _additive_terms(node[2], sign)
    elif node[0] == "neg":
        yield from _additive_terms(node[1], -sign)
    elif node[0] == "mul" and node[1][0] == "num":
        # pull scalar prefactors out so tr sees the bare product
        for sg, sub in _additive_terms(node[2], sign):
            yield sg, ("mul", node[1], sub)
    else:
        yield sign, node
