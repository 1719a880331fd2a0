"""Charts: the flat-coordinate contexts on which all local forms live.

A chart fixes the base dimension, the jet cutoff, and the flat list of
scalar field components (dynamical fields, symmetry parameters, chart
coordinates, and named constants).  Every LocalForm carries a reference to
its chart; operators read grading and parity data from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod


class VarcalcError(Exception):
    # the position in a theory file of the input at fault, when known
    line = col = None


class JetCutoffExceeded(VarcalcError):
    pass


class GradingError(VarcalcError):
    pass


class GhostDegreeMismatch(VarcalcError):
    pass


class UnassignedSymbol(VarcalcError):
    pass


class NonScalableTerm(VarcalcError):
    pass


class DimensionMismatch(VarcalcError):
    pass


class ChartMismatch(VarcalcError):
    """Two theories compared on charts that differ in what a Lagrangian
    can hold."""


class NotConstant(VarcalcError):
    pass


class NonlinearParameter(VarcalcError):
    pass


class ResidualNonzero(VarcalcError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotASymmetry(VarcalcError):
    pass


class NotLocal(VarcalcError):
    pass


class NoSolvedForm(VarcalcError):
    pass


class NoFixpoint(VarcalcError):
    """Substitution rounds ran out before the form stopped changing; ``form``
    is the last (unconverged) round."""

    def __init__(self, message, form=None):
        super().__init__(message)
        self.form = form


class OnShellResidual(VarcalcError):
    pass


class InvariantViolation(VarcalcError):
    pass


class DegenerateSlice(VarcalcError):
    def __init__(self, message, kernel=()):
        super().__init__(message)
        self.kernel = tuple(kernel)


class DoesNotDescend(VarcalcError):
    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


class SingularMatrix(VarcalcError):
    pass


class NotExact(VarcalcError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NoFlux(VarcalcError):
    pass


class VerdictMismatch(VarcalcError):
    pass


class NotHamiltonian(VarcalcError):
    pass


class NoBracket(VarcalcError):
    pass


class NotStronglyHamiltonian(VarcalcError):
    pass


class CMEFails(VarcalcError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


DEFAULT_JET_CUTOFF = 6

# field kinds
DYNAMIC = "dynamic"
PARAM = "param"          # field-valued symmetry parameter
CPARAM = "cparam"        # constant (global) symmetry parameter
COORD = "coord"
CONST = "const"


@dataclass(frozen=True)
class FieldComponent:
    name: str
    fid: int
    ghost: int = 0
    kind: str = DYNAMIC
    # for COORD components: which chart direction this coordinate names
    coord_dir: int = -1


@dataclass(frozen=True)
class FunctionSymbol:
    """Opaque scalar function with a formal derivative chain.

    ``arity`` argument slots; partial derivatives are tracked by a
    multi-order per slot.  ``model`` optionally maps argument tuples of
    rationals to a rational value (used by randomized evaluation); it must
    be a polynomial callable evaluated through :meth:`eval_model`.
    """

    name: str
    arity: int = 1
    sym_id: int = 0
    # polynomial model: dict[exponent-tuple -> Fraction], optional
    model: tuple = ()

    def monomials(self, dorders, args):
        """(degree, value) of each model monomial prod(a_i^e_i) after the
        partial derivatives ``dorders``, at the rational ``args``."""
        if not self.model:
            raise UnassignedSymbol(f"function symbol {self.name} has no model")
        for expo, c in self.model:
            if any(d > e for d, e in zip(dorders, expo)):
                continue
            coef = Fraction(c)
            val = Fraction(1)
            for e, d, a in zip(expo, dorders, args):
                for k in range(d):
                    coef *= (e - k)
                val *= a ** (e - d)
            yield sum(expo) - sum(dorders), coef * val

    def eval_model(self, dorders, args):
        return sum((v for _deg, v in self.monomials(dorders, args)), Fraction(0))


class Chart:
    """A coordinate chart with a flat list of scalar field components."""

    def __init__(self, dim, jet_cutoff=DEFAULT_JET_CUTOFF, coord_names=None):
        self.dim = dim
        self.jet_cutoff = jet_cutoff
        self.coord_names = tuple(coord_names) if coord_names else tuple(
            f"x{i}" for i in range(dim))
        self.components: list[FieldComponent] = []
        self._by_name: dict[str, FieldComponent] = {}
        self.functions: list[FunctionSymbol] = []
        self._fn_by_name: dict[str, FunctionSymbol] = {}
        # atom -> (sort key, parity, action, atom), filled by algebra.norm_word
        self.atom_data: dict[tuple, tuple] = {}
        # ('d', legs), ('D', mu) or 'dv' -> {atom: _image_data tuple or
        # None}, filled by algebra.apply_derivation (a field keeps its own)
        self.images: dict = {}
        self.strata: dict = {}          # (fids, V) -> homotopy._Stratum
        self.sigma1_images: dict = {}   # leg word -> its sigma1 image
        # frozenset of promoted fids -> chart, filled by promoted()
        self.promotions: dict[frozenset, Chart] = {}

    # -- components ------------------------------------------------------
    def add_component(self, name, ghost=0, kind=DYNAMIC, coord_dir=-1):
        if name in self._by_name:
            raise VarcalcError(f"duplicate component {name!r}")
        comp = FieldComponent(name, len(self.components), ghost, kind, coord_dir)
        self.components.append(comp)
        self._by_name[name] = comp
        return comp

    def add_coordinates(self):
        for i, nm in enumerate(self.coord_names):
            self.add_component(nm, kind=COORD, coord_dir=i)

    def component(self, fid) -> FieldComponent:
        return self.components[fid]

    def by_name(self, name) -> FieldComponent:
        try:
            return self._by_name[name]
        except KeyError:
            raise VarcalcError(f"unknown component {name!r}") from None

    def has_name(self, name):
        return name in self._by_name

    def ghost(self, fid):
        return self.components[fid].ghost

    def kind(self, fid):
        return self.components[fid].kind

    # -- function symbols --------------------------------------------------
    def add_function(self, name, arity=1, model=()):
        if name in self._fn_by_name:
            raise VarcalcError(f"duplicate function symbol {name!r}")
        fn = FunctionSymbol(name, arity, len(self.functions), tuple(model))
        self.functions.append(fn)
        self._fn_by_name[name] = fn
        return fn

    def function(self, sym_id) -> FunctionSymbol:
        return self.functions[sym_id]

    def function_by_name(self, name) -> FunctionSymbol:
        try:
            return self._fn_by_name[name]
        except KeyError:
            raise VarcalcError(f"unknown function symbol {name!r}") from None

    # -- derived charts ----------------------------------------------------
    def derive(self, coord_names, keep=None):
        """A new chart on the named coordinates with copies of this chart's
        non-coordinate components that ``keep`` accepts (all by default), in
        this chart's order after the coordinates, and of its function
        symbols.  Returns the chart and the fid map from this chart to
        it, which covers the copies and the coordinates both charts name."""
        new = Chart(len(coord_names), coord_names=coord_names,
                    jet_cutoff=self.jet_cutoff)
        new.add_coordinates()
        fids = {}
        for c in self.components:
            if c.kind == COORD:
                if new.has_name(c.name):
                    fids[c.fid] = new.by_name(c.name).fid
            elif keep is None or keep(c):
                fids[c.fid] = new.add_component(c.name, c.ghost, c.kind).fid
        for fn in self.functions:
            new.add_function(fn.name, fn.arity, fn.model)
        return new, fids

    def promoted(self, fids):
        """A chart like this one where the given parameter components are
        dynamical (the action Lie algebroid chart), built as derive builds
        its charts.  Component ids are preserved, so forms can be moved
        across verbatim.  Promoting the same fids again returns the same
        chart, so its homotopy strata are built once."""
        fids = frozenset(fids)
        new = self.promotions.get(fids)
        if new is None:
            new = self.promotions[fids] = Chart(self.dim, self.jet_cutoff,
                                                self.coord_names)
            for c in self.components:
                new.add_component(c.name, c.ghost,
                                  DYNAMIC if c.fid in fids else c.kind, c.coord_dir)
            for fn in self.functions:
                new.add_function(fn.name, fn.arity, fn.model)
        return new


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------

def rref(m):
    """Gauss-Jordan elimination of a rational matrix (list of rows).

    Returns (R, pivots, factor): the reduced row echelon form, its pivot
    columns in order, and the product of the pivots divided out, signed by
    the row swaps (the determinant when ``m`` is square of full rank).

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each
    row is scaled to integers, and each pivot step replaces every other
    row i by (p row_i - row_i[c] row_r) / prev, p the pivot and prev the
    one before, a division that is exact because every entry is a minor
    of the scaled matrix.  A row with a zero in the pivot column would
    only be multiplied by p / prev, so it is left as it is and carries
    the level ``lev`` of its last update: it holds its Bareiss row times
    lev / prev.  The pivot rule is the first nonzero at or below row r,
    so the pivots and swaps are those of plain Gauss-Jordan elimination.
    Only R divides, by each pivot row's level.
    """
    R, scale = [], []
    for row in m:
        den = lcm(*(x.denominator for x in row))
        R.append([x.numerator * (den // x.denominator) for x in row])
        scale.append(den)
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    lev = [1] * nrows
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if R[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            R[r], R[piv] = R[piv], R[r]
            lev[r], lev[piv] = lev[piv], lev[r]
            scale[r], scale[piv] = scale[piv], scale[r]
            sign = -sign
        row = R[r]
        if lev[r] != prev:
            row = R[r] = [x * prev // lev[r] for x in row]
        p = row[c]
        for i in range(nrows):
            other = R[i]
            if i != r and other[c]:
                if lev[i] != prev:
                    other = [x * prev // lev[i] for x in other]
                f = other[c]
                R[i] = [(p * x - f * y) // prev for x, y in zip(other, row)]
                lev[i] = p
        lev[r] = prev = p
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    R = [[Fraction(x, lev[i]) if x else zero for x in R[i]] if i < r
         else [zero] * ncols for i in range(nrows)]
    factor = Fraction(sign * prev, prod(scale[:r]))
    return R, pivots, factor


def det(m):
    """Determinant of a square rational matrix (1 for the empty matrix)."""
    _R, pivots, factor = rref(m)
    return factor if len(pivots) == len(m) else Fraction(0)


def inverse(m):
    n = len(m)
    R, pivots, _ = rref([list(row) + [Fraction(int(i == j)) for j in range(n)]
                         for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise SingularMatrix("singular matrix")
    return [row[n:] for row in R]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]) if B else 0, len(B)
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    if Bt[j]:
                        row[j] += a * Bt[j]
    return out


def mat_T(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def pseudo_inverse_psd(D):
    """Moore-Penrose inverse of a symmetric PSD rational matrix.

    The rank factorization D = C F reads off the rref of D: F is its nonzero
    rows and C the pivot columns of D (so C^T is the pivot rows, D being
    symmetric).  Then D^+ = F^T (C^T D F^T)^{-1} C^T, where
    C^T D F^T = (C^T C)(F F^T) is r x r and invertible for r = rank D.
    The engine's sigma1 reads the stratum Laplacian blocks instead
    (notes/decisions.md §14).
    """
    R, pivots, _ = rref(D)
    if not pivots:
        return [[Fraction(0)] * len(D) for _ in D]
    F = R[:len(pivots)]
    Ct = [D[p] for p in pivots]
    Ft = mat_T(F)
    core = inverse(mat_mul(mat_mul(Ct, mat_T(Ct)), mat_mul(F, Ft)))
    return mat_mul(Ft, mat_mul(core, Ct))
