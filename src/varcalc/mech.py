"""Finite-dimensional Hamiltonian mechanics: flows, the SO(3) momentum map,
Noether-Souriau-Smale conservation, and symplectic reduction to the radial
system.  Double precision with explicit tolerances, on plain Python floats:
3-vectors are tuples with unrolled arithmetic, dot products sum left to
right, and trajectories are flat ``array('d')`` buffers
(notes/decisions.md §23)."""

from __future__ import annotations

import functools
import io
import math
from array import array
from dataclasses import dataclass

from .chart import DimensionMismatch, VarcalcError


class OriginSingularity(VarcalcError):
    pass


class NonFiniteState(VarcalcError):
    pass


# tolerances used across the module and the acceptance suite
TOL = {
    "equivariance": 1e-12,
    "J_drift": 1e-6,
    "casimir_drift": 2e-6,
    "reduction_commute": 1e-5,
}


def _finite(v):
    return all(map(math.isfinite, v))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _triples(buf):
    """Consecutive (x0, x1, x2) of a flat buffer."""
    it = iter(buf)
    return zip(it, it, it)


@dataclass
class PhasePoint:
    q: tuple
    p: tuple

    def __post_init__(self):
        self.q = tuple(map(float, self.q))
        self.p = tuple(map(float, self.p))
        if not _finite(self.q + self.p):
            raise NonFiniteState("phase point has non-finite entries")


class MechSystem:
    """H(q, p) = |p|^2 / 2m + V(|q|).  H reads q only through |q| and p
    only through p·p, so it is rotation invariant for every V; the
    factories below are its only constructors (notes/decisions.md §19)."""

    dim = 3

    def __init__(self, V, dV, mass=1.0):
        self.V = V
        self.dV = dV
        self.mass = float(mass)

    def H(self, state: PhasePoint):
        r = math.sqrt(_dot(state.q, state.q))
        return _dot(state.p, state.p) / (2 * self.mass) + self.V(r)

    def grad_q(self, q):
        x, y, z = q
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0:
            raise OriginSingularity("potential gradient at the origin")
        d = self.dV(r)
        return (d * x / r, d * y / r, d * z / r)

    def rhs(self, q, p):
        m = self.mass
        gx, gy, gz = self.grad_q(q)
        return (p[0] / m, p[1] / m, p[2] / m), (-gx, -gy, -gz)


def momentum(state: PhasePoint):
    """Angular momentum J = p x q (the momentum map of the cotangent lift)."""
    if len(state.q) != 3 or len(state.p) != 3:
        raise DimensionMismatch("momentum map needs dimension 3")
    return _cross(state.p, state.q)


def casimir(state: PhasePoint):
    """l^2 = |p x q|^2, the Casimir of the reduced Poisson structure."""
    if len(state.q) != 3 or len(state.p) != 3:
        raise DimensionMismatch("casimir needs dimension 3")
    J = momentum(state)
    return _dot(J, J)


def kks_pairing(mu, xi, eta):
    """<mu, [xi, eta]> under so(3) ~ R^3 (matrix commutator = cross product)."""
    mu, xi, eta = (tuple(map(float, v)) for v in (mu, xi, eta))
    return _dot(mu, _cross(xi, eta))


def flow(system: MechSystem, state: PhasePoint, t_final, dt, integrator="rk4"):
    """Integrate Hamilton's equations; samples at step boundaries."""
    if dt <= 0:
        raise VarcalcError("dt must be positive")
    steps = int(round(t_final / dt))
    q, p = state.q, state.p
    ts = array("d", [0.0])
    qs = array("d", q)
    ps = array("d", p)
    if integrator == "rk4":
        step = functools.partial(_rk4_step, system.rhs)
    elif integrator == "leapfrog":
        step = functools.partial(_leapfrog_step, system)
    else:
        raise VarcalcError(f"unknown integrator {integrator!r}")
    for k in range(steps):
        q, p = step(q, p, dt)
        if not _finite(q + p):
            raise NonFiniteState(f"blow-up at step {k}")
        ts.append((k + 1) * dt)
        qs.extend(q)
        ps.extend(p)
    return Trajectory(ts, qs, ps)


def _rk4_step(f, q, p, dt):
    """One classical Runge-Kutta step of (q, p)' = f(q, p) on 3-vectors,
    q + dt/6 (k1 + 2 k2 + 2 k3 + k4) component by component."""
    h = dt / 2
    q0, q1, q2 = q
    p0, p1, p2 = p
    (a0, a1, a2), (b0, b1, b2) = f(q, p)
    (c0, c1, c2), (d0, d1, d2) = f((q0 + h * a0, q1 + h * a1, q2 + h * a2),
                                   (p0 + h * b0, p1 + h * b1, p2 + h * b2))
    (e0, e1, e2), (g0, g1, g2) = f((q0 + h * c0, q1 + h * c1, q2 + h * c2),
                                   (p0 + h * d0, p1 + h * d1, p2 + h * d2))
    (i0, i1, i2), (j0, j1, j2) = f((q0 + dt * e0, q1 + dt * e1, q2 + dt * e2),
                                   (p0 + dt * g0, p1 + dt * g1, p2 + dt * g2))
    s = dt / 6
    return ((q0 + s * (a0 + 2 * c0 + 2 * e0 + i0),
             q1 + s * (a1 + 2 * c1 + 2 * e1 + i1),
             q2 + s * (a2 + 2 * c2 + 2 * e2 + i2)),
            (p0 + s * (b0 + 2 * d0 + 2 * g0 + j0),
             p1 + s * (b1 + 2 * d1 + 2 * g1 + j1),
             p2 + s * (b2 + 2 * d2 + 2 * g2 + j2)))


def _leapfrog_step(system, q, p, dt):
    h = 0.5 * dt
    m = system.mass
    g0, g1, g2 = system.grad_q(q)
    p0, p1, p2 = p[0] - h * g0, p[1] - h * g1, p[2] - h * g2
    q = (q[0] + dt * p0 / m, q[1] + dt * p1 / m, q[2] + dt * p2 / m)
    g0, g1, g2 = system.grad_q(q)
    return q, (p0 - h * g0, p1 - h * g1, p2 - h * g2)


@dataclass
class Trajectory:
    """Samples at step boundaries in flat buffers: sample k is t[k],
    q[3k:3k + 3] and p[3k:3k + 3]."""
    t: array
    q: array
    p: array

    def states(self):
        for q, p in zip(_triples(self.q), _triples(self.p)):
            yield PhasePoint(q, p)

    def write_csv(self, fh):
        """Write the samples to a text file object as CSV, one row at a
        time, so no copy of the whole table is held."""
        fh.write("t,q0,q1,q2,p0,p1,p2\n")
        for t, (q0, q1, q2), (p0, p1, p2) in zip(self.t, _triples(self.q),
                                                 _triples(self.p)):
            fh.write(f"{t:.12g},{q0:.15g},{q1:.15g},{q2:.15g},"
                     f"{p0:.15g},{p1:.15g},{p2:.15g}\n")

    def to_csv(self):
        """The CSV of write_csv as one string."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def check_conservation(system: MechSystem, traj: Trajectory):
    """Max drifts of the momentum map components, H, and the Casimir."""
    m2 = 2 * system.mass
    V = system.V

    def invariants(q, p):
        J = _cross(p, q)
        return J, _dot(p, p) / m2 + V(math.sqrt(_dot(q, q))), _dot(J, J)
    J0, H0, l0 = invariants(traj.q[:3], traj.p[:3])
    jd = hd = cd = 0.0
    for q, p in zip(_triples(traj.q), _triples(traj.p)):
        (j0, j1, j2), h, l2 = invariants(q, p)
        jd = max(jd, abs(j0 - J0[0]), abs(j1 - J0[1]), abs(j2 - J0[2]))
        hd = max(hd, abs(h - H0))
        cd = max(cd, abs(l2 - l0))
    return {"J_drift": jd, "H_drift": hd, "casimir_drift": cd}


@dataclass
class ReducedState:
    r: float
    p_r: float
    ell: float


def reduce_so3(state: PhasePoint):
    """(r, p_r, l): the invariants labelling the SO(3) orbit of the state.

    l = 0 states sit in the singular stratum T*R/Z_2; they are reported,
    not charted."""
    r = math.sqrt(_dot(state.q, state.q))
    if r == 0:
        raise OriginSingularity("configuration at the origin")
    J = momentum(state)
    return ReducedState(r=r, p_r=_dot(state.p, state.q) / r,
                        ell=math.sqrt(_dot(J, J)))


def reduced_flow(system: MechSystem, red: ReducedState, t_final, dt):
    """Radial dynamics at fixed Casimir:
    r' = p_r / m,  p_r' = -V'(r) + l^2 / (m r^3), by the same RK4 stages
    as ``_rk4_step``."""
    if red.ell <= 0:
        raise OriginSingularity("reduced flow needs l > 0")
    steps = int(round(t_final / dt))
    m = system.mass
    r, pr = red.r, red.p_r
    ts = array("d", [0.0])
    rs = array("d", [r])
    prs = array("d", [pr])

    def f(rr, pp):
        if rr <= 0:
            raise OriginSingularity("radial coordinate reached zero")
        return pp / m, -system.dV(rr) + red.ell ** 2 / (m * rr ** 3)
    h, s = dt / 2, dt / 6
    for k in range(steps):
        k1r, k1p = f(r, pr)
        k2r, k2p = f(r + h * k1r, pr + h * k1p)
        k3r, k3p = f(r + h * k2r, pr + h * k2p)
        k4r, k4p = f(r + dt * k3r, pr + dt * k3p)
        r, pr = (r + s * (k1r + 2 * k2r + 2 * k3r + k4r),
                 pr + s * (k1p + 2 * k2p + 2 * k3p + k4p))
        ts.append((k + 1) * dt)
        rs.append(r)
        prs.append(pr)
    return ts, rs, prs


def kepler_system(mass=1.0):
    return MechSystem(V=lambda r: -1.0 / r, dV=lambda r: 1.0 / r ** 2, mass=mass)


def harmonic_system(mass=1.0):
    return MechSystem(V=lambda r: 0.5 * r ** 2, dV=lambda r: r, mass=mass)


def free_system(mass=1.0):
    return MechSystem(V=lambda r: 0.0, dV=lambda r: 0.0, mass=mass)


def reduction_commutes(system, state, t_final, dt):
    """Max |(r, p_r) via reduce(flow) - via reduced_flow(reduce)|."""
    traj = flow(system, state, t_final, dt)
    _ts, rs, prs = reduced_flow(system, reduce_so3(state), t_final, dt)
    worst = 0.0
    for st, r, pr in zip(traj.states(), rs, prs):
        red = reduce_so3(st)
        worst = max(worst, abs(red.r - r), abs(red.p_r - pr))
    return worst
