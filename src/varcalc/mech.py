"""Finite-dimensional Hamiltonian mechanics: flows, the SO(3) momentum map,
Noether-Souriau-Smale conservation, and symplectic reduction to the radial
system.  Double precision with explicit tolerances.  Each function that
computes with numpy imports it in its body, so importing varcalc never
loads numpy (notes/decisions.md §21)."""

from __future__ import annotations

import functools
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


@dataclass
class PhasePoint:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        import numpy as np
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
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
        import numpy as np
        r = np.linalg.norm(state.q)
        return float(state.p @ state.p) / (2 * self.mass) + self.V(r)

    def grad_q(self, q):
        import numpy as np
        r = np.linalg.norm(q)
        if r == 0:
            raise OriginSingularity("potential gradient at the origin")
        return self.dV(r) * q / r

    def rhs(self, q, p):
        return p / self.mass, -self.grad_q(q)


def _random_rotation(rng):
    import numpy as np
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def momentum(state: PhasePoint):
    """Angular momentum J = p x q (the momentum map of the cotangent lift)."""
    import numpy as np
    if state.q.shape != (3,):
        raise DimensionMismatch("momentum map needs dimension 3")
    return np.cross(state.p, state.q)


def casimir(state: PhasePoint):
    """l^2 = |p x q|^2, the Casimir of the reduced Poisson structure."""
    if state.q.shape != (3,):
        raise DimensionMismatch("casimir needs dimension 3")
    J = momentum(state)
    return float(J @ J)


def kks_pairing(mu, xi, eta):
    """<mu, [xi, eta]> under so(3) ~ R^3 (matrix commutator = cross product)."""
    import numpy as np
    mu = np.asarray(mu, dtype=float)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return float(mu @ np.cross(xi, eta))


def flow(system: MechSystem, state: PhasePoint, t_final, dt, integrator="rk4"):
    """Integrate Hamilton's equations; samples at step boundaries."""
    import numpy as np
    if dt <= 0:
        raise VarcalcError("dt must be positive")
    steps = int(round(t_final / dt))
    q = state.q.copy()
    p = state.p.copy()
    ts = [0.0]
    qs = [q.copy()]
    ps = [p.copy()]
    if integrator == "rk4":
        step = functools.partial(_rk4_step, system.rhs)
    elif integrator == "leapfrog":
        step = functools.partial(_leapfrog_step, system)
    else:
        raise VarcalcError(f"unknown integrator {integrator!r}")
    for k in range(steps):
        q, p = step(q, p, dt)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise NonFiniteState(f"blow-up at step {k}")
        ts.append((k + 1) * dt)
        qs.append(q.copy())
        ps.append(p.copy())
    return Trajectory(np.array(ts), np.array(qs), np.array(ps))


def _rk4_step(f, q, p, dt):
    """One classical Runge-Kutta step of (q, p)' = f(q, p)."""
    k1q, k1p = f(q, p)
    k2q, k2p = f(q + dt / 2 * k1q, p + dt / 2 * k1p)
    k3q, k3p = f(q + dt / 2 * k2q, p + dt / 2 * k2p)
    k4q, k4p = f(q + dt * k3q, p + dt * k3p)
    return (q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
            p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _leapfrog_step(system, q, p, dt):
    p = p - 0.5 * dt * system.grad_q(q)
    q = q + dt * p / system.mass
    return q, p - 0.5 * dt * system.grad_q(q)


@dataclass
class Trajectory:
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def states(self):
        for k in range(len(self.t)):
            yield PhasePoint(self.q[k], self.p[k])

    def to_csv(self):
        dim = self.q.shape[1]
        header = "t," + ",".join(f"q{i}" for i in range(dim)) \
            + "," + ",".join(f"p{i}" for i in range(dim))
        lines = [header]
        for k in range(len(self.t)):
            row = [f"{self.t[k]:.12g}"]
            row += [f"{x:.15g}" for x in self.q[k]]
            row += [f"{x:.15g}" for x in self.p[k]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def check_conservation(system: MechSystem, traj: Trajectory):
    """Max drifts of the momentum map components, H, and the Casimir."""
    import numpy as np
    q, p = traj.q, traj.p
    J = np.cross(p, q)
    H = _rowdot(p, p) / (2 * system.mass) + system.V(np.sqrt(_rowdot(q, q)))
    l2 = _rowdot(J, J)
    return {"J_drift": float(np.max(np.abs(J - J[0]))),
            "H_drift": float(np.max(np.abs(H - H[0]))),
            "casimir_drift": float(np.max(np.abs(l2 - l2[0])))}


def _rowdot(a, b):
    """Row-wise a_k . b_k through the same dot kernel as a 1-d ``a @ b``,
    so each entry equals the per-point value bit for bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass
class ReducedState:
    r: float
    p_r: float
    ell: float


def reduce_so3(state: PhasePoint):
    """(r, p_r, l): the invariants labelling the SO(3) orbit of the state.

    l = 0 states sit in the singular stratum T*R/Z_2; they are reported,
    not charted."""
    import numpy as np
    r = float(np.linalg.norm(state.q))
    if r == 0:
        raise OriginSingularity("configuration at the origin")
    p_r = float(state.p @ state.q) / r
    ell = float(np.linalg.norm(momentum(state)))
    return ReducedState(r=r, p_r=p_r, ell=ell)


def reduced_flow(system: MechSystem, red: ReducedState, t_final, dt):
    """Radial dynamics at fixed Casimir:
    r' = p_r / m,  p_r' = -V'(r) + l^2 / (m r^3)."""
    import numpy as np
    if red.ell <= 0:
        raise OriginSingularity("reduced flow needs l > 0")
    steps = int(round(t_final / dt))
    m = system.mass
    r, pr = red.r, red.p_r
    ts = [0.0]
    rs = [r]
    prs = [pr]

    def f(rr, pp):
        if rr <= 0:
            raise OriginSingularity("radial coordinate reached zero")
        return pp / m, -system.dV(rr) + red.ell ** 2 / (m * rr ** 3)
    for k in range(steps):
        r, pr = _rk4_step(f, r, pr, dt)
        ts.append((k + 1) * dt)
        rs.append(r)
        prs.append(pr)
    return np.array(ts), np.array(rs), np.array(prs)


def kepler_system(mass=1.0):
    return MechSystem(V=lambda r: -1.0 / r, dV=lambda r: 1.0 / r ** 2, mass=mass)


def harmonic_system(mass=1.0):
    return MechSystem(V=lambda r: 0.5 * r ** 2, dV=lambda r: r, mass=mass)


def free_system(mass=1.0):
    return MechSystem(V=lambda r: 0.0, dV=lambda r: 0.0, mass=mass)


def reduction_commutes(system, state, t_final, dt):
    """Max |(r, p_r) via reduce(flow) - via reduced_flow(reduce)|."""
    traj = flow(system, state, t_final, dt)
    red0 = reduce_so3(state)
    ts, rs, prs = reduced_flow(system, red0, t_final, dt)
    worst = 0.0
    for k in range(len(traj.t)):
        red = reduce_so3(PhasePoint(traj.q[k], traj.p[k]))
        worst = max(worst, abs(red.r - rs[k]), abs(red.p_r - prs[k]))
    return worst
