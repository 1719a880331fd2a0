"""Numeric Hamiltonian mechanics and SO(3) reduction."""

from types import SimpleNamespace

import numpy as np
import pytest

from varcalc.mech import (
    DimensionMismatch, MechSystem, NonFiniteState, OriginSingularity,
    PhasePoint, TOL, casimir, check_conservation, flow, free_system,
    harmonic_system, kepler_system, kks_pairing, momentum, reduce_so3,
    reduced_flow, reduction_commutes,
)


def _random_rotation(rng):
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _rows(buf):
    """A flat trajectory buffer as an (n, 3) array, one sample per row."""
    return np.asarray(buf).reshape(-1, 3)


def test_momentum_pins():
    st = PhasePoint([1, 0, 0], [0, 1, 0])
    assert np.allclose(momentum(st), [0, 0, -1])
    st2 = PhasePoint([2, 0, 0], [3, 0, 0])       # p parallel to q
    assert np.allclose(momentum(st2), 0)
    with pytest.raises(DimensionMismatch):
        momentum(PhasePoint([1, 0], [0, 1]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("in_q", [True, False])
def test_phase_point_refuses_non_finite_entries(bad, in_q):
    q, p = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    (q if in_q else p)[1] = bad
    with pytest.raises(NonFiniteState):
        PhasePoint(q, p)


def test_momentum_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = rng.normal(size=3)
        p = rng.normal(size=3)
        O = _random_rotation(rng)
        J1 = momentum(PhasePoint(O @ q, O @ p))
        J2 = O @ momentum(PhasePoint(q, p))
        assert np.max(np.abs(J1 - J2)) <= TOL["equivariance"]


@pytest.mark.parametrize("system", [kepler_system(), harmonic_system(), free_system()],
                         ids=["kepler", "harmonic", "free"])
def test_hamiltonian_is_rotation_invariant(system):
    """H(Oq, Op) = H(q, p) at 50 seeded points and rotations: H reads q
    through |q| and p through p·p (notes/decisions.md §19)."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.normal(size=3)
        p = rng.normal(size=3)
        O = _random_rotation(rng)
        h1 = system.H(PhasePoint(q, p))
        h2 = system.H(PhasePoint(O @ q, O @ p))
        assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1))


def test_free_particle_exact():
    sys_f = free_system()
    st = PhasePoint([0.0, 0.5, -1.0], [0.3, -0.2, 0.1])
    traj = flow(sys_f, st, 1.0, 1e-3)
    assert np.max(np.abs(_rows(traj.q)[-1] - np.add(st.q, st.p))) <= 1e-10


def test_kepler_circular_orbit():
    sys_k = kepler_system()
    traj = flow(sys_k, PhasePoint([1, 0, 0], [0, 1, 0]), 10.0, 1e-3)
    r = np.linalg.norm(_rows(traj.q), axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-6


def test_harmonic_period():
    sys_h = harmonic_system()
    T = 2 * np.pi
    traj = flow(sys_h, PhasePoint([1, 0, 0], [0, 0, 0]), T, 1e-4)
    assert np.max(np.abs(_rows(traj.q)[-1] - [1, 0, 0])) <= 1e-5


def test_kepler_conservation_tolerances():
    sys_k = kepler_system()
    traj = flow(sys_k, PhasePoint([1.0, 0.1, -0.2], [0.1, 1.0, 0.2]), 10.0, 1e-3)
    rep = check_conservation(sys_k, traj)
    assert rep["J_drift"] <= TOL["J_drift"]
    assert rep["casimir_drift"] <= TOL["casimir_drift"]
    assert all(type(v) is float for v in rep.values())


def _per_point_drifts(system, traj):
    """check_conservation as one PhasePoint at a time, through system.H."""
    first = next(traj.states())
    J0 = momentum(first)
    H0 = system.H(first)
    l0 = casimir(first)
    jd = hd = cd = 0.0
    for st in traj.states():
        J = momentum(st)
        jd = max(jd, float(np.max(np.abs(np.subtract(J, J0)))))
        hd = max(hd, abs(system.H(st) - H0))
        cd = max(cd, abs(casimir(st) - l0))
    return {"J_drift": jd, "H_drift": hd, "casimir_drift": cd}


@pytest.mark.parametrize("system, integrator", [
    (kepler_system(), "rk4"), (kepler_system(2.0), "leapfrog"),
    (harmonic_system(), "leapfrog"), (free_system(), "rk4"),
])
def test_conservation_equals_the_per_point_drifts(system, integrator):
    traj = flow(system, PhasePoint([1.0, 0.3, -0.1], [0.1, 0.9, 0.2]), 2.0, 1e-3,
                integrator=integrator)
    assert check_conservation(system, traj) == _per_point_drifts(system, traj)


def test_symmetry_breaking_detected():
    # H + eps*q0 breaks rotation invariance: J drift grows linearly
    class Broken(MechSystem):
        def __init__(self):
            self.V = lambda r: 0.5 * r ** 2
            self.dV = lambda r: r
            self.mass = 1.0
            self.dim = 3
            self.eps = 1e-2

        def grad_q(self, q):
            g = list(super().grad_q(q))
            g[0] += self.eps
            return tuple(g)

        def H(self, state):
            return float(np.dot(state.p, state.p)) / 2 + self.V(np.linalg.norm(state.q)) \
                + self.eps * state.q[0]

    b = Broken()
    traj = flow(b, PhasePoint([1, 0, 0], [0, 1, 0]), 5.0, 1e-3)
    rep = check_conservation(b, traj)
    assert rep["J_drift"] > 100 * TOL["J_drift"]
    early = check_conservation(b, flow(b, PhasePoint([1, 0, 0], [0, 1, 0]), 0.2, 1e-3))
    assert rep["J_drift"] > 3 * early["J_drift"]    # drift accumulates


def test_leapfrog_energy_bounded():
    sys_h = harmonic_system()
    periods = 10_000
    traj = flow(sys_h, PhasePoint([1, 0, 0], [0, 1, 0]),
                periods * 2 * np.pi, 0.2, integrator="leapfrog")
    rep = check_conservation(sys_h, traj)
    assert rep["H_drift"] <= 0.05      # bounded, no secular growth


def test_reduce_so3_pins_and_invariance():
    st = PhasePoint([1, 0, 0], [0, 1, 0])
    red = reduce_so3(st)
    assert (red.r, red.p_r, red.ell) == (1.0, 0.0, 1.0)
    rng = np.random.default_rng(5)
    q = rng.normal(size=3)
    p = rng.normal(size=3)
    base = reduce_so3(PhasePoint(q, p))
    for _ in range(100):
        O = _random_rotation(rng)
        r2 = reduce_so3(PhasePoint(O @ q, O @ p))
        assert abs(r2.r - base.r) <= 1e-12
        assert abs(r2.p_r - base.p_r) <= 1e-12
        assert abs(r2.ell - base.ell) <= 1e-12
    with pytest.raises(OriginSingularity):
        reduce_so3(PhasePoint([0, 0, 0], [1, 0, 0]))


def test_singular_stratum_reported():
    red = reduce_so3(PhasePoint([1, 0, 0], [2, 0, 0]))
    assert red.ell == 0.0    # l = 0 sector: T*R/Z2, reported not charted
    from varcalc.mech import reduced_flow
    sys_k = kepler_system()
    with pytest.raises(OriginSingularity):
        reduced_flow(sys_k, red, 1.0, 1e-2)


def test_reduced_flow_and_commutation():
    sys_k = kepler_system()
    # circular data: r stays put in the reduced system
    red = reduce_so3(PhasePoint([1, 0, 0], [0, 1, 0]))
    ts, rs, prs = reduced_flow(sys_k, red, 10.0, 1e-3)
    assert np.max(np.abs(np.asarray(rs) - 1.0)) <= 1e-6
    # V = 0: radial momentum increases
    sys_f = free_system()
    ts, rs, prs = reduced_flow(sys_f, red, 1.0, 1e-3)
    assert prs[-1] > 0 and rs[-1] > 1
    # the module's central test: reduce(flow) = reduced_flow(reduce)
    worst = reduction_commutes(sys_k, PhasePoint([1.0, 0.2, -0.1], [0.1, 1.0, 0.3]),
                               10.0, 1e-3)
    assert worst <= TOL["reduction_commute"]
    worst_h = reduction_commutes(harmonic_system(),
                                 PhasePoint([1.0, 0.0, 0.3], [0.2, 1.1, 0.0]),
                                 10.0, 1e-3)
    assert worst_h <= TOL["reduction_commute"]


def test_superselection_sector_fixed():
    sys_k = kepler_system()
    for q, p in ([[1, 0, 0], [0, 1, 0]], [[1.5, 0.2, 0], [0, 0.8, 0.1]]):
        states = list(flow(sys_k, PhasePoint(q, p), 10.0, 1e-3).states())
        l0 = casimir(states[0])
        ls = [casimir(st) for st in states[::200]]
        assert max(abs(l - l0) for l in ls) <= TOL["casimir_drift"]


def test_kks_pairing():
    assert kks_pairing([0, 0, 1], [1, 0, 0], [0, 1, 0]) == 1.0
    assert kks_pairing([0, 0, 0], [1, 0, 0], [0, 1, 0]) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu, xi, eta = rng.normal(size=(3, 3))
        assert kks_pairing(mu, xi, eta) == -kks_pairing(mu, eta, xi)
        # vanishes when [xi, eta] is orthogonal to mu
        perp = np.cross(xi, eta)
        if np.linalg.norm(perp) > 1e-9:
            mu2 = np.cross(perp, rng.normal(size=3))
            assert abs(kks_pairing(mu2, xi, eta)) <= 1e-12 * max(1, np.linalg.norm(mu2))


def test_casimir():
    assert casimir(PhasePoint([1, 0, 0], [0, 1, 0])) == 1.0
    rng = np.random.default_rng(11)
    q, p = rng.normal(size=(2, 3))
    c0 = casimir(PhasePoint(q, p))
    O = _random_rotation(rng)
    assert abs(casimir(PhasePoint(O @ q, O @ p)) - c0) <= 1e-12 * max(1, abs(c0))


# The integrators as written before the RK4 step was shared, kept verbatim
# on numpy arrays as the oracle: flow, reduced_flow and reduction_commutes
# must agree bit for bit.  They run on _NumpySystem, the numpy MechSystem
# as it was with |q| summed left to right: for three entries np.sum adds
# in order, as mech's float arithmetic does.


class _NumpySystem:
    def __init__(self, system):
        self.V, self.dV, self.mass = system.V, system.dV, system.mass

    def grad_q(self, q):
        r = np.sqrt(np.sum(q * q))
        if r == 0:
            raise OriginSingularity("potential gradient at the origin")
        return self.dV(r) * q / r

    def rhs(self, q, p):
        return p / self.mass, -self.grad_q(q)


def _numpy_state(st):
    return SimpleNamespace(q=np.array(st.q), p=np.array(st.p))


def _old_flow(system, state, t_final, dt, integrator="rk4"):
    steps = int(round(t_final / dt))
    q = state.q.copy()
    p = state.p.copy()
    ts = [0.0]
    qs = [q.copy()]
    ps = [p.copy()]
    step = _old_rk4_step if integrator == "rk4" else _old_leapfrog_step
    for k in range(steps):
        q, p = step(system, q, p, dt)
        ts.append((k + 1) * dt)
        qs.append(q.copy())
        ps.append(p.copy())
    return np.array(ts), np.array(qs), np.array(ps)


def _old_rk4_step(system, q, p, dt):
    f = system.rhs
    k1q, k1p = f(q, p)
    k2q, k2p = f(q + dt / 2 * k1q, p + dt / 2 * k1p)
    k3q, k3p = f(q + dt / 2 * k2q, p + dt / 2 * k2p)
    k4q, k4p = f(q + dt * k3q, p + dt * k3p)
    return (q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
            p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _old_leapfrog_step(system, q, p, dt):
    p = p - 0.5 * dt * system.grad_q(q)
    q = q + dt * p / system.mass
    return q, p - 0.5 * dt * system.grad_q(q)


def _old_reduced_flow(system, red, t_final, dt):
    if red.ell <= 0:
        raise OriginSingularity("reduced flow needs l > 0")
    steps = int(round(t_final / dt))
    m = system.mass
    r, pr = red.r, red.p_r
    ts = [0.0]
    rs = [r]
    prs = [pr]
    for k in range(steps):
        def f(rr, pp):
            if rr <= 0:
                raise OriginSingularity("radial coordinate reached zero")
            return pp / m, -system.dV(rr) + red.ell ** 2 / (m * rr ** 3)
        k1r, k1p = f(r, pr)
        k2r, k2p = f(r + dt / 2 * k1r, pr + dt / 2 * k1p)
        k3r, k3p = f(r + dt / 2 * k2r, pr + dt / 2 * k2p)
        k4r, k4p = f(r + dt * k3r, pr + dt * k3p)
        r = r + dt / 6 * (k1r + 2 * k2r + 2 * k3r + k4r)
        pr = pr + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        ts.append((k + 1) * dt)
        rs.append(r)
        prs.append(pr)
    return np.array(ts), np.array(rs), np.array(prs)


def _old_reduction_commutes(system, state, t_final, dt):
    _t, qs, ps = _old_flow(system, state, t_final, dt)
    ts, rs, prs = _old_reduced_flow(system, reduce_so3(state), t_final, dt)
    worst = 0.0
    for k in range(len(ts)):
        red = reduce_so3(PhasePoint(qs[k], ps[k]))
        worst = max(worst, abs(red.r - rs[k]), abs(red.p_r - prs[k]))
    return worst


_ORACLE_CASES = [
    (kepler_system, [1.0, 0.2, -0.1], [0.1, 1.0, 0.3], 3.0, 1e-2),
    (harmonic_system, [1.0, 0.0, 0.3], [0.2, 1.1, 0.0], 2.0, 3e-2),
    (free_system, [0.0, 0.5, -1.0], [0.3, -0.2, 0.1], 1.0, 1e-1),
]


@pytest.mark.parametrize("make, q, p, t, dt", _ORACLE_CASES)
@pytest.mark.parametrize("integrator", ["rk4", "leapfrog"])
def test_flow_matches_the_old_loop_bitwise(make, q, p, t, dt, integrator):
    sys_m, st = make(), PhasePoint(q, p)
    traj = flow(sys_m, st, t, dt, integrator=integrator)
    ts, qs, ps = _old_flow(_NumpySystem(sys_m), _numpy_state(st), t, dt,
                           integrator=integrator)
    assert np.array_equal(traj.t, ts)
    assert np.array_equal(_rows(traj.q), qs)
    assert np.array_equal(_rows(traj.p), ps)


@pytest.mark.parametrize("make, q, p, t, dt", _ORACLE_CASES)
def test_reduced_flow_matches_the_old_loop_bitwise(make, q, p, t, dt):
    sys_m, st = make(), PhasePoint(q, p)
    red = reduce_so3(st)
    for got, want in zip(reduced_flow(sys_m, red, t, dt),
                         _old_reduced_flow(sys_m, red, t, dt)):
        assert np.array_equal(got, want)
    assert reduction_commutes(sys_m, st, t, dt) == \
        _old_reduction_commutes(_NumpySystem(sys_m), _numpy_state(st), t, dt)


@pytest.mark.parametrize("q, p", [
    ([1, 0, 0], [2, 0, 0]),          # l = 0: refused before any step
    ([1, 0, 0], [-30, 1e-3, 0]),     # an RK4 stage lands behind the origin
])
def test_reduced_flow_origin_singularity_matches_the_old_loop(q, p):
    sys_f, red = free_system(), reduce_so3(PhasePoint(q, p))
    with pytest.raises(OriginSingularity) as want:
        _old_reduced_flow(sys_f, red, 1.0, 1e-1)
    with pytest.raises(OriginSingularity) as got:
        reduced_flow(sys_f, red, 1.0, 1e-1)
    assert str(got.value) == str(want.value)
