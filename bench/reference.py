"""Reference answers computed apart from annealsim, and the output checks.

Nothing here imports annealsim.  The Ising energies, the X-sum, the start
state and the envelopes are rebuilt from the problem definition, and the
state vector is integrated with scipy's DOP853 on

    d psi / ds = -i tau (sign A(s) sum_i X_i + B(s) E_ising) psi

restarting the integrator at every point where an envelope has a kink (the
D-Wave fit at s = 0.69, the nodes of a tabulated schedule), so the
reference never steps across a derivative jump.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

#: trace, purity and probability sums must equal 1 this closely
UNIT_TOL = 1e-9
#: largest trace distance between an adaptive result and the reference; the
#: adaptive tolerances (1e-6 element-wise) leave about 1e-7 in practice
STATE_TOL = 1e-5
#: largest difference between an exported probability and the reference
PROB_TOL = 1e-5
#: round-off floor of the propagator: ladder rungs closer than this to the
#: reference say nothing about the convergence rate
LADDER_FLOOR = 1e-12
#: the quadratic envelope fit caps every order >= 2 at rate 4; measured
#: rates approach 4 from above, and 0.1 absorbs the rounding of the distances
LADDER_RATE = 3.9


# ---------------------------------------------------------------------------
# problems


def bit_table(n: int) -> np.ndarray:
    """Row v holds the bits of basis index v, qubit 1 in column 0."""
    v = np.arange(1 << n)
    return (v[:, None] >> np.arange(n)) & 1


def ising_energies(n: int, terms: dict) -> np.ndarray:
    """Classical energy of every basis state; bit 0 means spin +1."""
    spins = 1 - 2 * bit_table(n)
    energies = np.zeros(1 << n)
    for key, coeff in terms.items():
        energies += coeff * np.prod(spins[:, [i - 1 for i in key]], axis=1)
    return energies


def x_sum(n: int) -> sparse.csr_matrix:
    dim = 1 << n
    v = np.arange(dim)
    rows = np.tile(v, n)
    cols = np.concatenate([v ^ (1 << k) for k in range(n)])
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))


def start_state(n: int, driver_sign: int) -> np.ndarray:
    """Ground state of sign * sum_i X_i: all |-> for sign +1, all |+> for -1."""
    amps = np.ones(1 << n, dtype=complex) / math.sqrt(1 << n)
    if driver_sign == 1:
        amps *= 1 - 2 * (bit_table(n).sum(axis=1) % 2)
    return amps


def evolve(n: int, terms: dict, tau: float, a, b, driver_sign: int,
           breaks=(), rtol: float = 1e-12) -> np.ndarray:
    """Final state vector of the anneal, integrated piecewise between ``breaks``."""
    driver = driver_sign * x_sum(n)
    energies = ising_energies(n, terms)

    def rhs(s, psi):
        return -1j * tau * (a(s) * (driver @ psi) + b(s) * energies * psi)

    psi = start_state(n, driver_sign)
    edges = [0.0, *sorted(q for q in breaks if 0.0 < q < 1.0), 1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (lo, hi), psi, method="DOP853", rtol=rtol, atol=rtol * 1e-2)
        if not sol.success:
            raise RuntimeError(f"reference integration failed on [{lo}, {hi}]: {sol.message}")
        psi = sol.y[:, -1]
    return psi / np.linalg.norm(psi)


def linear_a(s):
    return 1.0 - s


def linear_b(s):
    return s


def circular_a(s):
    return math.cos(0.5 * math.pi * s)


def circular_b(s):
    return math.sin(0.5 * math.pi * s)


DW_KINK = 0.69


def dw_a(s):
    """Piecewise quadratic fit of a D-Wave driver envelope, zero from s = 0.69."""
    if s >= DW_KINK:
        return 0.0
    return (13.371976 * s * s - 18.453338 * s + 6.366401) * math.pi


def dw_b(s):
    return 14.55571 * (0.85 * s * s + 0.15 * s) * math.pi


# ---------------------------------------------------------------------------
# relabelling: the same physics under renamed and flipped qubits


def relabel_terms(terms: dict, perm, flips) -> dict:
    """Rename qubit i to perm[i-1] + 1 and flip its spin when flips[i-1] is set."""
    out = {}
    for key, coeff in terms.items():
        sign = (-1) ** sum(int(flips[i - 1]) for i in key)
        out[tuple(sorted(int(perm[i - 1]) + 1 for i in key))] = sign * coeff
    return out


def relabel_index(n: int, perm, flips) -> np.ndarray:
    """Basis index, in the relabelled problem, of each basis state v.

    Spin flips are conjugations by X_i, which commute with the driver and
    leave the start state unchanged up to sign, so the relabelled anneal
    ends in the same state with its amplitudes moved to these indices.
    """
    bits = bit_table(n) ^ np.asarray(flips, dtype=np.int64)
    return (bits << np.asarray(perm, dtype=np.int64)).sum(axis=1)


def move(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[index] = values
    return out


# ---------------------------------------------------------------------------
# checks


def trace_distance_to(rho: np.ndarray, psi: np.ndarray) -> float:
    diff = rho - np.outer(psi, psi.conj())
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def unit_failures(label: str, probabilities, rho=None) -> list[str]:
    """Trace 1, purity 1 and probabilities that are the diagonal and sum to 1."""
    probabilities = np.asarray(probabilities, dtype=float)
    out = []
    if abs(probabilities.sum() - 1.0) > UNIT_TOL:
        out.append(f"{label}: probabilities sum to {probabilities.sum():.15g}")
    if probabilities.min() < -UNIT_TOL:
        out.append(f"{label}: negative probability {probabilities.min():.3e}")
    if rho is not None:
        trace = np.trace(rho)
        purity = float(np.vdot(rho, rho).real)
        if abs(trace - 1.0) > UNIT_TOL:
            out.append(f"{label}: trace {trace:.15g}")
        if abs(purity - 1.0) > UNIT_TOL:
            out.append(f"{label}: purity {purity:.15g}")
        if np.abs(np.real(np.diag(rho)) - probabilities).max() > UNIT_TOL:
            out.append(f"{label}: probabilities are not the diagonal of rho")
    return out


def state_failures(label: str, rho, probabilities, psi_ref) -> list[str]:
    """A final density matrix against the reference state."""
    out = unit_failures(label, probabilities, rho)
    distance = trace_distance_to(rho, psi_ref)
    if not distance <= STATE_TOL:
        out.append(f"{label}: trace distance {distance:.3e} to the reference exceeds {STATE_TOL:.0e}")
    return out


def sweep_failures(points: list[dict], taus, p_ref: list[np.ndarray]) -> list[str]:
    """A JSON sweep export of a field-free model against reference probabilities.

    Without fields the model keeps the global spin-flip symmetry, so
    p[v] == p[~v]; ``p_ref[i]`` holds the reference probabilities at ``taus[i]``.
    """
    if len(points) != len(taus):
        return [f"sweep: {len(points)} points exported, {len(taus)} expected"]
    out = []
    for point, tau, ref in zip(points, taus, p_ref):
        label = f"sweep tau={tau:.4g}"
        if "states" not in point:
            out.append(f"{label}: {point.get('error', 'no states')}")
            continue
        if abs(point["tau"] - tau) > 1e-12 * tau:
            out.append(f"{label}: exported tau {point['tau']}")
        states = sorted(point["states"], key=lambda rec: rec["index"])
        p = np.array([rec["probability"] for rec in states])
        if p.size != ref.size:
            out.append(f"{label}: {p.size} states exported, {ref.size} expected")
            continue
        out += unit_failures(label, p)
        asym = np.abs(p - p[::-1]).max()
        if asym > UNIT_TOL:
            out.append(f"{label}: spin-flip symmetry broken, |p[v] - p[~v]| = {asym:.3e}")
        err = np.abs(p - ref).max()
        if err > PROB_TOL:
            out.append(f"{label}: probability off the reference by {err:.3e}")
    return out


def spectrum_failures(s_grid, levels, n: int, terms: dict, a, b, driver_sign: int) -> list[str]:
    """Spectrum rows against dense diagonalization, and the two ends in closed form.

    At s = 0 (A = 1, B = 0) the levels are the X-sum ladder -n + 2k with
    multiplicity C(n, k); at s = 1 (A = 0) they are the Ising energies.
    """
    energies = ising_energies(n, terms)
    out = []
    grid = np.asarray(s_grid, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (grid.size, 1 << n):
        return [f"spectrum: levels have shape {levels.shape}"]
    ladder = np.concatenate([np.full(math.comb(n, k), -n + 2.0 * k) for k in range(n + 1)])
    if grid[0] != 0.0 or np.abs(levels[0] - ladder).max() > UNIT_TOL:
        out.append("spectrum: s=0 levels are not the X-sum ladder")
    ground = energies.min()
    degeneracy = int(np.sum(energies <= ground + UNIT_TOL))
    if grid[-1] != 1.0 or np.abs(levels[-1] - np.sort(energies)).max() > UNIT_TOL:
        out.append(f"spectrum: s=1 levels are not the Ising energies "
                   f"(ground {levels[-1][0]:.9g}, expected {ground:.9g} x{degeneracy})")
    driver = driver_sign * x_sum(n).toarray()
    for s, row in zip(grid, levels):
        exact = np.linalg.eigvalsh(a(s) * driver + np.diag(b(s) * energies))
        if np.abs(row - exact).max() > UNIT_TOL:
            out.append(f"spectrum: levels at s={s:.4g} off by {np.abs(row - exact).max():.3e}")
            break
    return out


def ladder_failures(label: str, rungs, rhos, probabilities, psi_ref) -> list[str]:
    """A fixed-step ladder must approach the reference at rate >= LADDER_RATE.

    Only consecutive rungs that both lie above LADDER_FLOOR are compared.
    """
    out = []
    distances = []
    for n_steps, rho, p in zip(rungs, rhos, probabilities):
        out += unit_failures(f"{label} n={n_steps}", p, rho)
        distances.append(trace_distance_to(rho, psi_ref))
    pairs = 0
    for (n0, d0), (n1, d1) in zip(zip(rungs, distances), zip(rungs[1:], distances[1:])):
        if min(d0, d1) <= LADDER_FLOOR:
            continue
        pairs += 1
        rate = math.log(d0 / d1) / math.log(n1 / n0)
        if rate < LADDER_RATE:
            out.append(f"{label}: rate {rate:.2f} from n={n0} to n={n1} "
                       f"(distances {d0:.3e}, {d1:.3e})")
    if pairs < 2:
        out.append(f"{label}: only {pairs} rung pairs above the {LADDER_FLOOR:.0e} floor")
    return out
