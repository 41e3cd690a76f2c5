"""Acceptance suite: one test per numbered criterion, at pinned tolerances.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s``) before asserting.  Shared heavy baselines are session-scoped
fixtures.  Criterion 3 is parametrized per truncation order: each arm
checks the stated nominal order as a one-sided bound and the rate that
Magnus theory promises for the quadrature used (2 for one term, 4 for two or
more) as a two-sided band, fitted on ladder points above the 1e-12
round-off floor that criteria 1-2 pin.
"""

import itertools

import numpy as np
import pytest

import annealsim as qa
from conftest import (
    FIVE_SPIN_GROUND_ENERGY,
    FIVE_SPIN_GROUND_INDICES,
    random_model,
    series_tables,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def ladder_distances(model, tau, schedule, order, target, exponents):
    out = []
    for k in exponents:
        n = 2**k
        result = qa.simulate_fixed(model, tau, schedule, order=order, n_steps=n)
        out.append((n, qa.trace_distance(result.rho, target)))
    return out


def test_criterion_01_single_qubit_analytic_convergence(circular):
    target = qa.rho_h1(1.0, 100.0)
    ladder = ladder_distances(qa.single_field_model(), 100.0, circular, 4, target,
                              range(9, 18))
    reached_1e10 = [n for n, d in ladder if n <= 100_000 and d <= 1e-10]
    floor_value = min(d for _, d in ladder)
    ok = bool(reached_1e10) and floor_value <= 1e-12
    report(
        1,
        ok,
        f"first n with distance<=1e-10: {reached_1e10[:1]}, floor {floor_value:.3e} "
        f"(<=1e-12 required)",
    )


def test_criterion_02_coupled_pair_analytic_convergence(circular):
    target = qa.rho_h2(1.0, 100.0)
    ladder = ladder_distances(qa.coupled_pair_model(), 100.0, circular, 4, target,
                              range(9, 17))
    reached_1e10 = [n for n, d in ladder if n <= 100_000 and d <= 1e-10]
    floor_value = min(d for _, d in ladder)
    ok = bool(reached_1e10) and floor_value <= 1e-12
    report(
        2,
        ok,
        f"first n with distance<=1e-10: {reached_1e10[:1]}, floor {floor_value:.3e}",
    )


@pytest.mark.parametrize(
    "order,expected,band",
    [(1, -1.0, 0.3), (2, -2.0, 0.3), (4, -4.0, 0.4)],
)
def test_criterion_03_convergence_slopes(order, expected, band, circular):
    """Each truncation converges at least at its nominal order, at its promised rate.

    ``expected`` is the stated nominal order: "order p" means error O(h^p),
    so the fitted log-log slope must satisfy ``slope <= expected + band``.
    The slope must also lie within ``band`` of minus the promised rate (2, 4
    and 4 for orders 1, 2 and 4; derived below), which catches a run that
    silently used a different number of series terms.  The fit uses only
    ladder points above the 1e-12 round-off floor of criteria 1-2.
    """
    model = qa.single_field_model()
    target = qa.rho_h1(1.0, 1.0)
    ladder = ladder_distances(model, 1.0, circular, order, target, range(4, 13))
    # points above the 1e-12 floor, truncated at the onset of the plateau
    points = []
    for n, d in ladder:
        if d <= 1e-12 or (points and d >= points[-1][1]):
            break
        points.append((n, d))
    ladder_text = ", ".join(f"{n}:{d:.2e}" for n, d in ladder)
    assert len(points) >= 3, (
        f"criterion 3: order {order} has {len(points)} ladder points above the "
        f"1e-12 floor, need 3; ladder {ladder_text}"
    )
    slope = float(
        np.polyfit([np.log2(n) for n, _ in points], [np.log2(d) for _, d in points], 1)[0]
    )
    # A truncated Magnus series with exact integrals of the generator has
    # global order 2 for one term and 2*floor(p/2) + 2 for p >= 2 terms
    # (Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983; Blanes,
    # Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151).  The integrals here are
    # exact for the three-point quadratic envelope fit, which integrates
    # cubics exactly like Simpson's rule and so caps every order at 4.
    rate = min(2 * (order // 2) + 2, 4)
    ok = slope <= expected + band and abs(slope + rate) <= band
    report(
        3,
        ok,
        f"order {order}: fitted slope {slope:+.2f} from {len(points)} points, "
        f"required <= {expected + band:+.1f} (nominal {expected}) and "
        f"{-rate}+-{band} (promised rate)",
    )


@pytest.fixture(scope="module")
def threshold_counter(five_spin, circular, five_spin_baseline_tau100):
    """Steps to reach trace distance 1e-6 on the solver's doubling ladder."""
    cache = {}

    def count(order: int) -> int:
        if order not in cache:
            n = 2
            while True:
                result = qa.simulate_fixed(five_spin, 100.0, circular, order=order,
                                           n_steps=n)
                if qa.trace_distance(result.rho, five_spin_baseline_tau100.rho) <= 1e-6:
                    break
                n *= 2
                if n > 1 << 22:
                    raise AssertionError(f"order {order} did not reach 1e-6 by n={n}")
            cache[order] = n
        return cache[order]

    return count


def test_criterion_04_odd_order_parity(threshold_counter):
    s1 = threshold_counter(1)
    s2 = threshold_counter(2)
    s3 = threshold_counter(3)
    s4 = threshold_counter(4)
    parity = s3 <= 1.5 * s2 and s2 <= 1.5 * s3
    halving_12 = s2 <= s1 / 2
    halving_24 = s4 <= s2 / 2
    ok = parity and halving_12 and halving_24
    report(
        4,
        ok,
        f"steps to 1e-6: order1={s1} order2={s2} order3={s3} order4={s4}",
    )


def _table_terms(coeffs, tables):
    """Series terms from the engine's word-weight tables: each table weighs
    the ordered products of the coefficient matrices, first letter leading."""
    dim = coeffs[0].shape[0]
    letters = np.stack(coeffs)
    products = letters
    terms = []
    for k, table in enumerate(tables, 1):
        if k > 1:
            products = np.matmul(products[:, None], letters[None]).reshape(-1, dim, dim)
        terms.append(np.tensordot(table.reshape(-1), products, axes=1))
    return terms


def test_criterion_05_cross_path_equivalence():
    tables = series_tables(qa.magnus.MAX_ORDER)
    rng = np.random.default_rng(2024)
    worst = worst_tables = 0.0
    for _ in range(500):
        for dim in (2, 4):
            coeffs = [
                0.5 * (m - m.conj().T)
                for m in (
                    rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    for _ in range(3)
                )
            ]
            poly = qa.MatrixPolynomial(coeffs)
            explicit = qa.omega_explicit4(poly, upto=4)
            recursive = qa.omega_recursive(poly, qa.magnus.MAX_ORDER)
            for a, b in zip(explicit, recursive):
                worst = max(worst, float(np.abs(a.matrix - b.matrix).max()))
            # third arm: the weight tables that both propagators run on
            for a, b in zip(_table_terms(coeffs, tables), recursive):
                worst_tables = max(worst_tables, float(np.abs(a - b.matrix).max()))
    ok = worst <= 1e-11 and worst_tables <= 1e-11
    report(5, ok, f"1000 random quadratic generators, worst deviation {worst:.3e} "
                  f"(explicit, orders 1-4), {worst_tables:.3e} (weight tables, orders 1-8)")


def test_criterion_06_unconditional_unitarity(five_spin, circular):
    worst_trace = worst_purity = 0.0
    worst_eig = 0.0
    for n_steps in (1, 10, 100):
        result = qa.simulate_fixed(five_spin, 100.0, circular, order=4, n_steps=n_steps)
        worst_trace = max(worst_trace, abs(np.trace(result.rho).real - 1.0))
        worst_purity = max(worst_purity, abs(np.trace(result.rho @ result.rho).real - 1.0))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(result.rho).min()))
    ok = worst_trace <= 1e-12 and worst_purity <= 1e-10 and worst_eig >= -1e-10
    report(
        6,
        ok,
        f"|tr-1|<={worst_trace:.2e}, |purity-1|<={worst_purity:.2e}, "
        f"min eig {worst_eig:.2e}",
    )


def test_criterion_07_time_sweep_signatures(five_spin, circular):
    taus = np.logspace(-1, 2, 20)
    points = qa.simulate_sweep(five_spin, taus, circular, qa.SolverConfig())
    assert all(p.result is not None for p in points)

    fast = points[0].result.probabilities
    uniform_dev = float(np.abs(fast - 1 / 32).max())

    all_up, all_down = 0, 31
    symmetry_dev = max(
        abs(p.result.probabilities[all_up] - p.result.probabilities[all_down])
        for p in points
    )

    others = [v for v in FIVE_SPIN_GROUND_INDICES if v not in (all_up, all_down)]
    best_margin = max(
        p.result.probabilities[all_up] - max(p.result.probabilities[v] for v in others)
        for p in points
    )
    ok = uniform_dev <= 2e-3 and symmetry_dev <= 1e-8 and best_margin >= 0.01
    report(
        7,
        ok,
        f"tau=0.1 uniformity {uniform_dev:.2e}, up/down symmetry {symmetry_dev:.2e}, "
        f"aligned-state margin {best_margin:.3f}",
    )


def test_criterion_08_ground_state_oracle(five_spin):
    energy, states = qa.brute_force_ground_states(five_spin)
    indices = sorted(qa.spin_to_int(list(s)) for s in states)
    ok = (
        energy == pytest.approx(FIVE_SPIN_GROUND_ENERGY, abs=1e-12)
        and indices == list(FIVE_SPIN_GROUND_INDICES)
        and tuple([1] * 5) in states
        and tuple([-1] * 5) in states
    )
    report(8, ok, f"energy {energy}, degenerate set indices {indices}")


def test_criterion_09_cross_integrator_agreement(five_spin, circular):
    magnus = qa.simulate(five_spin, 10.0, circular)
    rk = qa.simulate_reference_rk(five_spin, 10.0, circular, n_steps=100_000)
    distance = qa.trace_distance(magnus.rho, rk.rho)
    ok = distance <= 1e-8
    report(9, ok, f"adaptive (n={magnus.steps_used}) vs RK4 distance {distance:.3e}")


def test_criterion_10_schedule_contracts(tmp_path, circular):
    dw = qa.builtin_schedule("dw_quadratic")
    left_limit = abs(float(dw.A(np.nextafter(0.69, 0.0))))
    clamped = all(float(dw.A(s)) == 0.0 for s in (0.69, 0.75, 0.9, 1.0))

    grid = np.linspace(0.0, 1.0, 1001)
    circular_identity = float(
        np.abs(np.asarray(circular.A(grid)) ** 2 + np.asarray(circular.B(grid)) ** 2 - 1.0).max()
    )

    path = tmp_path / "tab.csv"
    qa.save_schedule_csv(circular, path, s_grid=grid)
    loaded = qa.load_schedule_csv(path)
    node_exact = all(
        float(loaded.A(s)) == a and float(loaded.B(s)) == b
        for s, a, b in zip(*loaded.table)
    )
    ok = left_limit <= 1e-3 and clamped and circular_identity <= 1e-14 and node_exact
    report(
        10,
        ok,
        f"|A(0.69-)|={left_limit:.2e}, clamp exact: {clamped}, "
        f"A^2+B^2 residual {circular_identity:.1e}, CSV nodes exact: {node_exact}",
    )


def test_criterion_11_encoding_round_trips():
    exhaustive = True
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            bits = list(bits)
            value = qa.binary_to_int(bits)
            exhaustive &= qa.int_to_binary(value, n) == bits
            exhaustive &= qa.spin_to_binary(qa.binary_to_spin(bits)) == bits
    references = (
        qa.binary_to_spin([0, 0, 1]) == [1, 1, -1]
        and qa.binary_to_int([0, 0, 1]) == 4
        and qa.spin_to_braket([1, 1, -1]) == "|↓↑↑⟩"
        and qa.binary_to_braket([0, 0, 1]) == "|100⟩"
    )
    ok = exhaustive and references
    report(11, ok, f"exhaustive n<=8 round trips: {exhaustive}, reference labels: {references}")


def test_criterion_12_problem_file_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    failures = 0
    for k in range(1000):
        model = random_model(rng, int(rng.integers(1, 9)))
        path = tmp_path / "model.json"
        qa.write_bqpjson(model, path)
        loaded, mapping = qa.read_bqpjson(path)
        if loaded.terms != model.terms or loaded.n_qubits != model.n_qubits:
            failures += 1
    ok = failures == 0
    report(12, ok, f"1000 random models, {failures} round-trip failures")
