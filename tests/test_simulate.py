import itertools

import numpy as np
import pytest

import annealsim as qa
import annealsim.hamiltonian as hamiltonian_mod
import annealsim.magnus as magnus_mod
from conftest import base_operators, random_model


def dw_glass(seed):
    """A 5-qubit glass: couplings +-1 on every pair, fields +-0.5 on every qubit."""
    rng = np.random.default_rng(seed)
    glass = {pair: float(rng.choice((-1.0, 1.0)))
             for pair in itertools.combinations(range(1, 6), 2)}
    glass.update({(i,): float(rng.choice((-0.5, 0.5))) for i in range(1, 6)})
    return glass


# the 37 nodes of the benchmark's table, spaced 1/36
NODES_37 = np.linspace(0.0, 1.0, 37)


def dw_table(tmp_path, s_grid=None):
    """The D-Wave envelopes as a table, by default of 1001 uniform rows."""
    path = tmp_path / "dw.csv"
    qa.save_schedule_csv(qa.builtin_schedule("dw_quadratic"), path, s_grid=s_grid)
    return qa.load_schedule_csv(path, driver_sign=-1)


def slope_above_floor(ns, ds, floor=1e-12):
    pts = [(np.log2(n), np.log2(d)) for n, d in zip(ns, ds) if d > floor]
    return np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]


class TestSimulateFixed:
    def test_time_independent_problem_is_exact(self):
        # constant envelopes: one step already produces the exact conjugation
        sched = qa.schedule_from_functions(lambda s: 0.0, lambda s: 1.0)
        model = qa.IsingModel.from_terms({(1, 2): 1.0, (1,): 0.3})
        tau = 2.5
        result = qa.simulate_fixed(model, tau, sched, order=1, n_steps=3)
        diag = qa.ising_diagonal(model)
        u = np.diag(np.exp(-1j * tau * diag))
        psi0 = np.array([0.5, -0.5, -0.5, 0.5], dtype=complex)
        expected = np.outer(u @ psi0, (u @ psi0).conj())
        assert qa.trace_distance(result.rho, expected) <= 1e-13

    def test_single_field_high_resolution(self, circular):
        result = qa.simulate_fixed(qa.single_field_model(), 100.0, circular,
                                   order=4, n_steps=10_000)
        assert qa.trace_distance(result.rho, qa.rho_h1(1.0, 100.0)) <= 1e-10

    def test_trace_preserved_at_any_resolution(self, five_spin, circular):
        for n_steps in (1, 7, 41):
            result = qa.simulate_fixed(five_spin, 100.0, circular, order=4, n_steps=n_steps)
            assert abs(np.trace(result.rho).real - 1.0) <= 1e-12

    def test_purity_preserved(self, five_spin, circular):
        result = qa.simulate_fixed(five_spin, 25.0, circular, order=2, n_steps=64)
        purity = np.trace(result.rho @ result.rho).real
        assert abs(purity - 1.0) <= 1e-10

    def test_probabilities_normalized(self, five_spin, circular):
        result = qa.simulate_fixed(five_spin, 5.0, circular, order=4, n_steps=32)
        assert result.probabilities.min() >= -1e-10
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_time_returns_initial_state(self, five_spin, circular):
        result = qa.simulate_fixed(five_spin, 0.0, circular, order=4, n_steps=4)
        assert np.allclose(result.probabilities, 1 / 32, atol=1e-14)

    def test_driver_sign_changes_initial_coherences(self, circular):
        model = qa.IsingModel.from_terms({(1,): 1.0})
        minus = qa.simulate_fixed(model, 0.0, circular, n_steps=1)
        plus = qa.simulate_fixed(model, 0.0, circular.with_driver_sign(-1), n_steps=1)
        assert minus.rho[0, 1] == pytest.approx(-0.5)
        assert plus.rho[0, 1] == pytest.approx(0.5)

    def test_driver_sign_conventions_give_identical_probabilities(self, circular):
        # the two conventions are conjugate under a product of Z operators,
        # which is diagonal, so measurement statistics must coincide exactly
        model = qa.IsingModel.from_terms({(1, 2): -1.0, (2, 3): 1.0, (1,): 0.4})
        base = qa.simulate_fixed(model, 4.0, circular, order=4, n_steps=256)
        flipped = qa.simulate_fixed(
            model, 4.0, circular.with_driver_sign(-1), order=4, n_steps=256
        )
        assert np.abs(base.probabilities - flipped.probabilities).max() <= 1e-13

    def test_recursive_orders_consistent_with_table_path(self, circular):
        # order 5 includes the first four terms; at small tau * width the two
        # truncations agree far below the step error
        model = qa.coupled_pair_model()
        r4 = qa.simulate_fixed(model, 1.0, circular, order=4, n_steps=64)
        r5 = qa.simulate_fixed(model, 1.0, circular, order=5, n_steps=64)
        assert qa.trace_distance(r4.rho, r5.rho) <= 1e-9

    @pytest.mark.parametrize("order", [6, 7, 8])
    def test_high_orders_converge_on_analytic_problem(self, circular, order):
        result = qa.simulate_fixed(qa.single_field_model(), 2.0, circular, order=order,
                                   n_steps=128)
        assert qa.trace_distance(result.rho, qa.rho_h1(1.0, 2.0)) <= 1e-9

    def test_scalar_only_user_schedule(self):
        # math-module envelopes reject arrays, forcing the point-wise
        # evaluation fallback inside the step engine
        import math as pymath

        sched = qa.schedule_from_functions(
            lambda s: pymath.cos(0.5 * pymath.pi * s),
            lambda s: pymath.sin(0.5 * pymath.pi * s),
        )
        result = qa.simulate_fixed(qa.single_field_model(), 2.0, sched, order=4, n_steps=256)
        assert qa.trace_distance(result.rho, qa.rho_h1(1.0, 2.0)) <= 1e-10

    def test_parameter_validation(self, five_spin, circular):
        with pytest.raises(qa.SolverConfigError):
            qa.simulate_fixed(five_spin, 1.0, circular, order=0, n_steps=4)
        with pytest.raises(qa.SolverConfigError):
            qa.simulate_fixed(five_spin, 1.0, circular, order=4, n_steps=0)
        with pytest.raises(ValueError):
            qa.simulate_fixed(five_spin, -1.0, circular)
        # counts must be integers: no rounding of 2.5 steps, no order True
        for bad in ({"n_steps": 2.5}, {"initial_steps": 1.5}, {"order": True},
                    {"order": 4.0}, {"max_doublings": 2.0}, {"n_steps": True}):
            with pytest.raises(qa.SolverConfigError, match="must be an integer"):
                qa.SolverConfig(**bad)
        with pytest.raises(qa.SolverConfigError, match="n_steps must be an integer"):
            qa.simulate_fixed(five_spin, 1.0, circular, n_steps=2.5)
        with pytest.raises(qa.SolverConfigError, match="order must be an integer"):
            qa.simulate_fixed(five_spin, 1.0, circular, order=True, n_steps=4)
        with pytest.raises(qa.SolverConfigError, match="initial_steps must be an integer"):
            qa.simulate(five_spin, 1.0, circular, initial_steps=1.5)
        with pytest.raises(qa.SolverConfigError, match="n_steps must be an integer"):
            qa.simulate_reference_rk(five_spin, 1.0, circular, n_steps=2.5)
        with pytest.raises(qa.SolverConfigError, match="n_steps must be >= 1"):
            qa.simulate_reference_rk(five_spin, 1.0, circular, n_steps=0)
        # numpy integers are counts
        assert qa.simulate_fixed(five_spin, 1.0, circular, order=np.int64(4),
                                 n_steps=np.int64(3)).steps_used == 3
        rk = qa.simulate_reference_rk(five_spin, 1.0, circular, n_steps=np.int32(2))
        assert rk.steps_used == 2

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    @pytest.mark.parametrize("run", [
        lambda model, tau, sched: qa.simulate_fixed(model, tau, sched, n_steps=4),
        lambda model, tau, sched: qa.simulate(model, tau, sched),
        lambda model, tau, sched: qa.simulate_reference_rk(model, tau, sched, n_steps=4),
        lambda model, tau, sched: qa.simulate_sweep(model, [1.0, tau], sched),
    ], ids=["simulate_fixed", "simulate", "simulate_reference_rk", "simulate_sweep"])
    def test_non_finite_time_is_refused(self, circular, run, tau):
        # refused as an argument, not run into a non-finite step generator
        with pytest.raises(ValueError, match="evolution time must be finite"):
            run(qa.coupled_pair_model(), tau, circular)

    @pytest.mark.parametrize("run", [qa.simulate_fixed, qa.simulate_reference_rk])
    def test_fixed_step_run_needs_a_step_count(self, circular, run):
        with pytest.raises(qa.SolverConfigError, match="needs n_steps"):
            run(qa.coupled_pair_model(), 1.0, circular, n_steps=None)


class TestStepUnitarity:
    def test_every_step_propagator_is_unitary(self, five_spin, circular):
        from annealsim.magnus import _StepEngine, _step_grid

        engine = _StepEngine(base_operators(five_spin, circular).run_space(), circular)
        starts, widths = _step_grid(97, circular.kinks)
        omegas = engine.generators(engine.weights(starts, widths, 100.0))
        unitaries = np.array([qa.exponentiate_omega(omega) for omega in omegas])
        identity = np.eye(engine.dim)
        defect = np.abs(
            unitaries @ np.conj(np.swapaxes(unitaries, -1, -2)) - identity
        ).max()
        assert defect <= 1e-12

    def test_chunked_and_unchunked_paths_agree(self, circular):
        # force multiple chunks by shrinking the chunk bound
        import annealsim.magnus as magnus_mod

        model = qa.coupled_pair_model()
        reference = qa.simulate_fixed(model, 3.0, circular, order=4, n_steps=777)
        original = magnus_mod._CHUNK_ELEMENTS
        magnus_mod._CHUNK_ELEMENTS = 16 * 16
        try:
            chunked = qa.simulate_fixed(model, 3.0, circular, order=4, n_steps=777)
        finally:
            magnus_mod._CHUNK_ELEMENTS = original
        assert qa.trace_distance(reference.rho, chunked.rho) <= 1e-13


class TestConvergenceOrders:
    def test_measured_slopes_on_analytic_problem(self, circular):
        """Step-doubling convergence rates of the truncated series.

        The symmetric quadratic fit plus exact integrals make the one-term
        truncation a second-order method and push the two-term truncation to
        fourth order; adding the third term changes nothing measurable.
        """
        model = qa.single_field_model()
        target = qa.rho_h1(1.0, 1.0)
        ns = [2**k for k in range(4, 11)]
        slopes = {}
        for order in (1, 2, 3, 4):
            ds = [
                qa.trace_distance(
                    qa.simulate_fixed(model, 1.0, circular, order=order, n_steps=n).rho,
                    target,
                )
                for n in ns
            ]
            slopes[order] = slope_above_floor(ns, ds)
        assert slopes[1] == pytest.approx(-2.0, abs=0.3)
        assert slopes[2] == pytest.approx(-4.0, abs=0.4)
        assert slopes[3] == pytest.approx(-4.0, abs=0.4)
        assert slopes[4] == pytest.approx(-4.0, abs=0.4)

    def test_error_decreases_monotonically_to_floor(self, circular):
        model = qa.single_field_model()
        target = qa.rho_h1(1.0, 3.0)
        previous = None
        for n in (8, 16, 32, 64, 128, 256):
            d = qa.trace_distance(
                qa.simulate_fixed(model, 3.0, circular, order=4, n_steps=n).rho, target
            )
            if previous is not None and previous > 1e-13:
                assert d <= previous * 1.05
            previous = d


class TestAdaptive:
    def test_time_independent_converges_immediately(self):
        sched = qa.schedule_from_functions(lambda s: 0.0, lambda s: 1.0)
        model = qa.IsingModel.from_terms({(1,): 1.0})
        result = qa.simulate(model, 3.0, sched, initial_steps=2)
        assert result.steps_used == 4
        assert len(result.convergence_trace) == 1
        n, e_max, e_mean = result.convergence_trace[0]
        assert e_max <= 1e-13 and e_mean <= 1e-13

    def test_impossible_tolerance_raises_with_trace(self, five_spin, circular):
        with pytest.raises(qa.ConvergenceError) as excinfo:
            qa.simulate(five_spin, 1.0, circular, mean_tol=1e-30, max_tol=1e-30,
                        max_doublings=3)
        trace = excinfo.value.trace
        assert len(trace) == 3
        assert trace[0][0] == 4 and trace[-1][0] == 16

    def test_converged_diagonal_matches_high_resolution_baseline(
        self, five_spin, circular, five_spin_baseline_tau100
    ):
        result = qa.simulate(five_spin, 100.0, circular)
        assert (
            np.abs(result.probabilities - five_spin_baseline_tau100.probabilities).max()
            <= 1e-6
        )

    def test_levels_with_no_new_edge_are_not_compared(self, tmp_path):
        # A 37-node table of the D-Wave envelopes with every interior node a
        # kink: 1/4, 1/2 and 3/4 are nodes, so uniform 2- and 4-step grids
        # with the kinks inserted would be the same 36 segments, and
        # comparing them would accept a state 0.2 away in trace distance.
        table = dw_table(tmp_path, NODES_37)
        sched = qa.AnnealingSchedule(A=table.A, B=table.B, driver_sign=-1,
                                     kinks=tuple(NODES_37[1:-1]))
        glass = dw_glass(1)
        result = qa.simulate(glass, 5.0, sched)
        fine = qa.simulate_fixed(glass, 5.0, sched, n_steps=2048)
        assert result.steps_used > 36
        assert qa.trace_distance(result.rho, fine.rho) <= 1e-6

    def test_table_levels_halve_every_step(self, tmp_path, monkeypatch):
        """Each level of a table run halves every step of the last one.

        Only then does the difference of two levels measure the error of the
        finer one.  With the nodes of this 1001-row table inserted into a
        uniform grid as kinks, the 2- and 16-step levels would have 1000 and
        1008 steps, and their difference would measure just the 8 split ones.
        At tau 50 the run takes three levels: 1000, 2000 and 4000 steps.
        """
        table = dw_table(tmp_path)
        simulate_fixed = magnus_mod.simulate_fixed
        steps = []

        def recording(*args, **kwargs):
            result = simulate_fixed(*args, **kwargs)
            steps.append(result.steps_used)
            return result

        monkeypatch.setattr(magnus_mod, "simulate_fixed", recording)
        result = qa.simulate(dw_glass(1), 50.0, table)
        assert len(steps) >= 3
        assert all(finer == 2 * coarser for coarser, finer in zip(steps, steps[1:]))
        assert [entry[0] for entry in result.convergence_trace] == steps[1:]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_table_run_is_within_tolerance(self, tmp_path, seed):
        # The default 1001-row table: with steps straddling its nodes the run
        # stopped at 512 steps, 1.3e-8 to 2e-8 (mean) from a resolved run.
        table, glass = dw_table(tmp_path), dw_glass(seed)
        result = qa.simulate(glass, 5.0, table)
        resolved = qa.simulate_fixed(glass, 5.0, table, n_steps=4000)
        assert qa.error_max(result.state, resolved.state) <= 1e-6
        assert qa.error_mean(result.state, resolved.state) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_node_table_converges_in_few_steps(self, tmp_path, seed):
        # 36 segments of 16 or 32 steps each
        table, glass = dw_table(tmp_path, NODES_37), dw_glass(seed)
        result = qa.simulate(glass, 5.0, table)
        fine = qa.simulate_fixed(glass, 5.0, table, n_steps=4096)
        assert result.steps_used <= 1152
        assert qa.trace_distance(result.rho, fine.rho) <= 1e-8

    def test_table_level_differences_fall_monotonically(self, tmp_path):
        # With steps straddling the nodes they rose from 8 to 32 steps.
        with pytest.raises(qa.ConvergenceError) as excinfo:
            qa.simulate(dw_glass(0), 5.0, dw_table(tmp_path, NODES_37), mean_tol=1e-30,
                        max_tol=1e-30, max_doublings=6)
        trace = excinfo.value.trace
        assert [entry[0] for entry in trace] == [72 * 2**k for k in range(6)]
        assert "last n_steps=2304" in str(excinfo.value)
        for coarser, finer in zip(trace, trace[1:]):
            assert finer[1] < coarser[1] / 2 and finer[2] < coarser[2] / 2

    def test_trace_entries_record_doubling(self, circular):
        result = qa.simulate(qa.single_field_model(), 5.0, circular, initial_steps=4)
        ns = [entry[0] for entry in result.convergence_trace]
        assert ns == [8 * 2**k for k in range(len(ns))]
        assert result.metadata["mode"] == "adaptive"


class TestSweep:
    def test_singleton_matches_simulate(self, five_spin, circular):
        config = qa.SolverConfig(order=4, n_steps=128)
        points = qa.simulate_sweep(five_spin, [7.0], circular, config)
        direct = qa.simulate_fixed(five_spin, 7.0, circular, order=4, n_steps=128)
        assert len(points) == 1
        assert np.allclose(points[0].result.probabilities, direct.probabilities, atol=1e-14)

    def test_failures_are_isolated(self, circular):
        model = qa.single_field_model()
        config = qa.SolverConfig(mean_tol=1e-30, max_tol=1e-30, max_doublings=2)
        points = qa.simulate_sweep(model, [0.0, 1.0], circular, config)
        assert points[0].result is not None  # zero evolution converges exactly
        assert points[1].result is None
        assert "ConvergenceError" in points[1].error

    def test_empty_tau_list_rejected(self, five_spin, circular):
        with pytest.raises(ValueError):
            qa.simulate_sweep(five_spin, [], circular)


class TestReferenceRk:
    def test_time_independent_matches_conjugation(self):
        sched = qa.schedule_from_functions(lambda s: 0.0, lambda s: 1.0)
        model = qa.IsingModel.from_terms({(1, 2): 1.0})
        tau = 1.0
        result = qa.simulate_reference_rk(model, tau, sched, n_steps=2000)
        diag = qa.ising_diagonal(model)
        u = np.diag(np.exp(-1j * tau * diag))
        psi0 = np.array([0.5, -0.5, -0.5, 0.5], dtype=complex)
        expected = np.outer(u @ psi0, (u @ psi0).conj())
        assert qa.trace_distance(result.rho, expected) <= 1e-8

    def test_agrees_with_magnus_on_analytic_problem(self, circular):
        model = qa.single_field_model()
        rk = qa.simulate_reference_rk(model, 5.0, circular, n_steps=20_000)
        assert qa.trace_distance(rk.rho, qa.rho_h1(1.0, 5.0)) <= 1e-10

    def test_under_resolved_run_reports_drift(self, five_spin, circular):
        result = qa.simulate_reference_rk(five_spin, 100.0, circular, n_steps=1)
        assert np.isfinite(result.rho).all()
        assert result.metadata["trace_drift"] > 1e-12

    def test_well_resolved_run_has_negligible_drift(self, circular):
        result = qa.simulate_reference_rk(qa.single_field_model(), 1.0, circular, n_steps=500)
        assert result.metadata["trace_drift"] <= 1e-12


class TestOffsets:
    def test_offset_evolution_cross_checked_against_rk(self, circular):
        model = qa.IsingModel.from_terms({(1, 2): 1.0})
        offsets = qa.FieldOffsets.from_vectors(x=[0.2, -0.1], z=[0.05, 0.3])
        magnus = qa.simulate_fixed(model, 3.0, circular, order=4, n_steps=512,
                                   offsets=offsets)
        rk = qa.simulate_reference_rk(model, 3.0, circular, n_steps=20_000,
                                      offsets=offsets)
        assert qa.trace_distance(magnus.rho, rk.rho) <= 1e-9

    def test_offsets_change_the_outcome(self, circular):
        model = qa.IsingModel.from_terms({(1, 2): 1.0})
        offsets = qa.FieldOffsets.from_vectors(z=[0.5, -0.5], n_qubits=2)
        plain = qa.simulate_fixed(model, 3.0, circular, order=4, n_steps=256)
        shifted = qa.simulate_fixed(model, 3.0, circular, order=4, n_steps=256,
                                    offsets=offsets)
        assert qa.trace_distance(plain.rho, shifted.rho) > 1e-3


class TestKinkHandling:
    def test_kink_inserted_as_step_boundary(self, five_spin):
        sched = qa.builtin_schedule("dw_quadratic")
        result = qa.simulate_fixed(five_spin, 1.0, sched, order=4, n_steps=10)
        assert result.steps_used == 11  # 0.69 is not on the uniform 10-step grid

    def test_kink_on_grid_not_duplicated(self, five_spin):
        sched = qa.builtin_schedule("dw_quadratic")
        result = qa.simulate_fixed(five_spin, 1.0, sched, order=4, n_steps=100)
        assert result.steps_used == 100

    def test_dw_evolution_cross_checked_against_rk(self):
        model = qa.IsingModel.from_terms({(1, 2): 1.0})
        sched = qa.builtin_schedule("dw_quadratic")
        magnus = qa.simulate_fixed(model, 0.5, sched, order=4, n_steps=1024)
        rk = qa.simulate_reference_rk(model, 0.5, sched, n_steps=200_000)
        assert qa.trace_distance(magnus.rho, rk.rho) <= 1e-8


class TestStepGrid:
    @staticmethod
    def brute_force(n, kinks, level):
        """The per-segment grid, built one kink and one segment at a time."""
        points = sorted([0.0, 1.0] + [q for q in kinks if 0.0 < q < 1.0])
        bounds = [0.0]
        for before, q in zip(points, points[1:]):
            if q - before > 1e-12:
                bounds.append(q)
        bounds[-1] = 1.0
        edges = []
        for a, b in zip(bounds, bounds[1:]):
            m = next(m for m in itertools.count(1) if m >= n * (b - a - 1e-12))
            edges.extend(np.linspace(a, b, m * 2**level + 1)[:-1])
        return np.array(edges + [1.0])

    def test_many_kinks_match_brute_force(self):
        from annealsim.magnus import _step_grid

        n = 1000
        kinks = list(np.random.default_rng(3).uniform(0.0, 1.0, size=400))
        # within 1e-12 of another kink on either side, on one, and just past 1e-12
        kinks += [kinks[123] + 5e-13, kinks[389] - 5e-13, kinks[222], kinks[321] + 2e-12]
        # near-coincident kinks: a chain 6e-13 apart merges into its first
        kinks += [0.4, 0.4 + 6e-13, 0.4 + 1.2e-12]
        # within, on and just past 1e-12 of 0 and 1, and outside (0, 1)
        kinks += [5e-13, 1.0 - 5e-13, 2e-12, 1.0 - 2e-12, 0.0, 1.0, -0.5, 1.5]
        for level in (0, 2):
            edges = self.brute_force(n, kinks, level)
            starts, widths = _step_grid(n, kinks, level)
            assert np.array_equal(starts, edges[:-1])
            assert np.array_equal(widths, np.diff(edges))
        # 404 bounds inside (0, 1): the 400 drawn kinks, kinks[321] + 2e-12,
        # 0.4, 2e-12 and 1 - 2e-12
        assert _step_grid(1, kinks)[0].size == 405
        # without kinks, exactly np.linspace
        for n, level in itertools.product((1, 2, 3, 10, 97, 1000), (0, 1, 5)):
            edges = np.linspace(0.0, 1.0, n * 2**level + 1)
            starts, widths = _step_grid(n, (), level)
            assert np.array_equal(starts, edges[:-1])
            assert np.array_equal(widths, np.diff(edges))


class TestNonFiniteGenerators:
    @pytest.mark.parametrize("chunk_elements", [1, 1 << 21])
    @pytest.mark.parametrize("path", ["dense", "krylov"])
    def test_bad_step_is_named(self, monkeypatch, path, chunk_elements):
        # NaN only inside (0.2, 0.3), which the probes at 0, 0.5 and 1 miss;
        # of ten steps only the third has a node there, its midpoint 0.25
        sched = qa.schedule_from_functions(
            lambda s: np.where((s > 0.2) & (s < 0.3), np.nan, 1.0 - s), lambda s: s + 0.0)
        monkeypatch.setattr(hamiltonian_mod, "_KRYLOV_MIN_BITS", 1 if path == "krylov" else 99)
        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        # a chunk element bound of 1 puts every step in a chunk of its own
        monkeypatch.setattr(magnus_mod, "_CHUNK_ELEMENTS", chunk_elements)
        with pytest.raises(qa.NumericalError, match=r"non-finite step generator at step index 2$"):
            qa.simulate_fixed(qa.coupled_pair_model(), 1.0, sched, n_steps=10)


def _propagate(monkeypatch, path, *args, **kwargs):
    """simulate_fixed forced onto the dense or the Krylov path, its space
    chosen anew under that path's threshold."""
    monkeypatch.setattr(hamiltonian_mod, "_KRYLOV_MIN_BITS", 1 if path == "krylov" else 99)
    monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
    result = qa.simulate_fixed(*args, **kwargs)
    assert result.metadata["propagator"] == path
    return result


def _offsets(rng, n_qubits):
    return qa.FieldOffsets.from_vectors(x=0.3 * rng.normal(size=n_qubits),
                                        z=0.3 * rng.normal(size=n_qubits))


# (qubits, order, with offsets, driver sign): every order, both offset cases
# and both signs at 3 and 5 qubits; order 4 from 4 to 8 qubits; orders 6 and
# 8 without offsets at 7 and 8 qubits, where the dense cache stays small
KRYLOV_CASES = (
    [(n, order, off, sign) for n in (3, 5) for order in (1, 2, 4, 6, 8)
     for off in (False, True) for sign in (1, -1)]
    + [(n, 4, off, sign) for n in (4, 6, 7, 8) for off in (False, True) for sign in (1, -1)]
    + [(n, order, False, 1) for n in (7, 8) for order in (6, 8)]
)


class TestKrylovPath:
    @pytest.mark.parametrize("n_qubits, order, with_offsets, sign", KRYLOV_CASES)
    def test_matches_dense(self, monkeypatch, n_qubits, order, with_offsets, sign):
        rng = np.random.default_rng(100 * n_qubits + order)
        model = random_model(rng, n_qubits)
        offsets = _offsets(rng, n_qubits) if with_offsets else None
        sched = qa.builtin_schedule("dw_quadratic", driver_sign=sign)
        # resolved steps (|Omega| up to about 12): the rounding of the word
        # expansion grows with |Omega| on both paths
        args = (model, 0.25, sched)
        kwargs = {"order": order, "n_steps": 16, "offsets": offsets}
        dense = _propagate(monkeypatch, "dense", *args, **kwargs)
        krylov = _propagate(monkeypatch, "krylov", *args, **kwargs)
        assert qa.trace_distance(dense.rho, krylov.rho) <= 1e-13
        assert np.abs(dense.probabilities - krylov.probabilities).max() <= 1e-13

    @pytest.mark.parametrize("sector", [False, True])
    @pytest.mark.parametrize("with_offsets", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 4, 6, 8])
    def test_apply_omega_is_the_word_sum(self, circular, order, with_offsets, sector):
        # Omega v grouped by first letter against every word applied on its own,
        # from the dense engine's cached word products
        from annealsim.magnus import _KrylovEngine, _StepEngine

        rng = np.random.default_rng(40 + order + 10 * with_offsets + 100 * sector)
        n = 5 if sector else 4
        terms = {pair: float(rng.normal()) for pair in itertools.combinations(range(1, n + 1), 2)}
        if not sector:
            terms[(1,)] = 0.7
        z = np.zeros(n) if sector else 0.3 * rng.normal(size=n)
        offsets = qa.FieldOffsets.from_vectors(x=0.3 * rng.normal(size=n), z=z)
        bases = base_operators(terms, circular, offsets if with_offsets else None).run_space()
        # random couplings keep only the global flip: 16 states either way
        assert (bases.dim, bases.count) == (16, 2 + with_offsets)
        assert (bases.parity is not None) == sector
        dense = _StepEngine(bases, circular, order)
        weights = 1j * dense.weights(np.array([0.2]), np.array([0.1]), 3.0)[0]
        v = rng.normal(size=bases.dim) + 1j * rng.normal(size=bases.dim)
        expected = weights @ (dense.products.reshape(-1, bases.dim, bases.dim) @ v)
        out = np.empty(bases.dim, dtype=complex)
        _KrylovEngine(bases, circular, order).apply_omega(weights, v, out)
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_wide_step_is_refused(self, monkeypatch, circular):
        from annealsim.magnus import _KrylovEngine, _StepEngine

        model = random_model(np.random.default_rng(7), 7)
        tau = 4.0
        engine = _StepEngine(base_operators(model, circular).run_space(), circular)
        omega = engine.generators(engine.weights(np.array([0.0]), np.array([1.0]), tau))[0]
        assert np.abs(np.linalg.eigvalsh(1j * omega)).max() >= 120
        calls = []
        apply_omega = _KrylovEngine.apply_omega

        def counted(self, *args):
            calls.append(None)
            return apply_omega(self, *args)

        monkeypatch.setattr(_KrylovEngine, "apply_omega", counted)
        with pytest.raises(qa.NumericalError, match="use more steps"):
            qa.simulate_fixed(model, tau, circular, n_steps=1)
        # the refusal comes once the Lanczos basis is full
        assert 0 < len(calls) <= magnus_mod._KRYLOV_MAX_DIM

    def test_too_wide_step_is_refused_and_skipped_by_doubling(self, monkeypatch, circular):
        model = random_model(np.random.default_rng(8), 7)
        with pytest.raises(qa.NumericalError, match="use more steps"):
            qa.simulate_fixed(model, 10.0, circular, n_steps=1)
        result = qa.simulate(model, 10.0, circular, initial_steps=1)
        # the levels whose steps were refused left no comparison behind
        assert result.convergence_trace[0][0] > 4
        dense = _propagate(monkeypatch, "dense", model, 10.0, circular,
                           n_steps=result.steps_used)
        assert qa.trace_distance(dense.rho, result.rho) <= 1e-13

    def test_one_step_matches_expm_multiply(self, monkeypatch, circular):
        linalg = pytest.importorskip("scipy.sparse.linalg")
        from annealsim.magnus import _StepEngine

        model = random_model(np.random.default_rng(9), 5)
        offsets = _offsets(np.random.default_rng(10), 5)
        engine = _StepEngine(base_operators(model, circular, offsets).run_space(), circular)
        omega = engine.generators(engine.weights(np.array([0.0]), np.array([1.0]), 3.0))[0]
        expected = linalg.expm_multiply(omega, engine.bases.start_state())
        krylov = _propagate(monkeypatch, "krylov", model, 3.0, circular, n_steps=1,
                            offsets=offsets)
        assert np.abs(krylov.state - expected).max() <= 1e-13

    @pytest.mark.parametrize("n_qubits", [7, 8])
    def test_matches_state_vector_rk(self, monkeypatch, linear, n_qubits):
        # a +-1 glass with a field on every qubit, on the Krylov path; RK4
        # shares none of the series, the trie, Lanczos or the orbit space
        rng = np.random.default_rng(5)
        terms = {pair: float(rng.choice((-1.0, 1.0)))
                 for pair in itertools.combinations(range(1, n_qubits + 1), 2)}
        terms.update({(i,): 0.3 for i in range(1, n_qubits + 1)})
        magnus = _propagate(monkeypatch, "krylov", terms, 1.0, linear, order=4, n_steps=64)
        rk = qa.simulate_reference_rk(terms, 1.0, linear, n_steps=2000)
        assert qa.trace_distance(magnus.rho, rk.rho) <= 1e-9

    def test_thirteen_qubits_form_no_density_matrix(self, linear):
        import tracemalloc

        model = random_model(np.random.default_rng(13), 13)
        tracemalloc.start()
        try:
            result = qa.simulate_fixed(model, 0.1, linear, n_steps=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dim = 1 << 13
        # one complex dim x dim array would take 1 GiB
        assert peak < dim * dim
        assert peak < 64 << 20
        assert "rho" not in vars(result)
        assert result.state.shape == (dim,)
        assert result.metadata["propagator"] == "krylov"
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_path_follows_the_space_dimension(self, circular):
        # the dimension propagated picks the path: 64 runs dense and 128
        # Krylov, on the full space of a model without symmetry, on the flip
        # sector of one with couplings only, whatever the qubit count; a
        # uniform model runs dense on a handful of orbits.  On the Krylov
        # path a chain's 136 orbits of 512 give way to its flip sector,
        # while a ring's 190 of 8192 are kept
        rng = np.random.default_rng(11)

        def glass(n, fields):
            terms = {p: float(rng.normal()) for p in itertools.combinations(range(1, n + 1), 2)}
            terms.update({(i,): float(rng.normal()) for i in range(1, n + 1) if fields})
            return terms

        uniform = {p: 1.0 for p in itertools.combinations(range(1, 9), 2)}
        chain = {(i, i + 1): 1.0 for i in range(1, 9)}
        ring = {**{(i, i + 1): 1.0 for i in range(1, 13)}, (1, 13): 1.0}
        cases = [("dense", glass(6, True), 64), ("krylov", glass(7, True), 128),
                 ("dense", glass(7, False), 64), ("krylov", glass(8, False), 128),
                 ("dense", uniform, 5), ("krylov", chain, 256), ("krylov", ring, 190)]
        for path, terms, dim in cases:
            model = qa.IsingModel.from_terms(terms)
            result = qa.simulate_fixed(model, 0.1, circular, n_steps=2)
            assert (result.metadata["propagator"], result.metadata["space_dim"]) == (path, dim)
            assert ("flip_sector" in result.metadata) == ((1,) not in model.terms)
            assert result.state.shape == (1 << model.n_qubits,)

    def test_propagator_reported(self, circular):
        dense = qa.simulate_fixed(random_model(np.random.default_rng(1), 5), 1.0, circular,
                                  n_steps=4)
        krylov = qa.simulate(random_model(np.random.default_rng(2), 7), 0.5, circular)
        assert dense.metadata["propagator"] == "dense"
        assert "krylov_max_dim" not in dense.metadata
        assert krylov.metadata["propagator"] == "krylov"
        assert 1 <= krylov.metadata["krylov_max_dim"] <= magnus_mod._KRYLOV_MAX_DIM

    @pytest.mark.parametrize("run", [qa.simulate_fixed, qa.simulate_reference_rk])
    def test_rho_formed_on_first_read(self, five_spin, circular, run):
        # every path, the RK4 reference too, returns the state vector
        result = run(five_spin, 1.0, circular, n_steps=4)
        assert result.state.shape == (1 << 5,)
        assert "rho" not in vars(result)
        rho = result.rho
        assert rho is result.rho
        assert np.array_equal(rho, np.outer(result.state, result.state.conj()))


def _no_sector(monkeypatch):
    from annealsim.hamiltonian import _BaseOperators

    monkeypatch.setattr(_BaseOperators, "run_space", lambda self: self)


def _flip_free_model(rng, n_qubits):
    """Couplings only, so the model commutes with the global spin flip."""
    terms = {p: float(rng.normal()) for p in itertools.combinations(range(1, n_qubits + 1), 2)
             if rng.random() < 0.6}
    terms[(1, n_qubits)] = 1.0
    return qa.IsingModel.from_terms(terms, n_qubits=n_qubits)


class TestFlipSector:
    @pytest.mark.parametrize("top_x_offset", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("path", ["dense", "krylov"])
    @pytest.mark.parametrize("n_qubits", range(2, 9))
    def test_matches_full_space(self, monkeypatch, n_qubits, path, sign, top_x_offset):
        # all-plus (sign -1) is even under the flip, all-minus has parity (-1)**n
        model = _flip_free_model(np.random.default_rng(n_qubits), n_qubits)
        offsets = (qa.FieldOffsets.from_vectors(x=[0.0] * (n_qubits - 1) + [0.4])
                   if top_x_offset else None)
        args = (model, 0.5, qa.builtin_schedule("dw_quadratic", driver_sign=sign))
        kwargs = {"n_steps": 16, "offsets": offsets}
        sector = _propagate(monkeypatch, path, *args, **kwargs)
        _no_sector(monkeypatch)
        full = _propagate(monkeypatch, path, *args, **kwargs)
        assert sector.metadata["flip_sector"] == (1 if sign == -1 else (-1) ** n_qubits)
        assert "flip_sector" not in full.metadata
        assert qa.trace_distance(sector.rho, full.rho) <= 1e-13
        # p[v] == p[~v], ~v flipping every bit
        assert np.array_equal(sector.probabilities, sector.probabilities[::-1])

    @pytest.mark.parametrize("path", ["dense", "krylov"])
    @pytest.mark.parametrize("breaker", ["field", "z_offset"])
    def test_field_or_z_offset_keeps_full_space(self, monkeypatch, breaker, path):
        model = _flip_free_model(np.random.default_rng(4), 4)
        offsets = None
        if breaker == "field":
            model = qa.IsingModel.from_terms({**model.terms, (3,): 1e-3}, n_qubits=4)
        else:
            offsets = qa.FieldOffsets.from_vectors(z=[0.0, 0.0, 1e-3, 0.0])
        args = (model, 0.5, qa.builtin_schedule("circular"))
        result = _propagate(monkeypatch, path, *args, n_steps=16, offsets=offsets)
        assert "flip_sector" not in result.metadata
        # the same code as with the detector off, so the same state bit for bit
        _no_sector(monkeypatch)
        full = _propagate(monkeypatch, path, *args, n_steps=16, offsets=offsets)
        assert np.array_equal(result.state, full.state)

    def test_adaptive_run_reports_its_sector(self, five_spin, circular):
        result = qa.simulate(five_spin, 2.0, circular)
        assert result.metadata["flip_sector"] == -1
        assert result.state.shape == (32,)
        glass = qa.simulate(dw_glass(0), 2.0, circular)
        assert "flip_sector" not in glass.metadata
