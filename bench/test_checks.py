"""Each output check must pass the program's real output and reject a wrong one.

    python -m pytest bench/test_checks.py -q

The outputs come from annealsim itself on small problems; the wrong ones
are made from them as a fault would make them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import annealsim as qa  # noqa: E402
import annealsim.cli  # noqa: E402,F401 - the sweep and spectrum run through the CLI
import reference as ref  # noqa: E402
import workloads  # noqa: E402

GLASS = workloads.spin_glass(np.random.default_rng(7), 3)


def test_state_check_rejects_wrong_driver_sign():
    psi = ref.evolve(3, GLASS, 2.0, ref.dw_a, ref.dw_b, -1, breaks=(ref.DW_KINK,))
    right = qa.simulate(GLASS, 2.0, qa.builtin_schedule("dw_quadratic", driver_sign=-1))
    wrong = qa.simulate(GLASS, 2.0, qa.builtin_schedule("dw_quadratic", driver_sign=1))
    assert workloads.results_failures("right", right, psi) == []
    # the two signs give the same probabilities; only the state tells them apart
    assert np.abs(wrong.probabilities - right.probabilities).max() < 1e-6
    problems = workloads.results_failures("wrong", wrong, psi)
    assert problems and all("trace distance" in p for p in problems)


@pytest.fixture(scope="module")
def five_spin_exports(tmp_path_factory):
    out = tmp_path_factory.mktemp("five")
    sweep = workloads.WORKLOADS["sweep5"]
    inputs = sweep.inputs(qa, 3, out)
    variant = inputs["variants"][1]
    run = sweep._run(qa, variant["path"], "0.5,20", 11,
                     str(out / "sweep.json"), str(out / "spectrum.csv"))
    assert run["codes"] == (0, 0)
    taus = [0.5, 20.0]
    p_ref = [ref.move(np.abs(ref.evolve(5, sweep.terms, tau, ref.circular_a, ref.circular_b, 1,
                                        rtol=1e-10)) ** 2, variant["index"])
             for tau in taus]
    return run, taus, p_ref, variant


def test_sweep_check_rejects_one_perturbed_probability(five_spin_exports):
    run, taus, p_ref, _ = five_spin_exports
    points = workloads.read_sweep(run["sweep"])
    assert ref.sweep_failures(points, taus, p_ref) == []
    points[1]["states"][5]["probability"] += 1e-4
    problems = ref.sweep_failures(points, taus, p_ref)
    assert any("sum to" in p for p in problems)
    assert any("symmetry" in p for p in problems)
    assert any("off the reference" in p for p in problems)


def test_spectrum_check_rejects_shifted_ground_level(five_spin_exports):
    run, _, _, variant = five_spin_exports
    s_grid, levels = workloads.read_spectrum(run["spectrum"], 5)
    args = (5, variant["terms"], ref.circular_a, ref.circular_b, 1)
    assert ref.spectrum_failures(s_grid, levels, *args) == []
    levels[-1, 0] += 1e-3
    problems = ref.spectrum_failures(s_grid, levels, *args)
    assert any("s=1 levels" in p for p in problems)


def test_ladder_check_rejects_coarse_finest_rung():
    ladder = workloads.WORKLOADS["ladder"]
    _, n, terms = ladder.problems[1]
    tau = 3.0
    psi = ref.evolve(n, terms, tau, ref.circular_a, ref.circular_b, 1, rtol=1e-13)
    results = [qa.simulate_fixed(terms, tau, qa.builtin_schedule("circular"), order=4,
                                 n_steps=k) for k in ladder.rungs]
    rhos = [r.rho for r in results]
    probs = [r.probabilities for r in results]
    assert ref.ladder_failures("pair", ladder.rungs, rhos, probs, psi) == []
    rhos[-1], probs[-1] = rhos[-2], probs[-2]
    problems = ref.ladder_failures("pair", ladder.rungs, rhos, probs, psi)
    assert any("rate" in p and "n=64" in p for p in problems)


def test_relabelled_problem_has_moved_state():
    perm, flips = [2, 0, 1], [1, 0, 1]
    moved = ref.relabel_terms(GLASS, perm, flips)
    index = ref.relabel_index(3, perm, flips)
    schedule = qa.builtin_schedule("circular")
    psi = qa.simulate_fixed(GLASS, 1.0, schedule, n_steps=64).probabilities
    psi_moved = qa.simulate_fixed(moved, 1.0, schedule, n_steps=64).probabilities
    assert np.abs(ref.move(psi, index) - psi_moved).max() < 1e-12
    assert np.array_equal(ref.move(ref.ising_energies(3, GLASS), index),
                          ref.ising_energies(3, moved))
