"""Runs on the orbit space of a model's signed-permutation symmetries against
the same runs on the full space, and the symmetry search itself."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsim as qa
import annealsim.hamiltonian as hamiltonian_mod
from annealsim.hamiltonian import _BaseOperators
from conftest import FIVE_SPIN_TERMS, orbit_isometry


def _space(model, offsets=None, driver_sign=1):
    model = qa.IsingModel.from_terms(model)
    return _BaseOperators(model, driver_sign, qa.ising_diagonal(model), offsets).run_space()


def _ring(n, coupling):
    return {(i, i + 1) if i < n else (1, n): coupling for i in range(1, n + 1)}


@st.composite
def models(draw):
    """A ring, chain, uniform all-to-all model or +-1 glass on 1-9 qubits, in
    a relabelled and gauge-flipped copy, some qubits possibly without terms,
    with or without fields and offsets."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["ring", "chain", "uniform", "glass"]))
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "ring":
        couplings = {(i, (i + 1) % n): 0.7 for i in range(n)} if n > 2 else {}
    elif kind == "chain":
        couplings = {(i, i + 1): -1.0 for i in range(n - 1)}
    elif kind == "uniform":
        couplings = dict.fromkeys(pairs, -1.0)
    else:
        couplings = {p: draw(st.sampled_from([-1.0, 1.0])) for p in pairs}
    free = draw(st.integers(0, min(2, n - 1)))
    couplings = {p: c for p, c in couplings.items() if max(p) < n - free}
    field = draw(st.sampled_from([None, 0.5, "signs"]))
    fields = {}
    if field == 0.5:
        fields = {i: 0.5 for i in range(n - free)}
    elif field == "signs":
        fields = {i: draw(st.sampled_from([-0.5, 0.5])) for i in range(n - free)}
    perm = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    terms = {tuple(sorted((perm[i] + 1, perm[j] + 1))): c * flips[i] * flips[j]
             for (i, j), c in couplings.items()}
    terms.update({(perm[i] + 1,): c * flips[i] for i, c in fields.items()})
    offsets = None
    if draw(st.booleans()):
        x = [0.3 if draw(st.booleans()) else 0.0] * n
        z = [flips[perm.index(k)] * 0.2 for k in range(n)] if not fields and draw(
            st.booleans()) else None
        offsets = qa.FieldOffsets.from_vectors(x=x, z=z, n_qubits=n)
    return qa.IsingModel.from_terms(terms, n_qubits=n), offsets


class TestOrbitSpace:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(problem=models(), sign=st.sampled_from([1, -1]), krylov=st.booleans())
    def test_matches_full_space(self, problem, sign, krylov):
        # the same run with run_space patched to the identity; dense runs up
        # to 7 qubits, where its product cache stays small
        model, offsets = problem
        krylov = krylov or model.n_qubits >= 8
        schedule = qa.builtin_schedule("dw_quadratic", driver_sign=sign)
        args = (model, 0.5, schedule)
        kwargs = {"n_steps": 8, "offsets": offsets}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hamiltonian_mod, "_KRYLOV_MIN_BITS", 1 if krylov else 99)
            orbits = qa.simulate_fixed(*args, **kwargs)
            patch.setattr(_BaseOperators, "run_space", lambda self: self)
            full = qa.simulate_fixed(*args, **kwargs)
        assert full.metadata["space_dim"] == 1 << model.n_qubits
        assert orbits.state.shape == full.state.shape
        assert qa.trace_distance(orbits.rho, full.rho) <= 1e-13

    @pytest.mark.parametrize("fourth", ["field", "free"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_dense_path_with_flips_and_gathers_in_one_base(self, fourth, sign):
        # a uniform triangle and a fourth qubit that the permutations fix:
        # its driver flip stays a flip of the orbit indices, while the
        # triangle's become gathers, all in the driver's base
        triangle = {(1, 2): -1.0, (1, 3): -1.0, (2, 3): -1.0}
        terms = ({**triangle, (1,): 0.5, (2,): 0.5, (3,): 0.5, (4,): 0.2}
                 if fourth == "field" else triangle)
        model = qa.IsingModel.from_terms(terms, n_qubits=4)
        iso, order = orbit_isometry(model, driver_sign=sign)
        space = _space(model, driver_sign=sign)
        assert (space.symmetry_order, space.dim) == (order, iso.shape[1])
        kinds = {isinstance(target, int) for target, _ in space.terms[0][0]}
        assert kinds == {True, False}
        schedule = qa.builtin_schedule("circular", driver_sign=sign)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hamiltonian_mod, "_KRYLOV_MIN_BITS", 99)
            orbits = qa.simulate_fixed(model, 2.0, schedule, n_steps=16)
            patch.setattr(_BaseOperators, "run_space", lambda self: self)
            full = qa.simulate_fixed(model, 2.0, schedule, n_steps=16)
        assert orbits.metadata["space_dim"] == space.dim
        assert qa.trace_distance(orbits.rho, full.rho) <= 1e-13

    def test_cache_serves_threads(self, monkeypatch):
        # more threads than cores look up and evict orbit spaces of eight
        # models through a cache that keeps two, switching often
        import sys
        import threading

        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES_KEPT", 2)
        rings = [qa.IsingModel.from_terms(_ring(n, 0.7)) for n in range(3, 11)]
        dims = [_space(ring).dim for ring in rings]
        errors = []

        def work(k):
            try:
                for i in range(40):
                    j = (k + i) % len(rings)
                    assert _space(rings[j]).dim == dims[j]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(hamiltonian_mod._ORBIT_SPACES) <= 2

    def test_field_free_component_keeps_its_flip(self):
        # a chain on qubits 1-7 with fields beside a field-free chain 8-9-10:
        # the group of order 4 leaves 384 orbits of 1024, some flips gathers,
        # so the Krylov path takes the free chain's flip alone; the global
        # flip is no symmetry
        terms = {(i, i + 1): 1.0 for i in range(1, 7)}
        terms.update({(i,): 0.1 * i for i in range(1, 8)})
        terms.update({(8, 9): 1.0, (9, 10): 1.0})
        schedule = qa.builtin_schedule("linear")
        orbits = qa.simulate_fixed(terms, 1.0, schedule, n_steps=16)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_BaseOperators, "run_space", lambda self: self)
            full = qa.simulate_fixed(terms, 1.0, schedule, n_steps=16)
        assert (orbits.metadata["space_dim"], orbits.metadata["symmetry_order"]) == (512, 2)
        assert "flip_sector" not in orbits.metadata
        assert qa.trace_distance(orbits.rho, full.rho) <= 1e-13

    def test_one_cached_space_per_model(self, monkeypatch):
        # the 9-qubit chain's 136 orbits cut its states less than 4-fold, so
        # the run keeps only the sector of the global flip, of bit flips
        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        chain = {(i, i + 1): 1.0 for i in range(1, 9)}
        result = qa.simulate_fixed(chain, 1.0, qa.builtin_schedule("linear"), n_steps=4)
        metadata = result.metadata
        assert (metadata["propagator"], metadata["space_dim"], metadata["flip_sector"]) == (
            "krylov", 256, -1)
        (space,) = hamiltonian_mod._ORBIT_SPACES.values()
        assert all(isinstance(target, int) for flips, _ in space.terms for target, _ in flips)

    def test_cached_space_is_keyed_by_the_krylov_threshold(self, monkeypatch):
        # the 9-qubit chain's 136 orbits run dense under a threshold that
        # keeps every run dense; under one that sends them to Krylov, the
        # quarter rule leaves the 256 states of the global flip's sector,
        # though the dense run's space is still cached
        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        chain = {(i, i + 1): 1.0 for i in range(1, 9)}
        schedule = qa.builtin_schedule("linear")
        found = []
        for bits in (99, 1):
            monkeypatch.setattr(hamiltonian_mod, "_KRYLOV_MIN_BITS", bits)
            metadata = qa.simulate_fixed(chain, 1.0, schedule, n_steps=4).metadata
            found.append((metadata["propagator"], metadata["space_dim"],
                          metadata["flip_sector"]))
        assert found == [("dense", 136, -1), ("krylov", 256, -1)]
        assert len(hamiltonian_mod._ORBIT_SPACES) == 2

    def test_dropped_space_leaves_no_table(self, monkeypatch):
        # the 16-qubit chain with uniform X and Z offsets has its reflection
        # alone: 32,896 orbits of 65,536, with gathers, and no X flip
        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        n = 16
        model = qa.IsingModel.from_terms({(i, i + 1): 1.0 for i in range(1, n)})
        offsets = qa.FieldOffsets.from_vectors(x=[0.1] * n, z=[0.1] * n)
        full = _BaseOperators(model, 1, qa.ising_diagonal(model), offsets)
        assert full.run_space() is full
        assert list(hamiltonian_mod._ORBIT_SPACES.values()) == [None]

    def test_dropped_space_is_decided_before_its_tables(self, monkeypatch):
        # the chain above: its 32 flips' tables and weights would take
        # 16.8 MB, the labels and orbits of the search about 4 MB
        import tracemalloc

        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        n = 16
        model = qa.IsingModel.from_terms({(i, i + 1): 1.0 for i in range(1, n)})
        offsets = qa.FieldOffsets.from_vectors(x=[0.1] * n, z=[0.05] * n)
        full = _BaseOperators(model, 1, qa.ising_diagonal(model), offsets)
        tracemalloc.start()
        try:
            space = full.run_space()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space is full
        assert peak < 8 << 20

    @pytest.mark.parametrize("copy", [False, True])
    def test_five_spin_group(self, copy):
        # a relabelled, gauge-flipped copy has a conjugate group
        terms = FIVE_SPIN_TERMS
        if copy:
            perm, flips = (3, 0, 4, 2, 1), (1, -1, -1, 1, -1)
            terms = {tuple(sorted((perm[i - 1] + 1, perm[j - 1] + 1))):
                     c * flips[i - 1] * flips[j - 1] for (i, j), c in terms.items()}
        for sign in (1, -1):
            space = _space(terms, driver_sign=sign)
            assert (space.symmetry_order, space.dim) == (8, 7)
            assert space.parity == (-1 if sign == 1 else 1)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_uniform_ferromagnet_runs_on_dicke_states(self, n):
        # the symmetric group: n + 1 orbits by weight, paired by the global
        # flip where there is no field
        couplings = dict.fromkeys(itertools.combinations(range(1, n + 1), 2), -1.0)
        field = _space({**couplings, **{(i,): 0.3 for i in range(1, n + 1)}})
        assert (field.dim, field.symmetry_order) == (n + 1, np.prod(range(1, n + 1)))
        assert _space(couplings).dim == n // 2 + 1

    def test_ring_rotation_is_found_on_the_terms(self):
        # the rotated Ising diagonal differs from the diagonal in its last
        # digit, so a check on the diagonal would miss the rotation
        n = 8
        ring = qa.IsingModel.from_terms(_ring(n, 0.7))
        diag = qa.ising_diagonal(ring)
        states = np.arange(1 << n)
        rotated = ((states << 1) | (states >> (n - 1))) & ((1 << n) - 1)
        assert not np.array_equal(diag, diag[rotated])
        assert np.abs(diag - diag[rotated]).max() <= 1e-15
        space = _space(ring)
        # the dihedral group of 16 times the global flip
        assert (space.symmetry_order, space.dim) == (32, 18)
        # on five qubits, against every signed permutation
        five = qa.IsingModel.from_terms(_ring(5, 0.7))
        iso, order = orbit_isometry(five)
        assert (_space(five).symmetry_order, _space(five).dim) == (order, iso.shape[1]) == (20, 4)

    def test_five_spin_matches_full_space_rk(self, five_spin, circular):
        orbits = qa.simulate_fixed(five_spin, 5.0, circular, n_steps=256)
        rk = qa.simulate_reference_rk(five_spin, 5.0, circular, n_steps=4000)
        assert orbits.metadata["space_dim"] == 7
        assert qa.trace_distance(orbits.rho, rk.rho) <= 1e-9

    def test_metadata_reports_the_group_and_dimension(self, five_spin, circular):
        symmetric = qa.simulate(five_spin, 2.0, circular)
        assert (symmetric.metadata["symmetry_order"], symmetric.metadata["space_dim"]) == (8, 7)
        glass = {p: c for p, c in zip(itertools.combinations(range(1, 6), 2),
                                       (0.3, -1.1, 0.8, 0.5, -0.9, 1.3, -0.2, 0.7, 1.9, -0.4))}
        glass.update({(i,): 0.1 * i for i in range(1, 6)})
        plain = qa.simulate_fixed(glass, 2.0, circular, n_steps=8)
        assert (plain.metadata["symmetry_order"], plain.metadata["space_dim"]) == (1, 32)
        assert "flip_sector" not in plain.metadata
