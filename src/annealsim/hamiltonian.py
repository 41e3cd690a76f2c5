"""Ising models and the time-varying transverse-field Hamiltonian.

Operators act on ``n`` qubits with the little-endian index convention of
:mod:`annealsim.encoding`: qubit ``i`` flips bit ``i - 1`` of the basis-state
index.  The longitudinal (Ising) part is diagonal in the Z basis and is kept
as a length ``2**n`` vector.  Every dense ``H(s)``, and every step generator
of the Magnus and RK4 paths, is a combination of one stack of fixed operators
(:func:`_base_operators`, :func:`_combine`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ModelError, SizeError

MAX_QUBITS = 16


def _validate_qubit_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= int(n) <= MAX_QUBITS:
        raise SizeError(f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n!r}")


@dataclass(frozen=True, eq=True)
class IsingModel:
    """Sparse Ising Hamiltonian: fields ``h_i`` and couplings ``J_ij``.

    ``terms`` maps 1-tuples ``(i,)`` to field strengths and 2-tuples
    ``(i, j)`` with ``i < j`` to coupling strengths.  Qubit indices are
    1-based.  Construct through :meth:`from_terms`, which normalizes key
    order and rejects ambiguous duplicates such as ``(1, 2)`` and ``(2, 1)``
    appearing together.
    """

    terms: Mapping[tuple[int, ...], float]
    n_qubits: int
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_terms(
        cls,
        terms: "IsingModel | Mapping[tuple[int, ...], float]",
        n_qubits: int | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> "IsingModel":
        if isinstance(terms, IsingModel):
            if n_qubits is not None and n_qubits != terms.n_qubits:
                raise ModelError(
                    f"model already has n_qubits={terms.n_qubits}, cannot override with {n_qubits}"
                )
            return terms
        normalized: dict[tuple[int, ...], float] = {}
        max_index = 0
        for key, coeff in terms.items():
            if not isinstance(key, tuple) or len(key) not in (1, 2):
                raise ModelError(f"term key {key!r} must be a 1- or 2-tuple of qubit indices")
            if not all(isinstance(i, (int, np.integer)) for i in key):
                raise ModelError(f"term key {key!r} must contain integer qubit indices")
            if any(i < 1 for i in key):
                raise ModelError(f"term key {key!r} has an index < 1; qubit indices are 1-based")
            if len(key) == 2:
                i, j = int(key[0]), int(key[1])
                if i == j:
                    raise ModelError(f"coupling {key!r} must join two distinct qubits")
                norm_key: tuple[int, ...] = (min(i, j), max(i, j))
            else:
                norm_key = (int(key[0]),)
            if norm_key in normalized:
                raise ModelError(
                    f"duplicate term for qubits {norm_key}: coefficients are ambiguous, not summed"
                )
            value = float(coeff)
            if not np.isfinite(value):
                raise ModelError(f"coefficient for {norm_key} is not finite: {coeff!r}")
            normalized[norm_key] = value
            max_index = max(max_index, *norm_key)
        if n_qubits is None:
            if max_index == 0:
                raise ModelError("n_qubits must be given explicitly for a model with no terms")
            n_qubits = max_index
        if n_qubits < max_index:
            raise ModelError(f"n_qubits={n_qubits} is smaller than the largest index {max_index}")
        _validate_qubit_count(n_qubits)
        return cls(terms=normalized, n_qubits=int(n_qubits), metadata=dict(metadata or {}))


@dataclass(frozen=True)
class FieldOffsets:
    """Constant per-qubit field offsets in the X and Z directions."""

    x: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) != len(self.z):
            raise ModelError(
                f"offset vectors must have equal length, got {len(self.x)} and {len(self.z)}"
            )
        _validate_qubit_count(len(self.x))
        if not all(np.isfinite(v) for v in self.x + self.z):
            raise ModelError("offset entries must be finite")

    @classmethod
    def from_vectors(
        cls,
        x: Sequence[float] | None = None,
        z: Sequence[float] | None = None,
        n_qubits: int | None = None,
    ) -> "FieldOffsets":
        if x is None and z is None and n_qubits is None:
            raise ModelError("at least one of x, z, n_qubits is required")
        n = n_qubits if n_qubits is not None else len(x if x is not None else z)
        xs = tuple(float(v) for v in (x if x is not None else [0.0] * n))
        zs = tuple(float(v) for v in (z if z is not None else [0.0] * n))
        if n_qubits is not None and (len(xs) != n_qubits or len(zs) != n_qubits):
            raise ModelError("offset vector length does not match n_qubits")
        return cls(x=xs, z=zs)

    @property
    def n_qubits(self) -> int:
        return len(self.x)

    def any_nonzero(self) -> bool:
        return any(v != 0.0 for v in self.x + self.z)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Instantaneous eigenvalues of ``H(s)`` on a grid of ``s`` values.

    ``levels[k]`` holds the ascending eigenvalues at ``s_grid[k]``.
    """

    s_grid: np.ndarray
    levels: np.ndarray


def _spin_table(n: int) -> np.ndarray:
    # row v, column i-1: spin value of qubit i in basis state v
    v = np.arange(1 << n, dtype=np.int64)
    bits = (v[:, None] >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(np.float64)


def transverse_matrix(n_qubits: int) -> np.ndarray:
    """Sum of Pauli-X operators over all qubits as a dense symmetric matrix."""
    _validate_qubit_count(n_qubits)
    return _weighted_flip_matrix([1.0] * int(n_qubits))


def _weighted_flip_matrix(weights: Sequence[float], out: np.ndarray | None = None) -> np.ndarray:
    # sum_i w_i * sigma_i^x, added to ``out`` where one is given
    dim = 1 << len(weights)
    m = np.zeros((dim, dim)) if out is None else out
    v = np.arange(dim)
    for k, w in enumerate(weights):
        if w != 0.0:
            m[v, v ^ (1 << k)] += w
    return m


def ising_diagonal(model: IsingModel | Mapping) -> np.ndarray:
    """Classical energies of all ``2**n`` spin configurations.

    Entry ``v`` is the Ising energy of the spin vector obtained from the
    binary expansion of ``v``.
    """
    model = IsingModel.from_terms(model)
    spins = _spin_table(model.n_qubits)
    diag = np.zeros(1 << model.n_qubits)
    for key, coeff in model.terms.items():
        if len(key) == 1:
            diag += coeff * spins[:, key[0] - 1]
        else:
            i, j = key
            diag += coeff * (spins[:, i - 1] * spins[:, j - 1])
    return diag


def _z_offset_diagonal(offsets: FieldOffsets) -> np.ndarray:
    spins = _spin_table(offsets.n_qubits)
    return spins @ np.asarray(offsets.z)


def _check_offsets(offsets: FieldOffsets | None, n_qubits: int) -> FieldOffsets | None:
    if offsets is None:
        return None
    if offsets.n_qubits != n_qubits:
        raise ModelError(
            f"offsets are for {offsets.n_qubits} qubits but the model has {n_qubits}"
        )
    return offsets


def _eval_envelope(fn, points: np.ndarray) -> np.ndarray:
    """An envelope at every point of an array, by one call where it takes arrays."""
    try:
        out = np.asarray(fn(points), dtype=float)
        if out.shape == points.shape:
            return out
    except Exception:
        pass
    return np.array([float(fn(float(x))) for x in points])


def _base_operators(n_qubits: int, driver_sign: int, diagonal: np.ndarray,
                    offsets: FieldOffsets | None) -> np.ndarray:
    """The real stack ``sign * H_x``, ``diag(E)`` and, with nonzero offsets,
    their constant field: ``H(s)`` weighs them by ``A(s)``, ``B(s)`` and 1."""
    dim = 1 << n_qubits
    with_offsets = offsets is not None and offsets.any_nonzero()
    # filled in place, so that no dim x dim temporary is made
    operators = np.zeros((3 if with_offsets else 2, dim, dim))
    _weighted_flip_matrix([float(driver_sign)] * n_qubits, out=operators[0])
    idx = np.arange(dim)
    operators[1, idx, idx] = diagonal
    if with_offsets:
        _weighted_flip_matrix(offsets.x, out=operators[2])
        operators[2, idx, idx] = _z_offset_diagonal(offsets)
    return operators


def _combine(coeffs: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """``sum_b coeffs[:, b] * operators[b]``; real operators are never copied
    to complex."""
    ops = operators.reshape(operators.shape[0], -1)
    shape = coeffs.shape[:1] + operators.shape[1:]
    if not np.iscomplexobj(coeffs):
        return (coeffs @ ops).reshape(shape)
    re_im = (np.concatenate([coeffs.real, coeffs.imag]) @ ops).reshape((2,) + shape)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = re_im
    return out


def _hamiltonian_stack(operators: np.ndarray, schedule, s: np.ndarray) -> np.ndarray:
    """``H(s)`` at every point of the array ``s``."""
    coeffs = np.ones((s.size, operators.shape[0]))
    coeffs[:, 0] = _eval_envelope(schedule.A, s)
    coeffs[:, 1] = _eval_envelope(schedule.B, s)
    return _combine(coeffs, operators)


def hamiltonian_at(model, schedule, s: float, offsets: FieldOffsets | None = None) -> np.ndarray:
    """Dense ``H(s)`` for a model, schedule and normalized time ``s`` in [0, 1].

    Assembles ``sign * A(s) * H_x + B(s) * diag(E_ising)`` plus any constant
    field offsets, where ``sign`` is the schedule's driver-sign convention.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    model = IsingModel.from_terms(model)
    offsets = _check_offsets(offsets, model.n_qubits)
    operators = _base_operators(model.n_qubits, schedule.driver_sign,
                                ising_diagonal(model), offsets)
    return _hamiltonian_stack(operators, schedule, np.array([float(s)]))[0]


def eigenspectrum(
    model,
    schedule,
    s_grid: Sequence[float],
    offsets: FieldOffsets | None = None,
) -> SpectrumResult:
    """Ascending eigenvalues of ``H(s)`` at each grid point."""
    model = IsingModel.from_terms(model)
    offsets = _check_offsets(offsets, model.n_qubits)
    grid = np.asarray(s_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("s_grid must be a nonempty 1-D sequence")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("s_grid values must lie in [0, 1]")

    dim = 1 << model.n_qubits
    operators = _base_operators(model.n_qubits, schedule.driver_sign,
                                ising_diagonal(model), offsets)
    levels = np.empty((grid.size, dim))
    chunk = max(1, (1 << 22) // (dim * dim))
    for lo in range(0, grid.size, chunk):
        stack = _hamiltonian_stack(operators, schedule, grid[lo : lo + chunk])
        levels[lo : lo + chunk] = np.linalg.eigvalsh(stack)
    return SpectrumResult(s_grid=grid, levels=levels)


def minimum_gap(spectrum: SpectrumResult) -> tuple[float, float]:
    """Location and value of the smallest gap between the two lowest levels."""
    gaps = spectrum.levels[:, 1] - spectrum.levels[:, 0]
    k = int(np.argmin(gaps))
    return float(spectrum.s_grid[k]), float(gaps[k])


def brute_force_ground_states(model) -> tuple[float, set[tuple[int, ...]]]:
    """Exhaustive minimum Ising energy and the set of optimal spin vectors."""
    model = IsingModel.from_terms(model)
    diag = ising_diagonal(model)
    energy = float(diag.min())
    tol = 1e-9 * max(1.0, abs(energy))
    spins = _spin_table(model.n_qubits)
    states = {
        tuple(int(s) for s in spins[v])
        for v in np.flatnonzero(diag <= energy + tol)
    }
    return energy, states
