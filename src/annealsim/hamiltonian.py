"""Ising models and the time-varying transverse-field Hamiltonian.

Operators act on ``n`` qubits with the little-endian index convention of
:mod:`annealsim.encoding`: qubit ``i`` flips bit ``i - 1`` of the basis-state
index.  The longitudinal (Ising) part is diagonal in the Z basis and is kept
as a length ``2**n`` vector.

:class:`_BaseOperators` alone describes the fixed operators whose weighted
sum is ``H(s)``: the driver, the Ising diagonal and the optional field
offsets, each as bit flips plus a diagonal, on the full space or on one
sector of the global spin flip.  Every ``H(s)``, every step generator of
:mod:`annealsim.magnus` and every matrix-free product of its Krylov path is
formed from it, and it decides the space a run propagates on, the start
state there and the lift of the final state back to ``2**n`` amplitudes.

Every allocation here and in :mod:`annealsim.magnus` that grows with the
input runs inside :func:`_memory_gate`, which sizes it first and raises
:class:`SizeError` where it would not fit, or where it fails anyway.
"""

from __future__ import annotations

import copy
import math
import os
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Any

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from .errors import ModelError, SizeError

MAX_QUBITS = 16

_PHYSICAL_MEMORY = (
    os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else math.inf
)
# the memory limit of the process's cgroup (v2), where there is one
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")


def _validate_qubit_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= int(n) <= MAX_QUBITS:
        raise SizeError(f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n!r}")


def _memory_limit() -> float:
    """Bytes this process may use: the least of physical memory, the
    address-space limit and the cgroup limit, where those are set."""
    limits = [_PHYSICAL_MEMORY]
    if resource is not None:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    try:
        text = _CGROUP_MEMORY_MAX.read_text(encoding="ascii").strip()
        if text != "max":
            limits.append(int(text))
    except (OSError, ValueError):
        pass
    return min(limits)


@contextmanager
def _memory_gate(need: int, subject: str):
    """Refuse a block that needs ``need`` bytes, more than this process may
    use, before it runs, and turn an allocation failure in it into
    SizeError; ``subject`` names the qubit count and what is sized."""
    limit = _memory_limit()
    if need > limit:
        raise SizeError(
            f"{subject} need {need} bytes, more than the {limit} bytes this process may use"
        )
    try:
        yield
    except MemoryError as exc:
        raise SizeError(f"out of memory at {subject}") from exc


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
    n = int(n_qubits)
    with _memory_gate(8 << 2 * n, f"{n} qubits in the transverse field"):
        return _BaseOperators(n, 1, np.zeros(1 << n), None).dense(np.array([[1.0, 0.0]]))[0]


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


def _prepare(model, offsets: FieldOffsets | None) -> tuple[IsingModel, FieldOffsets | None]:
    """The model as an :class:`IsingModel`, and offsets checked against its size."""
    model = IsingModel.from_terms(model)
    if offsets is not None and offsets.n_qubits != model.n_qubits:
        raise ModelError(
            f"offsets are for {offsets.n_qubits} qubits but the model has {model.n_qubits}"
        )
    return model, offsets


def _eval_envelope(fn, points: np.ndarray) -> np.ndarray:
    """An envelope at every point of an array, by one call where it takes arrays."""
    try:
        out = np.asarray(fn(points), dtype=float)
        if out.shape == points.shape:
            return out
    except Exception:
        pass
    return np.array([float(fn(float(x))) for x in points])


@cache
def _flip_index(mask: int) -> tuple:
    """The index that flips the bits set in ``mask`` of an array whose last
    axes are the bits, bit 0 last: it reverses the axes of those bits, a view
    equal to ``np.flip`` on them."""
    return (Ellipsis,) + tuple(slice(None, None, -1) if mask >> k & 1 else slice(None)
                               for k in reversed(range(mask.bit_length())))


class _BaseOperators:
    """The fixed real operators whose weighted sum is ``H(s)``.

    They are the driver ``sign * sum_k X_k``, the Ising part ``diag(E)`` and,
    when an offset is nonzero, the constant field ``sum_k x_k X_k + z_k Z_k``,
    weighted by ``A(s)``, ``B(s)`` and 1.  Each is held as a list of flips
    ``(mask, w)``, meaning ``w`` times the operator that flips every bit set
    in ``mask``, plus a diagonal or None.  Their weighted sums are formed
    dense (:meth:`dense`), or they are applied to vectors: each base to a
    block (:meth:`apply`), or each to its own vector, summed (:meth:`apply_sum`).

    Where every diagonal reads the same backwards, so that no field and no Z
    offset breaks the symmetry, every base commutes with the global spin flip
    ``F = prod_k X_k``; :meth:`flip_sector` then describes the same bases on
    one eigenspace of ``F``, on ``n_bits = n_qubits - 1`` bits, and
    ``parity`` is its eigenvalue (None on the full space).
    """

    def __init__(self, n_qubits: int, driver_sign: int, diagonal: np.ndarray,
                 offsets: FieldOffsets | None):
        self.n_qubits = n_qubits
        self.driver_sign = driver_sign
        self.parity: int | None = None
        self.n_bits = n_qubits
        self.dim = 1 << n_qubits
        self.terms: list[tuple[list[tuple[int, float]], np.ndarray | None]] = [
            ([(1 << k, float(driver_sign)) for k in range(n_qubits)], None),
            ([], diagonal),
        ]
        if offsets is not None and offsets.any_nonzero():
            self.terms.append(([(1 << k, w) for k, w in enumerate(offsets.x) if w != 0.0],
                               _spin_table(n_qubits) @ np.asarray(offsets.z)))
        self.count = len(self.terms)

    def flip_symmetric(self) -> bool:
        """Whether every base commutes with ``F``, as it does when every
        diagonal reads the same backwards; one bit has no sector to reduce to."""
        return self.n_bits >= 2 and all(
            diagonal is None or np.array_equal(diagonal, diagonal[::-1])
            for _, diagonal in self.terms)

    def flip_sector(self, parity: int) -> "_BaseOperators":
        """The bases on the eigenspace ``F = parity`` of a flip-symmetric set.

        Basis state ``r < dim / 2`` stands for ``(|r> + parity |~r>) / sqrt(2)``.
        A diagonal keeps its first half.  A flip of any lower bit stays one;
        a flip of the top bit lands on ``~(r ^ rest)``, so it becomes
        ``parity`` times the flip of all ``n_bits - 1`` remaining bits.
        """
        sector = copy.copy(self)
        top = 1 << (self.n_bits - 1)
        sector.parity = parity
        sector.n_bits = self.n_bits - 1
        sector.dim = top
        sector.terms = [
            ([(mask, w) if mask < top else (top - 1, parity * w) for mask, w in flips],
             None if diagonal is None else diagonal[:top])
            for flips, diagonal in self.terms
        ]
        return sector

    def run_space(self) -> "_BaseOperators":
        """The bases a run propagates on: the start state's sector where they
        are flip-symmetric, else these.  All-plus has ``F = +1``, all-minus
        ``F = (-1)**n``."""
        if not self.flip_symmetric():
            return self
        return self.flip_sector(1 if self.driver_sign == -1 else (-1) ** self.n_qubits)

    def start_state(self) -> np.ndarray:
        """The driver's ground state on this space: all-minus (the product of
        the spins) under driver sign +1, else all-plus.  Sector state ``r``
        holds ``1 / sqrt(2)`` of ``|r>``, so it takes ``sqrt(2)`` times the
        amplitude of ``|r>``."""
        spins = (_spin_table(self.n_bits).prod(axis=1) if self.driver_sign == 1
                 else np.ones(self.dim))
        psi = spins.astype(complex) / math.sqrt(1 << self.n_qubits)
        return psi if self.parity is None else math.sqrt(2.0) * psi

    def lift(self, psi: np.ndarray) -> np.ndarray:
        """A state on this space as its ``2**n_qubits`` amplitudes."""
        if self.parity is None:
            return psi
        return np.concatenate([psi, self.parity * psi[::-1]]) / math.sqrt(2.0)

    def envelopes(self, schedule, s: np.ndarray) -> np.ndarray:
        """Weights ``(s.size, count)`` of the bases at every point of ``s``."""
        out = np.ones((s.size, self.count))
        out[:, 0] = _eval_envelope(schedule.A, s)
        out[:, 1] = _eval_envelope(schedule.B, s)
        return out

    def dense(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Planes ``sum_b weights[k, b] B_b`` (real or complex), by default
        the bases themselves, each filled in place from the flips and diagonal
        of every base of nonzero weight, so that no other dim x dim array is
        made.  Flips of one mask add up: on two qubits both driver flips of a
        sector flip its one bit."""
        weights = np.eye(self.count) if weights is None else weights
        out = np.zeros((len(weights), self.dim, self.dim), np.result_type(weights, float))
        idx = np.arange(self.dim)
        for plane, row in zip(out, weights):
            for (flips, diagonal), c in zip(self.terms, row):
                if c == 0:
                    continue
                for mask, w in flips:
                    plane[idx, idx ^ mask] += c * w
                if diagonal is not None:
                    plane[idx, idx] += c * diagonal
        return out

    def apply(self, src: np.ndarray, out: np.ndarray) -> None:
        """out[a*p : (a+1)*p] = B_a src for every base a, src being (p, dim)."""
        p = src.shape[0]
        for a in range(self.count):
            self._apply_base(a, src, out[a * p : (a + 1) * p], add=False)

    def apply_sum(self, u: np.ndarray, out: np.ndarray) -> None:
        """out = sum_a B_a u[a], u being (count, dim)."""
        for a in range(self.count):
            self._apply_base(a, u[a], out, add=a > 0)

    def _apply_base(self, a: int, src: np.ndarray, out: np.ndarray, add: bool) -> None:
        """out = B_a src, or out += B_a src where ``add``; ``src`` is one
        vector or a block of them, shaped like ``out``.

        With the basis index split into one axis per bit, a flip reverses
        the axes of the bits in its mask.
        """
        flips, diagonal = self.terms[a]
        if add:
            if diagonal is not None:
                out += src * diagonal
        elif diagonal is None:
            out[...] = 0.0
        else:
            np.multiply(src, diagonal, out=out)
        shape = src.shape[:-1] + (2,) * self.n_bits
        s, o = src.reshape(shape), out.reshape(shape)
        for mask, w in flips:
            flipped = s[_flip_index(mask)]
            if w == 1.0:
                o += flipped
            elif w == -1.0:
                o -= flipped
            else:
                o += w * flipped


def hamiltonian_at(model, schedule, s: float, offsets: FieldOffsets | None = None) -> np.ndarray:
    """Dense ``H(s)`` for a model, schedule and normalized time ``s`` in [0, 1].

    Assembles ``sign * A(s) * H_x + B(s) * diag(E_ising)`` plus any constant
    field offsets, where ``sign`` is the schedule's driver-sign convention.
    The result is the only ``2**n x 2**n`` array made; where it would not fit
    in memory, :class:`SizeError` is raised.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    model, offsets = _prepare(model, offsets)
    bases = _BaseOperators(model.n_qubits, schedule.driver_sign, ising_diagonal(model), offsets)
    with _memory_gate(8 << 2 * model.n_qubits, f"{model.n_qubits} qubits in H(s)"):
        return bases.dense(bases.envelopes(schedule, np.array([float(s)])))[0]


def eigenspectrum(
    model,
    schedule,
    s_grid: Sequence[float],
    offsets: FieldOffsets | None = None,
) -> SpectrumResult:
    """Ascending eigenvalues of ``H(s)`` at each grid point.

    ``H(s)`` is built for a chunk of grid points at a time, up to 32 MiB of
    them, and each matrix of the chunk is diagonalized; no other
    ``2**n x 2**n`` array is held.  Where the levels, a chunk and the copy
    that the eigensolver makes of one matrix would not fit in memory,
    :class:`SizeError` is raised before any of them is allocated.
    """
    model, offsets = _prepare(model, offsets)
    grid = np.asarray(s_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("s_grid must be a nonempty 1-D sequence")
    if not (np.isfinite(grid).all() and grid.min() >= 0.0 and grid.max() <= 1.0):
        raise ValueError("s_grid values must be finite and lie in [0, 1]")

    bases = _BaseOperators(model.n_qubits, schedule.driver_sign, ising_diagonal(model), offsets)
    chunk = min(grid.size, max(1, (1 << 22) // (bases.dim * bases.dim)))
    need = 8 * bases.dim * ((chunk + 1) * bases.dim + grid.size)
    with _memory_gate(need, f"{model.n_qubits} qubits in a spectrum"):
        levels = np.empty((grid.size, bases.dim))
        for lo in range(0, grid.size, chunk):
            stack = bases.dense(bases.envelopes(schedule, grid[lo : lo + chunk]))
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
