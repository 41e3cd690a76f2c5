"""Ising models and the time-varying transverse-field Hamiltonian.

Operators act on ``n`` qubits with the little-endian index convention of
:mod:`annealsim.encoding`: qubit ``i`` flips bit ``i - 1`` of the basis-state
index.  The longitudinal (Ising) part is diagonal in the Z basis and is kept
as a length ``2**n`` vector.

:class:`_BaseOperators` alone describes the fixed operators whose weighted
sum is ``H(s)``: the driver, the Ising diagonal and the optional field
offsets, each as bit flips or gathers plus a diagonal, on the full space or
on the orbit space of the model's signed-permutation symmetries
(:class:`_OrbitSpace`, found by :mod:`annealsim.symmetry`).  Every ``H(s)``,
every step generator of :mod:`annealsim.magnus` and every matrix-free
product of its Krylov path is formed from it, and it decides the space a run
propagates on, the start state there and the lift of the final state back to
``2**n`` amplitudes.

Every allocation here and in :mod:`annealsim.magnus` that grows with the
input runs inside :func:`_memory_gate`, which sizes it first and raises
:class:`SizeError` where it would not fit, or where it fails anyway.  What
outlives its gate is the cache of recent orbit spaces, up to 16 of them and
32 MiB of tables beside the latest.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Any, NamedTuple

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from .errors import ModelError, SizeError
from .symmetry import orbit_labels, signed_symmetries

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
        bases = _BaseOperators(IsingModel.from_terms({}, n), 1, np.zeros(1 << n), None)
        return bases.dense(np.array([[1.0, 0.0]]))[0]


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


def _term_flips(n: int, driver_sign: int,
                offsets: FieldOffsets | None) -> list[list[tuple[int, float]]]:
    """The flips ``(mask, w)`` of each base on the full space: the driver's,
    none for the Ising part, and the X offsets' where there are offsets."""
    flips = [[(1 << k, float(driver_sign)) for k in range(n)], []]
    if offsets is not None:
        flips.append([(1 << k, w) for k, w in enumerate(offsets.x) if w != 0.0])
    return flips


def _parities(states: np.ndarray, n: int) -> np.ndarray:
    """1 where a basis state has an odd number of bits set, else 0."""
    odd = np.zeros(states.shape, dtype=np.int64)
    for k in range(n):
        odd ^= (states >> k) & 1
    return odd


class _OrbitSpace(NamedTuple):
    """The orbits of the basis states under a model's symmetry group ``G``.

    Orbit ``r`` stands for ``(1 / sqrt|O_r|) sum_{v in O_r} c_v |v>``, with
    ``c_v`` in ``phase``: 1 under all-plus, ``(-1)**(|v| + |reps[r]|)`` under
    all-minus, so that every ``g = (pi, m)`` acts on it by the start state's
    eigenvalue, 1 or ``(-1)**|m|``.  Since ``(-1)**|v|`` itself obeys that
    rule, no orbit's phases conflict, and every orbit is kept.  Orbits are
    ordered by their smallest member, ``reps[r]``.  ``flips`` holds the flips
    of every base restricted to the orbits: a flip ``(mask, w)`` becomes the
    gather ``out[r] += w_r psi[t_r]``, ``t_r`` the orbit of ``reps[r] ^ mask``
    and ``w_r = w c sqrt(|O_r| / |O_t|)``, ``c`` the phase of that state; a
    gather that is a flip of the orbit indices, as on a sector of the global
    flip, stays a flip ``(mask, w)``.  ``parity`` is the start state's
    eigenvalue of the global flip where ``G`` holds it, else None.
    """

    order: int
    parity: int | None
    reps: np.ndarray
    orbit: np.ndarray
    phase: np.ndarray
    root_sizes: np.ndarray
    flips: list

    @property
    def nbytes(self) -> int:
        arrays = [self.reps, self.orbit, self.phase, self.root_sizes]
        arrays += [a for term in self.flips for flip in term for a in flip
                   if isinstance(a, np.ndarray)]
        return sum(a.nbytes for a in arrays)


# orbit spaces by model, offsets and driver sign, the latest last, so that a
# sweep finds its model's symmetries once; those before the latest are
# dropped past 16 spaces or 32 MiB of orbit tables.  The lock serves the
# threads of a sweep.
_ORBIT_SPACES: dict = {}
_ORBIT_LOCK = threading.Lock()
_ORBIT_SPACES_KEPT = 16
_ORBIT_BYTES_KEPT = 1 << 25


def _orbit_space(terms: tuple, n: int, offsets: FieldOffsets | None, driver_sign: int,
                 flip_only: bool) -> _OrbitSpace | None:
    """The orbit space of a model's symmetry group, or of its subgroup of
    the global flip where ``flip_only``, or None where that is trivial;
    ``terms`` are the model's items."""
    key = (terms, n, offsets, driver_sign, flip_only)
    with _ORBIT_LOCK:
        space = _ORBIT_SPACES.pop(key, False)
        if space is False:
            space = _build_orbit_space(*key)
            kept, count = (0 if space is None else space.nbytes), 1
            for old in reversed(list(_ORBIT_SPACES)):
                kept += 0 if _ORBIT_SPACES[old] is None else _ORBIT_SPACES[old].nbytes
                count += 1
                if kept > _ORBIT_BYTES_KEPT or count > _ORBIT_SPACES_KEPT:
                    del _ORBIT_SPACES[old]
        _ORBIT_SPACES[key] = space
    return space


def _build_orbit_space(terms: tuple, n: int, offsets: FieldOffsets | None, driver_sign: int,
                       flip_only: bool) -> _OrbitSpace | None:
    J, h = np.zeros((n, n)), np.zeros(n)
    for key, coeff in terms:
        if len(key) == 1:
            h[key[0] - 1] = coeff
        else:
            J[key[0] - 1, key[1] - 1] = J[key[1] - 1, key[0] - 1] = coeff
    x, z = ((np.array(offsets.x), np.array(offsets.z)) if offsets is not None
            else (np.zeros(n), np.zeros(n)))
    if flip_only:
        generators, order = [(tuple(range(n)), (1 << n) - 1)], 2
        if h.any() or z.any():
            return None
    else:
        generators, order = signed_symmetries(J, h, x, z)
    if order == 1:
        return None
    term_flips = _term_flips(n, driver_sign, offsets)
    # 8 bytes a state in each of: the generators' images, 9 working arrays
    # (tracemalloc: at most 8 at 8-16 qubits) and a table and its weights
    # per flip
    need = (8 << n) * (len(generators) + 9 + 2 * sum(map(len, term_flips)))
    with _memory_gate(need, f"{n} qubits in the orbits of {len(generators)} symmetries"):
        labels = orbit_labels(n, generators)
        reps, orbit, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        phase = (1.0 - 2.0 * (_parities(np.arange(1 << n), n) ^ _parities(labels, n))
                 if driver_sign == 1 else np.ones(1 << n))
        root_sizes = np.sqrt(sizes)
        dim = reps.size
        index = np.arange(dim)

        def restrict(mask: int, w: float):
            targets = reps ^ mask
            table = orbit[targets]
            weights = w * phase[targets] * (root_sizes / root_sizes[table])
            if dim & (dim - 1) == 0 and np.array_equal(table, index ^ table[0]) and (
                    weights == weights[0]).all():
                return int(table[0]), float(weights[0])
            table.setflags(write=False)
            weights.setflags(write=False)
            return table, weights

        flips = [[restrict(mask, w) for mask, w in term] for term in term_flips]
    parity = None if h.any() or z.any() else 1 if driver_sign == -1 else (-1) ** n
    space = _OrbitSpace(order, parity, reps, orbit, phase, root_sizes, flips)
    for a in (reps, orbit, phase, root_sizes):
        a.setflags(write=False)
    return space


class _BaseOperators:
    """The fixed real operators whose weighted sum is ``H(s)``.

    They are the driver ``sign * sum_k X_k``, the Ising part ``diag(E)`` and,
    when an offset is nonzero, the constant field ``sum_k x_k X_k + z_k Z_k``,
    weighted by ``A(s)``, ``B(s)`` and 1.  Each is held as a list of flips
    plus a diagonal or None.  A flip is ``(mask, w)``, ``w`` times the
    operator that flips every bit set in ``mask``, or a gather
    ``(table, weights)``, the operator ``psi -> weights * psi[table]``.
    Their weighted sums are formed dense (:meth:`dense`), or they are applied
    to vectors: each base to a block (:meth:`apply`), or each to its own
    vector, summed (:meth:`apply_sum`).

    ``model`` gives the terms the symmetries are found from
    (:mod:`annealsim.symmetry`); ``diagonal`` is its Ising diagonal.  On the
    full space ``space`` is None; :meth:`run_space` gives the same bases on
    the orbit space (:class:`_OrbitSpace`) of the model's symmetry group that
    holds the start state, where the group is not trivial.
    """

    def __init__(self, model: IsingModel, driver_sign: int, diagonal: np.ndarray,
                 offsets: FieldOffsets | None):
        self.model = model
        self.n_qubits = n = model.n_qubits
        self.driver_sign = driver_sign
        self.offsets = offsets if offsets is not None and offsets.any_nonzero() else None
        self.space: _OrbitSpace | None = None
        self.dim = 1 << n
        diagonals = [None, diagonal]
        if self.offsets is not None:
            diagonals.append(_spin_table(n) @ np.asarray(offsets.z))
        self.terms: list[tuple[list, np.ndarray | None]] = list(
            zip(_term_flips(n, driver_sign, self.offsets), diagonals))
        self.count = len(self.terms)

    @property
    def parity(self) -> int | None:
        """The start state's eigenvalue of the global spin flip, where the
        space is an orbit space of a group that holds it, else None."""
        return None if self.space is None else self.space.parity

    @property
    def gathers(self) -> bool:
        """Whether a flip of these bases is a gather."""
        return any(not isinstance(target, int) for flips, _ in self.terms for target, _ in flips)

    @property
    def symmetry_order(self) -> int:
        return 1 if self.space is None else self.space.order

    def run_space(self, flip_only: bool = False) -> "_BaseOperators":
        """The bases a run propagates on: these restricted to the orbit
        space of the model's symmetry group, or of its subgroup of the
        global flip where ``flip_only``, or these where that is trivial.
        A diagonal takes each orbit's entry at its smallest member."""
        space = _orbit_space(tuple(self.model.terms.items()), self.n_qubits, self.offsets,
                             self.driver_sign, flip_only)
        if space is None:
            return self
        out = copy.copy(self)
        out.space, out.dim = space, space.reps.size
        out.terms = [(flips, None if diagonal is None else diagonal[space.reps])
                     for flips, (_, diagonal) in zip(space.flips, self.terms)]
        return out

    def start_state(self) -> np.ndarray:
        """The driver's ground state on this space: all-minus (the product of
        the spins) under driver sign +1, else all-plus.  Orbit state ``r``
        holds ``1 / sqrt|O_r|`` of each member, so it takes ``sqrt|O_r|``
        times the amplitude of its smallest member."""
        states = np.arange(self.dim) if self.space is None else self.space.reps
        spins = (1.0 - 2.0 * _parities(states, self.n_qubits) if self.driver_sign == 1
                 else np.ones(self.dim))
        psi = spins.astype(complex) / math.sqrt(1 << self.n_qubits)
        return psi if self.space is None else psi * self.space.root_sizes

    def lift(self, psi: np.ndarray) -> np.ndarray:
        """A state on this space as its ``2**n_qubits`` amplitudes."""
        if self.space is None:
            return psi
        orbit = self.space.orbit
        return psi[orbit] * self.space.phase / self.space.root_sizes[orbit]

    def envelopes(self, schedule, s: np.ndarray) -> np.ndarray:
        """Weights ``(s.size, count)`` of the bases at every point of ``s``."""
        out = np.ones((s.size, self.count))
        out[:, 0] = _eval_envelope(schedule.A, s)
        out[:, 1] = _eval_envelope(schedule.B, s)
        return out

    def dense(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Planes ``sum_b weights[k, b] B_b`` (real or complex), by default
        the bases themselves, filled in place by one indexed add per flip,
        gather and diagonal over every plane where its base weighs, so that
        no other dim x dim array is made.  Each of them meets a row in one
        entry; where two meet in one entry they add up: on two qubits both
        driver flips of a flip sector flip its one bit."""
        stack = weights is None
        weights = np.eye(self.count) if stack else weights
        out = np.zeros((len(weights), self.dim, self.dim), np.result_type(weights, float))
        flat = out.reshape(len(weights), -1)
        rows = np.arange(self.dim)
        for b, (flips, diagonal) in enumerate(self.terms):
            planes = np.array([b]) if stack else np.flatnonzero(weights[:, b])
            adds = [(rows * self.dim + (rows ^ target if isinstance(target, int) else target), w)
                    for target, w in flips]
            if diagonal is not None:
                adds.append((rows * (self.dim + 1), diagonal))
            if planes.size == 1:  # through a view of the plane, the faster index
                plane, c = flat[planes[0]], weights[planes[0], b]
                for index, values in adds:
                    plane[index] += c * values
            else:
                c = weights[planes, b][:, None]
                for index, values in adds:
                    flat[planes[:, None], index] += c * values
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
        the axes of the bits in its mask; a gather indexes the last axis.
        """
        flips, diagonal = self.terms[a]
        if add:
            if diagonal is not None:
                out += src * diagonal
        elif diagonal is None:
            out[...] = 0.0
        else:
            np.multiply(src, diagonal, out=out)
        if self.dim & (self.dim - 1) == 0:
            shape = src.shape[:-1] + (2,) * (self.dim.bit_length() - 1)
            bits, out_bits = src.reshape(shape), out.reshape(shape)
        for target, w in flips:
            if not isinstance(target, int):
                out += w * src[..., target]
            elif w == 1.0:
                out_bits += bits[_flip_index(target)]
            elif w == -1.0:
                out_bits -= bits[_flip_index(target)]
            else:
                out_bits += w * bits[_flip_index(target)]


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
    bases = _BaseOperators(model, schedule.driver_sign, ising_diagonal(model), offsets)
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

    bases = _BaseOperators(model, schedule.driver_sign, ising_diagonal(model), offsets)
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
