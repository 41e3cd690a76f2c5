"""Magnus-expansion propagator and simulation drivers.

The evolution ``d rho / ds = -i tau [H(s), rho]`` over ``s in [0, 1]`` is
split into steps, uniform between the schedule's kinks.  On each step the
envelopes ``A`` and ``B`` are replaced by their local quadratic fits,
turning the step generator into a degree-2 matrix polynomial
``P(u) = C0 + C1 u + C2 u**2`` in the unit step variable, with the factor
``-i tau ds`` absorbed into the coefficients.  All the nested integrals of
the Magnus series are then evaluated in closed form by polynomial algebra on
the coefficient matrices; numerical quadrature never enters the propagator.

Every order runs through one batched engine, whose series weights come from
the Bernoulli-number recursion run once on symbols (:func:`_series_weights`).
:func:`omega_explicit4` (the first four terms from their explicit
iterated-integral form, in exact rational weights) and :func:`omega_recursive`
(the recursion on matrix polynomials) stay as independent references;
cross-agreement of the paths on random inputs is the main correctness gate of
the package, see the test suite.

Each step generator weighs the base operators of
:class:`annealsim.hamiltonian._BaseOperators` by the fitted envelopes, on the
orbit space of the model's signed-permutation symmetries that holds the start
state (the full space where there are none).  One loop propagates the state
vector step by step (:meth:`_Engine.propagate`).  Below a space of 128
states each step applies ``exp(Omega) = V exp(-i Lambda) V*`` from the
eigendecomposition of the Hermitian matrix ``i * Omega``, built from the
dense bases; from 128 on ``exp(Omega) psi`` is computed by Lanczos from the
bases applied to vectors, without any ``dim x dim`` matrix.
Dense steps are unitary to roundoff, so the state stays physical even at
grossly insufficient step counts; the Krylov path refuses a step too wide for
Lanczos to resolve, and :func:`simulate` skips that level.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import product as _iterproduct
from typing import Any

import numpy as np

from .errors import ConvergenceError, NumericalError, SolverConfigError
from .hamiltonian import (
    FieldOffsets,
    _BaseOperators,
    _memory_gate,
    _prepare,
    ising_diagonal,
)
from .schedule import AnnealingSchedule, _unit_quadratic

MAX_ORDER = 8

# B_0 .. B_7 with the convention B_1 = -1/2; the sign is pinned empirically
# by the agreement test against the explicit fourth-order terms.
_BERNOULLI = (
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
)


# ---------------------------------------------------------------------------
# matrix polynomials


class MatrixPolynomial:
    """Matrix-valued polynomial in one scalar variable.

    ``coefficients[m]`` multiplies ``u**m``.  The algebra needed by the
    Magnus recursion (sums, commutators, antiderivatives) is closed over this
    representation, so nested time-ordered integrals reduce to exact
    coefficient manipulations.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[np.ndarray]):
        coeffs = [np.asarray(c, dtype=complex) for c in coefficients]
        if not coeffs:
            raise ValueError("a matrix polynomial needs at least one coefficient")
        shape = coeffs[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"coefficients must be square matrices, got shape {shape}")
        if any(c.shape != shape for c in coeffs):
            raise ValueError("all coefficients must have the same shape")
        while len(coeffs) > 1 and not coeffs[-1].any():
            coeffs.pop()
        self.coefficients = coeffs

    @property
    def dim(self) -> int:
        return self.coefficients[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, u: float) -> np.ndarray:
        out = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            out = out * u + c
        return np.array(out)

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = [c.copy() for c in a]
        for m, c in enumerate(b):
            out[m] += c
        return MatrixPolynomial(out)

    def scaled(self, factor: complex) -> "MatrixPolynomial":
        return MatrixPolynomial([factor * c for c in self.coefficients])

    def commutator(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        """Pointwise commutator; degree is the sum of the degrees."""
        dim = self.dim
        out = [
            np.zeros((dim, dim), dtype=complex)
            for _ in range(self.degree + other.degree + 1)
        ]
        for i, a in enumerate(self.coefficients):
            if not a.any():
                continue
            for j, b in enumerate(other.coefficients):
                if not b.any():
                    continue
                out[i + j] += a @ b - b @ a
        return MatrixPolynomial(out)

    def antiderivative(self) -> "MatrixPolynomial":
        """Antiderivative vanishing at 0."""
        out = [np.zeros_like(self.coefficients[0])]
        out.extend(c / (m + 1.0) for m, c in enumerate(self.coefficients))
        return MatrixPolynomial(out)


@dataclass(frozen=True, eq=False)
class OmegaTerm:
    """One term of the Magnus series evaluated at the end of a unit step."""

    order: int
    matrix: np.ndarray


def omega_total(terms: Sequence[OmegaTerm]) -> np.ndarray:
    """Sum of a list of series terms."""
    total = terms[0].matrix.copy()
    for term in terms[1:]:
        total += term.matrix
    return total


# ---------------------------------------------------------------------------
# explicit first-four-terms path
#
# Each term is an iterated integral over the ordered simplex
# 1 > u_1 > ... > u_k > 0 of nested commutators of P evaluated at the u_i.
# Expanding the commutators into signed products and the polynomial P into
# monomials reduces every term to a rational weight on an ordered product
# of coefficient matrices.  Those weights depend only on the polynomial
# degree, so they are computed once with exact arithmetic.


def _simplex_monomial_integral(exponents: Sequence[int]) -> Fraction:
    # integral of prod_j u_j**a_j over 1 > u_1 > ... > u_m > 0
    total = 0
    value = Fraction(1)
    for a in reversed(exponents):
        total += a + 1
        value /= total
    return value


def _com_words(u: dict, v: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for wa, ca in u.items():
        for wb, cb in v.items():
            c = ca * cb
            ab = wa + wb
            ba = wb + wa
            out[ab] = out.get(ab, 0) + c
            out[ba] = out.get(ba, 0) - c
    return {w: c for w, c in out.items() if c}


def _merge_words(*dicts: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for d in dicts:
        for w, c in d.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _nested_integrand(k: int) -> dict:
    # signed products of generator evaluations, keyed by the tuple of time
    # labels in matrix-product order
    def atom(i: int) -> dict:
        return {(i,): 1}

    if k == 2:
        return _com_words(atom(1), atom(2))
    if k == 3:
        return _merge_words(
            _com_words(atom(1), _com_words(atom(2), atom(3))),
            _com_words(atom(3), _com_words(atom(2), atom(1))),
        )
    if k == 4:
        return _merge_words(
            _com_words(_com_words(_com_words(atom(1), atom(2)), atom(3)), atom(4)),
            _com_words(atom(1), _com_words(_com_words(atom(2), atom(3)), atom(4))),
            _com_words(atom(1), _com_words(atom(2), _com_words(atom(3), atom(4)))),
            _com_words(atom(2), _com_words(atom(3), _com_words(atom(4), atom(1)))),
        )
    raise ValueError(f"no explicit integrand for order {k}")


_EXPLICIT_PREFACTOR = {2: Fraction(1, 2), 3: Fraction(1, 6), 4: Fraction(1, 12)}


@cache
def _omega_weight_table(k: int, degree: int = 2) -> dict[tuple[int, ...], float]:
    """Weights of ordered coefficient products in the k-th series term."""
    if k == 1:
        return {(d,): 1.0 / (d + 1) for d in range(degree + 1)}
    table: dict[tuple[int, ...], Fraction] = {}
    prefactor = _EXPLICIT_PREFACTOR[k]
    for labels, sign in _nested_integrand(k).items():
        for degs in _iterproduct(range(degree + 1), repeat=k):
            exponents = [0] * k
            for pos, t in enumerate(labels):
                exponents[t - 1] = degs[pos]
            weight = sign * prefactor * _simplex_monomial_integral(exponents)
            if weight:
                table[degs] = table.get(degs, Fraction(0)) + weight
    return {w: float(c) for w, c in table.items() if c != 0}


def omega_explicit4(poly: MatrixPolynomial, upto: int = 4) -> list[OmegaTerm]:
    """First series terms from their explicit iterated-integral form.

    Specialized to quadratic generators; the weights of the coefficient
    products are exact rationals computed once per order.
    """
    if poly.degree > 2:
        raise SolverConfigError(
            f"explicit path supports polynomial degree <= 2, got {poly.degree}"
        )
    if not 1 <= upto <= 4:
        raise SolverConfigError(f"explicit path computes orders 1..4, got {upto}")
    dim = poly.dim
    zero = np.zeros((dim, dim), dtype=complex)
    coeffs = list(poly.coefficients) + [zero] * (3 - len(poly.coefficients))

    products: dict[tuple[int, ...], np.ndarray] = {}

    def product_of(word: tuple[int, ...]) -> np.ndarray:
        cached = products.get(word)
        if cached is None:
            if len(word) == 1:
                cached = coeffs[word[0]]
            else:
                cached = product_of(word[:-1]) @ coeffs[word[-1]]
            products[word] = cached
        return cached

    terms = []
    for k in range(1, upto + 1):
        total = np.zeros((dim, dim), dtype=complex)
        for word, weight in _omega_weight_table(k).items():
            total += weight * product_of(word)
        terms.append(OmegaTerm(order=k, matrix=total))
    return terms


# ---------------------------------------------------------------------------
# generic recursive path


def omega_recursive(poly: MatrixPolynomial, k: int) -> list[OmegaTerm]:
    """Series terms 1..k via the Bernoulli-number recursion.

    The recursion is carried out on matrix polynomials, so every integral is
    again exact.  The term count grows combinatorially with ``k``; orders
    above 8 are rejected.
    """
    if not 1 <= k <= MAX_ORDER:
        raise SolverConfigError(f"order must be in [1, {MAX_ORDER}], got {k}")
    omegas: list[MatrixPolynomial] = [poly.antiderivative()]
    s_table: dict[tuple[int, int], MatrixPolynomial] = {}
    for m in range(2, k + 1):
        s_table[(m, 1)] = omegas[m - 2].commutator(poly)
        for j in range(2, m):
            acc: MatrixPolynomial | None = None
            for l in range(1, m - j + 1):
                part = omegas[l - 1].commutator(s_table[(m - l, j - 1)])
                acc = part if acc is None else acc + part
            s_table[(m, j)] = acc
        integrand: MatrixPolynomial | None = None
        for j in range(1, m):
            b = _BERNOULLI[j]
            if b == 0:
                continue
            part = s_table[(m, j)].scaled(float(b) / math.factorial(j))
            integrand = part if integrand is None else integrand + part
        omegas.append(integrand.antiderivative())
    return [OmegaTerm(order=i + 1, matrix=p(1.0)) for i, p in enumerate(omegas)]


# ---------------------------------------------------------------------------
# series weights for the batched engine
#
# The recursion of omega_recursive run once on symbols: a word polynomial of
# length m is an array of shape (3**m, width) whose entry [w, p] weighs
# u**p * C_{w_1} ... C_{w_m}, the word w in the fit degrees read as a base-3
# number, first letter most significant.  P(u) itself is the identity.


def _word_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] of word polynomials: concatenated words, convolved powers."""
    width = a.shape[1] + b.shape[1] - 1
    prod = np.zeros((a.shape[0], b.shape[0], width))
    for i in range(a.shape[1]):
        prod[:, :, i : i + b.shape[1]] += a[:, None, i, None] * b[None, :, :]
    # word (w_a, w_b) minus word (w_b, w_a)
    return prod.reshape(-1, width) - prod.transpose(1, 0, 2).reshape(-1, width)


def _word_antiderivative(a: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], a.shape[1] + 1))
    out[:, 1:] = a / np.arange(1, a.shape[1] + 1)
    return out


@cache
def _series_weights(order: int) -> tuple[np.ndarray, ...]:
    """Weights of the ordered coefficient products in terms 1..order, shapes (3,)*k."""
    poly = np.eye(3)
    omegas = [_word_antiderivative(poly)]
    s_table: dict[tuple[int, int], np.ndarray] = {}
    for m in range(2, order + 1):
        s_table[(m, 1)] = _word_commutator(omegas[m - 2], poly)
        for j in range(2, m):
            s_table[(m, j)] = sum(_word_commutator(omegas[l - 1], s_table[(m - l, j - 1)])
                                  for l in range(1, m - j + 1))
        integrand = sum(float(_BERNOULLI[j]) / math.factorial(j) * s_table[(m, j)]
                        for j in range(1, m))
        omegas.append(_word_antiderivative(integrand))
    tables = tuple(w.sum(axis=1).reshape((3,) * k) for k, w in enumerate(omegas, 1))
    for table in tables:
        table.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# exponentiation


def _eigh_antihermitian(omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of ``i * Omega``, symmetrized so that eigh sees an exactly
    Hermitian input; overwrites ``omegas``."""
    omegas -= np.conj(np.swapaxes(omegas, -1, -2))
    omegas *= 0.5j
    return np.linalg.eigh(omegas)


def exponentiate_omega(omega: np.ndarray) -> np.ndarray:
    """Unitary ``exp(Omega)`` of an anti-Hermitian matrix.

    ``i * Omega`` is Hermitian, so the exponential comes from its
    eigendecomposition and is unitary to roundoff by construction.
    """
    omega = np.array(omega, dtype=complex)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {omega.shape}")
    defect = np.abs(omega + omega.conj().T).max()
    scale = max(1.0, np.abs(omega).max())
    if defect > 1e-10 * scale:
        raise NumericalError(
            f"matrix is not anti-Hermitian: defect {defect:.3e} exceeds 1.0e-10 * {scale:.3e}"
        )
    eigvals, eigvecs = _eigh_antihermitian(omega)
    return (eigvecs * np.exp(-1j * eigvals)) @ eigvecs.conj().T


# ---------------------------------------------------------------------------
# error metrics


def _check_same_shape(rho: np.ndarray, rho_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho = np.asarray(rho)
    rho_hat = np.asarray(rho_hat)
    if rho.shape != rho_hat.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {rho_hat.shape}")
    return rho, rho_hat


# entries of |rho - rho_hat| formed at once when two state vectors are
# compared.  Blocks of megabytes are fresh mappings on every call, whose page
# faults cost more than the arithmetic (error_max on one core, 1 << 15
# against 1 << 18 entries: 1.5 against 3.8 ms at dim 512, 72 against 96 ms
# at dim 4096)
_COMPARE_BLOCK = 1 << 15


def _abs_differences(rho: np.ndarray, rho_hat: np.ndarray):
    """|rho - rho_hat| in blocks of rows, and the number of entries in all.

    Two state vectors stand for their density matrices ``psi psi^*``, whose
    rows are formed a block at a time, so memory stays O(dim).
    """
    rho, rho_hat = _check_same_shape(rho, rho_hat)
    if rho.ndim != 1:
        return [np.abs(rho - rho_hat)], rho.size
    dim = rho.size
    rows = max(1, _COMPARE_BLOCK // dim)
    conj, conj_hat = rho.conj(), rho_hat.conj()
    blocks = (np.abs(np.multiply.outer(rho[lo : lo + rows], conj)
                     - np.multiply.outer(rho_hat[lo : lo + rows], conj_hat))
              for lo in range(0, dim, rows))
    return blocks, dim * dim


def error_max(rho: np.ndarray, rho_hat: np.ndarray) -> float:
    """Largest element-wise absolute difference.

    Takes two density matrices, or two state vectors, which are compared as
    their density matrices without forming them.
    """
    blocks, _ = _abs_differences(rho, rho_hat)
    return float(max(block.max() for block in blocks))


def error_mean(rho: np.ndarray, rho_hat: np.ndarray) -> float:
    """Element-wise absolute difference averaged over all matrix entries.

    Takes two density matrices or two state vectors, like :func:`error_max`.
    """
    blocks, size = _abs_differences(rho, rho_hat)
    return float(sum(block.sum() for block in blocks) / size)


# ---------------------------------------------------------------------------
# results and configuration


@dataclass(frozen=True)
class SolverConfig:
    """Propagation settings: series order plus fixed or adaptive stepping.

    ``order`` is the number of Magnus series terms kept.  One term gives a
    second-order method (global error O(h^2)); two or more terms give
    fourth order, the cap set by the quadratic envelope fit on each step.
    ``n_steps`` set means a single fixed-resolution run; otherwise the run
    starts at ``initial_steps`` and halves every step until two successive
    results agree within both element-wise tolerances.
    """

    order: int = 4
    n_steps: int | None = None
    initial_steps: int = 2
    mean_tol: float = 1e-8
    max_tol: float = 1e-6
    max_doublings: int = 24

    def __post_init__(self):
        for name in ("order", "n_steps", "initial_steps", "max_doublings"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer, type(None))):
                raise SolverConfigError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.order <= MAX_ORDER:
            raise SolverConfigError(f"order must be in [1, {MAX_ORDER}], got {self.order}")
        if self.n_steps is not None and self.n_steps < 1:
            raise SolverConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.initial_steps < 1:
            raise SolverConfigError(f"initial_steps must be >= 1, got {self.initial_steps}")
        if not (self.mean_tol > 0 and self.max_tol > 0):
            raise SolverConfigError("tolerances must be positive")
        if self.max_doublings < 0:
            raise SolverConfigError("max_doublings must be >= 0")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Final state with measurement probabilities and solver metadata.

    ``state`` is the final state vector, on every path.  ``rho`` is formed
    from it on first read, so a run too large for a ``dim x dim`` matrix
    never builds one unless asked to.
    """

    state: np.ndarray
    probabilities: np.ndarray
    steps_used: int
    order: int
    convergence_trace: list[tuple[int, float, float]] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    @cached_property
    def rho(self) -> np.ndarray:
        """Final density matrix."""
        return np.outer(self.state, self.state.conj())


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One entry of an evolution-time sweep; ``result`` is None on failure."""

    tau: float
    result: SimulationResult | None = None
    error: str | None = None


# ---------------------------------------------------------------------------
# step engines

_CHUNK_ELEMENTS = 1 << 21  # per-chunk working-set bound (matrix elements)
# complex arrays of a chunk's size alive at once while a dense chunk advances
# (measured with ru_maxrss: 2.0-2.3 at 3-8 qubits)
_CHUNK_ARRAYS = 3

# From a space of 1 << _KRYLOV_MIN_BITS states on (2**n on the full space,
# the orbit count on an orbit space), steps act on the state vector by
# Lanczos; below it the dense engine is faster.  Adaptive order-4 runs on one
# core, dense against Krylov: 4-10x faster at 64 states, even at 128 (0.81 /
# 0.79 s), 4x slower at 256 (4.65 / 1.13 s).
_KRYLOV_MIN_BITS = 7
# Lanczos stops once its a-posteriori error estimate, relative to the norm of
# the state, is below _KRYLOV_TOL.  A step that needs more than
# _KRYLOV_MAX_DIM vectors has a spectrum too wide for the truncated series to
# be accurate on it, so it is refused; step doubling resolves it instead.
_KRYLOV_TOL = 1e-15
_KRYLOV_MAX_DIM = 64


class _WideStepError(NumericalError):
    """A step too wide for the Krylov path; more steps resolve it."""


def _segments(n_steps: int, kinks: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Segment bounds of [0, 1] at the kinks, and the step count of each at level 0."""
    q = np.asarray(kinks, dtype=float)
    points = np.sort(np.concatenate([[0.0, 1.0], q[(q > 0.0) & (q < 1.0)]]))
    bounds = points[np.concatenate([[True], np.diff(points) > 1e-12])]
    bounds[-1] = 1.0
    counts = np.maximum(1, np.ceil(n_steps * (np.diff(bounds) - 1e-12))).astype(np.int64)
    return bounds, counts


def _step_grid(n_steps: int, kinks: Sequence[float], level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Step starts and widths: [0, 1] split at the kinks, each piece uniform.

    Kinks outside (0, 1) are dropped, and a kink within 1e-12 of the one
    before it (or of 0 or 1) merges into it.  A segment of width ``w`` gets
    ``max(1, ceil(n_steps * w)) * 2**level`` steps, a width within 1e-12 of
    a multiple of ``1 / n_steps`` counting as that multiple; so each level
    halves every step of the one before, and no step straddles a kink.
    Without kinks the edges are ``np.linspace(0, 1, n_steps * 2**level + 1)``.
    """
    bounds, base = _segments(n_steps, kinks)
    widths = np.diff(bounds)
    counts = base << level
    # the k-th step of a segment starts at k * (width / count) past its start,
    # the same arithmetic as np.linspace
    first = np.cumsum(counts) - counts
    k = np.arange(int(counts.sum())) - np.repeat(first, counts)
    starts = np.repeat(bounds[:-1], counts) + k * np.repeat(widths / counts, counts)
    return starts, np.diff(np.append(starts, 1.0))


def _fit_steps(bases: _BaseOperators, schedule: AnnealingSchedule, starts: np.ndarray,
               widths: np.ndarray, tau: float) -> np.ndarray:
    """Per-step coefficients c[m, degree, base] of the step generators."""
    nodes = np.concatenate([starts, starts + 0.5 * widths, starts + widths])
    values = bases.envelopes(schedule, nodes).reshape(3, starts.size, bases.count)
    scale = ((-1j * tau) * widths)[:, None]
    return np.stack([scale * coeff for coeff in _unit_quadratic(*values)], axis=1)


def _word_count(n_bases: int, order: int) -> int:
    return sum(n_bases**k for k in range(1, order + 1))


def _chunk_steps(step_elements: int, order: int) -> int:
    """Steps per chunk; it bounds both the per-step arrays and the weights."""
    return max(1, min(_CHUNK_ELEMENTS // max(step_elements, _word_count(3, order)), 1 << 16))


def _engine_bytes(dim: int, n_bases: int, order: int, steps: int) -> tuple[int, int]:
    """Bytes of the product cache (bases included) and of a run's largest
    chunk, on a space of dimension ``dim``."""
    dim2 = dim * dim
    cache = _word_count(n_bases, order) * dim2 * 8
    return cache, _CHUNK_ARRAYS * 16 * min(steps, _chunk_steps(dim2, order)) * dim2


def _trie_rows(n_bases: int, order: int) -> tuple[int, int]:
    """Rows of the two buffers of the Krylov trie: levels 1 .. order - 1
    alternate between them, the widest, ``n_bases**(order - 1)``, in the first."""
    return tuple(n_bases**j if j >= 1 else 0 for j in (order - 1, order - 2))


def _krylov_bytes(dim: int, n_bases: int, order: int) -> int:
    """Bytes of the Krylov path on a space of dimension ``dim``: the Lanczos
    basis, two work vectors, one vector per base for the first-letter sums
    ``u_a`` and the two trie buffers."""
    vectors = _KRYLOV_MAX_DIM + 3 + n_bases + sum(_trie_rows(n_bases, order))
    return 16 * vectors * dim


def _word_weights(c: np.ndarray, order: int) -> np.ndarray:
    """Per-step weights of the base-operator words in series terms 1..order.

    ``c[m, degree, base]`` are the fit coefficients of step ``m``.  Column
    ``w`` weighs the product ``B_{x_1} ... B_{x_k}``; words are grouped by
    length, and within a length ``x_1`` is the most significant digit.
    """
    count, _, nb = c.shape
    flats = []
    for k, table in enumerate(_series_weights(order), 1):
        # contract the weight tensor against c one degree index at a time:
        # r[m, x_1..x_j, d_{j+1}..d_k] stored as (m, nb**j, 3**(k-j))
        r = np.tensordot(c, table.reshape(3, -1), axes=(1, 0))
        for j in range(2, k + 1):
            p = nb ** (j - 1)
            q = 3 ** (k - j)
            r = np.einsum("mpdq,mdx->mpxq", r.reshape(count, p, 3, q), c)
        flats.append(r.reshape(count, nb**k))
    return np.concatenate(flats, axis=1)


class _Engine:
    """The propagation loop of both step engines, with the step fits.

    The step generator is a linear combination of a handful of fixed base
    operators (driver, Ising diagonal, optional offsets) with per-step
    scalar coefficients, so each series term is a weighted sum of products
    of base operators (:func:`_word_weights`).  An engine supplies how a
    chunk of those weights advances the state.

    ``bases`` is the run's space (:meth:`_BaseOperators.run_space`); it gives
    the start state and lifts the final state to the full space.
    """

    propagator = ""
    step_elements = 0

    def __init__(self, bases: _BaseOperators, schedule: AnnealingSchedule, order: int):
        self.bases = bases
        self.schedule = schedule
        self.order = order
        self.dim = bases.dim

    def weights(self, starts: np.ndarray, widths: np.ndarray, tau: float) -> np.ndarray:
        """Word weights (steps, words) of the generators of a batch of steps."""
        c = _fit_steps(self.bases, self.schedule, starts, widths, tau)
        return _word_weights(c, self.order)

    def propagate(self, starts: np.ndarray, widths: np.ndarray, tau: float) -> np.ndarray:
        """Final state on the full space: the start state advanced through
        every step, a chunk at a time."""
        psi = self.bases.start_state()
        chunk = _chunk_steps(self.step_elements, self.order)
        for lo in range(0, starts.size, chunk):
            weights = self.weights(starts[lo : lo + chunk], widths[lo : lo + chunk], tau)
            finite = np.isfinite(weights).all(axis=1)
            if not finite.all():
                bad = lo + int(np.argmin(finite))
                raise NumericalError(f"non-finite step generator at step index {bad}")
            psi = self.advance(weights, psi)
        return self.bases.lift(psi)

    def diagnostics(self) -> dict[str, Any]:
        out: dict[str, Any] = {"propagator": self.propagator,
                               "symmetry_order": self.bases.symmetry_order,
                               "space_dim": self.dim}
        if self.bases.parity is not None:
            out["flip_sector"] = self.bases.parity
        return out


class _StepEngine(_Engine):
    """Dense steps: cached base products, batched generators and eigh.

    Products of up to ``order`` base operators are cached, which turns a
    whole chunk of steps into one matrix product plus one batched
    eigendecomposition; each step then acts on the state vector, and no
    product of step unitaries is formed.  Used on spaces of fewer than
    ``1 << _KRYLOV_MIN_BITS`` states and as the reference for the Krylov path.
    """

    propagator = "dense"

    def __init__(self, bases: _BaseOperators, schedule: AnnealingSchedule, order: int = 4):
        super().__init__(bases, schedule, order)
        nb, dim = self.bases.count, self.dim
        self.step_elements = dim * dim
        # all base-word products of length 1..order, grouped by length; the
        # bases lead, and each product one longer is one of the last length
        # times a base
        products = np.empty((_word_count(nb, order), dim, dim))
        bases = products[:nb]
        bases[...] = self.bases.dense()
        for length in range(1, order):
            lo, hi = _word_count(nb, length - 1), _word_count(nb, length)
            np.matmul(products[lo:hi, None], bases[None],
                      out=products[hi : hi + (hi - lo) * nb].reshape(hi - lo, nb, dim, dim))
        self.products = products.reshape(-1, dim * dim)

    def generators(self, weights: np.ndarray) -> np.ndarray:
        """Step generators (steps, dim, dim) from their complex word weights,
        by one real product, so the cached products are never made complex."""
        re_im = np.concatenate([weights.real, weights.imag]) @ self.products
        out = np.empty((weights.shape[0], self.dim, self.dim), dtype=complex)
        out.real, out.imag = re_im.reshape((2,) + out.shape)
        return out

    def advance(self, weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """psi through each step as ``V (exp(-i lambda) (V* psi))``."""
        eigvals, eigvecs = _eigh_antihermitian(self.generators(weights))
        # the phases folded into V once per chunk, so a step is two matvecs
        phased = eigvecs * np.exp(-1j * eigvals)[:, None, :]
        np.conjugate(eigvecs, out=eigvecs)
        for conj_v, v_phased in zip(eigvecs, phased):
            psi = v_phased @ (psi @ conj_v)
        return psi


class _KrylovEngine(_Engine):
    """Matrix-free steps on the state vector; no dim x dim array is formed.

    ``Omega v`` comes from the base operators alone, applied as bit flips and
    diagonals (:meth:`_BaseOperators.apply`).  Every word of length two or
    more is a first letter ``a`` times a shorter word ``r``, so
    ``Omega v = sum_a B_a u_a`` with ``u_a = w[a] v + sum_r w[a r] B_r v``
    (Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 9 (2000) 215).
    The ``B_r v`` are formed from right to left through a trie of word
    lengths 1 to ``order - 1``, each word one base application on top of its
    suffix, and each level is added into the ``u_a`` as soon as it is formed;
    then each base is applied once, to its ``u_a``.  ``exp(Omega) psi`` comes from
    Lanczos on the Hermitian ``i Omega`` with an a-posteriori stopping test
    (Park & Light, J. Chem. Phys. 85 (1986) 5870; Hochbruck & Lubich, SIAM
    J. Numer. Anal. 34 (1997) 1911).
    """

    propagator = "krylov"

    def __init__(self, bases: _BaseOperators, schedule: AnnealingSchedule, order: int = 4):
        super().__init__(bases, schedule, order)
        nb = self.bases.count
        # trie level j lives in buffer (order - 1 - j) % 2
        self._levels = tuple(np.empty((rows, self.dim), dtype=complex)
                             for rows in _trie_rows(nb, order))
        self._u = np.empty((nb, self.dim), dtype=complex)
        self._basis = np.empty((_KRYLOV_MAX_DIM + 1, self.dim), dtype=complex)
        self._w = np.empty(self.dim, dtype=complex)
        self.max_krylov_dim = 0

    def apply_omega(self, weights: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = sum over words w of weights[w] * B_w v, grouped by first letter."""
        nb = self.bases.count
        u = self._u
        np.multiply.outer(weights[:nb], v, out=u)
        level = v[None]
        start = nb
        for j in range(1, self.order):
            suffixes = level
            level = self._levels[(self.order - 1 - j) % 2][: nb**j]
            self.bases.apply(suffixes, level)
            # the words of length j + 1, row a holding those that start with a
            rows = nb ** (j + 1)
            u += weights[start : start + rows].reshape(nb, -1) @ level
            start += rows
        self.bases.apply_sum(u, out)
        return out

    def _expm(self, h_weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """exp(-i H) psi for the Hermitian H = i Omega of word weights ``h_weights``."""
        basis, w = self._basis, self._w
        cap = _KRYLOV_MAX_DIM
        alpha = np.zeros(cap)
        beta = np.zeros(cap)
        beta0 = np.linalg.norm(psi)
        if beta0 == 0.0:
            return psi.copy()
        np.divide(psi, beta0, out=basis[0])
        for j in range(cap):
            self.apply_omega(h_weights, basis[j], w)
            # full reorthogonalization against the basis so far, repeated when
            # it cancels most of w (Daniel, Gragg, Kaufman & Stewart 1976)
            size = np.linalg.norm(w)
            coeffs = (basis[: j + 1] @ w.conj()).conj()
            alpha[j] = coeffs[j].real
            w -= coeffs @ basis[: j + 1]
            beta[j] = np.linalg.norm(w)
            if beta[j] < 0.7 * size:
                w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
                beta[j] = np.linalg.norm(w)
            tri = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, vecs = np.linalg.eigh(tri)
            y = vecs @ (np.exp(-1j * theta) * vecs[0])
            # the residual of the Krylov approximation (Saad 1992); a basis
            # that spans the whole space makes the result exact
            if beta[j] * abs(y[j]) <= _KRYLOV_TOL or j + 1 == self.dim:
                self.max_krylov_dim = max(self.max_krylov_dim, j + 1)
                return beta0 * (y @ basis[: j + 1])
            np.divide(w, beta[j], out=basis[j + 1])
        raise _WideStepError(
            f"a step generator needs more than {cap} Lanczos vectors (spectral "
            f"half-width at least {0.5 * (theta[-1] - theta[0]):.3g}); use more steps"
        )

    def advance(self, weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """psi through each step, one Lanczos run at a time."""
        for h_weights in 1j * weights:
            psi = self._expm(h_weights, psi)
        return psi

    def diagnostics(self) -> dict[str, Any]:
        return {**super().diagnostics(), "krylov_max_dim": self.max_krylov_dim}


# ---------------------------------------------------------------------------
# public drivers


def _check_time(tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"evolution time must be finite and >= 0, got {tau}")


def _check_fixed(tau: float, n_steps: int | None, order: int = 4) -> None:
    """Arguments of a fixed-step run, where ``n_steps`` must be given."""
    if n_steps is None:
        raise SolverConfigError("a fixed-step run needs n_steps, got None")
    SolverConfig(order=order, n_steps=n_steps)
    _check_time(tau)


def build_step_polynomial(
    model,
    schedule: AnnealingSchedule,
    offsets: FieldOffsets | None,
    tau: float,
    t0: float,
    t1: float,
) -> MatrixPolynomial:
    """Step generator on ``[t0, t1]`` (in time units) as a matrix polynomial.

    The envelopes are fitted quadratically on ``[t0/tau, t1/tau]`` and
    weigh the driver, Ising and offset operators; the result is the
    generator ``-i tau ds H(u)`` in the unit step variable ``u``.  Its three
    complex coefficients are the only ``2**n x 2**n`` arrays made; where
    they would not fit in memory, :class:`SizeError` is raised.
    """
    if not 0.0 <= t0 < t1 <= tau:
        raise ValueError(f"need 0 <= t0 < t1 <= tau, got t0={t0}, t1={t1}, tau={tau}")
    model, offsets = _prepare(model, offsets)
    bases = _BaseOperators(model, schedule.driver_sign, ising_diagonal(model), offsets)
    c = _fit_steps(bases, schedule, np.array([t0 / tau]), np.array([(t1 - t0) / tau]), tau)
    with _memory_gate(48 << 2 * model.n_qubits, f"{model.n_qubits} qubits in a step polynomial"):
        return MatrixPolynomial(list(bases.dense(c[0])))


def simulate_fixed(
    model,
    tau: float,
    schedule: AnnealingSchedule,
    order: int = 4,
    n_steps: int = 1024,
    offsets: FieldOffsets | None = None,
    *,
    _level: int = 0,
) -> SimulationResult:
    """Propagate with about ``n_steps`` uniform steps, split at the kinks.

    The density matrix evolves as ``U rho U*`` with one unitary per step.
    The initial state is pure, so the state vector is propagated instead,
    which is observationally identical; the result forms the density matrix
    only when ``rho`` is read.  The schedule's kinks split [0, 1] into
    segments, and a segment of width ``w`` takes ``ceil(n_steps * w)``
    uniform steps of its own, so no step straddles a kink and
    ``steps_used`` can exceed ``n_steps``; without kinks the steps are
    exactly ``n_steps`` uniform ones.  ``_level`` halves every step that
    many times; it is the doubling level of :func:`simulate`.

    The run propagates on the orbit space of the model's symmetry group:
    the signed permutations of the qubits (a permutation, then X flips) that
    leave the couplings, fields and offsets unchanged, found once per model
    (:mod:`annealsim.symmetry`).  Both start states are eigenstates of every
    such symmetry, so the run never leaves the span of one state per orbit;
    the final state is lifted back to the full space.  On the Krylov path an
    orbit space whose flips are gathers is used only where it has at most a
    quarter of the ``2**n`` states; elsewhere the run takes the orbit space
    of the global flip alone where the group holds it, else the full space.
    ``metadata["symmetry_order"]`` is the order of the group whose orbits
    the run propagates on (1 on the full space) and
    ``metadata["space_dim"]`` the dimension propagated.  Where the group
    holds the global spin flip ``prod_k X_k``, as it does for a model with
    no field and no nonzero Z offset, ``metadata["flip_sector"]`` gives the
    start state's eigenvalue of it, +1 or -1; it is absent otherwise.  The
    path is chosen by the dimension propagated: below 128 the step unitaries
    are dense; from 128 on each step acts on the vector by Lanczos, and a
    step that needs more than 64 Lanczos vectors raises
    :class:`NumericalError`.

    ``order`` is the number of series terms kept: one term converges at
    order 2 in the step width, two or more at order 4, capped there by the
    quadratic envelope fit.

    The step grid, the engine and the orbit tables are sized before the
    grid and the engine are allocated, and a run they would not fit in the
    memory this process may use raises
    :class:`SizeError`, as does an allocation that fails anyway.
    """
    _check_fixed(tau, n_steps, order)
    model, offsets = _prepare(model, offsets)
    full = _BaseOperators(model, schedule.driver_sign, ising_diagonal(model), offsets)
    bases = full.run_space()
    # a gather costs 2-5 times a bit flip per entry, so on the Krylov path an
    # orbit space of gathers pays only where it cuts the states 4-fold;
    # elsewhere the sector of the global flip, whose flips stay bit flips
    if bases.dim >= 1 << _KRYLOV_MIN_BITS and 4 * bases.dim > full.dim and bases.gathers:
        bases = full.run_space(flip_only=True)
    # at most one step more per segment than n_steps; building the step grid
    # peaks at 32 bytes a step (tracemalloc)
    steps = (n_steps + len(schedule.kinks) + 1) << _level
    if bases.dim >= 1 << _KRYLOV_MIN_BITS:
        kind, need = _KrylovEngine, _krylov_bytes(bases.dim, bases.count, order)
    else:
        kind, need = _StepEngine, sum(_engine_bytes(bases.dim, bases.count, order, steps))
    # the orbit tables are held through the run
    tables = 0 if bases.space is None else bases.space.nbytes
    subject = f"{model.n_qubits} qubits at order {order} with {bases.count} base operators"
    with _memory_gate(need + tables + 32 * steps, subject):
        starts, widths = _step_grid(n_steps, schedule.kinks, _level)
        engine = kind(bases, schedule, order)
        psi = engine.propagate(starts, widths, tau)
    if not np.isfinite(psi).all():
        raise NumericalError("non-finite final state")
    return SimulationResult(
        state=psi,
        probabilities=(psi * psi.conj()).real,
        steps_used=int(starts.size),
        order=order,
        metadata={"tau": float(tau), "mode": "fixed", **engine.diagnostics()},
    )


def _run_level(model, tau, schedule, order, n_steps, offsets, level) -> SimulationResult | None:
    """One doubling level, or None where its steps are too wide for the Krylov path."""
    try:
        return simulate_fixed(model, tau, schedule, order=order, n_steps=n_steps,
                              offsets=offsets, _level=level)
    except _WideStepError:
        return None


def simulate(
    model,
    tau: float,
    schedule: AnnealingSchedule,
    order: int = 4,
    mean_tol: float = 1e-8,
    max_tol: float = 1e-6,
    offsets: FieldOffsets | None = None,
    initial_steps: int = 2,
    max_doublings: int = 24,
) -> SimulationResult:
    """Propagate with adaptive step doubling.

    Runs :func:`simulate_fixed` at ``n_steps=initial_steps`` and then at
    levels that each halve every step of the one before, until two
    successive final states agree within both the mean and max element-wise
    tolerances; it returns the finer result together with the full
    convergence trace, whose entries give the finer level's step count.
    Without kinks the levels take ``initial_steps, 2*initial_steps, ...``
    steps; with them each segment between kinks is refined on its own (a
    table of ``N`` rows costs ``3 (N - 1)`` steps at least).  The states are
    compared as state vectors: the entries of their density matrices are
    formed a block of rows at a time (:func:`error_max`,
    :func:`error_mean`), never as whole matrices.  Levels too coarse for the
    Krylov path are skipped, not compared.
    """
    config = SolverConfig(
        order=order,
        mean_tol=mean_tol,
        max_tol=max_tol,
        initial_steps=initial_steps,
        max_doublings=max_doublings,
    )
    trace: list[tuple[int, float, float]] = []
    n = config.initial_steps
    previous = _run_level(model, tau, schedule, order, n, offsets, 0)
    for level in range(1, config.max_doublings + 1):
        current = _run_level(model, tau, schedule, order, n, offsets, level)
        if previous is not None and current is not None:
            e_max = error_max(previous.state, current.state)
            e_mean = error_mean(previous.state, current.state)
            trace.append((current.steps_used, e_max, e_mean))
            if e_max <= config.max_tol and e_mean <= config.mean_tol:
                return replace(current, convergence_trace=trace,
                               metadata={**current.metadata, "mode": "adaptive",
                                         "mean_tol": mean_tol, "max_tol": max_tol})
        previous = current
    steps = int(_segments(n, schedule.kinks)[1].sum()) << config.max_doublings
    last = f", E_max={trace[-1][1]:.3e}, E_mean={trace[-1][2]:.3e}" if trace else ""
    raise ConvergenceError(
        f"step doubling did not converge within {config.max_doublings} doublings "
        f"(last n_steps={steps}{last})",
        trace,
    )


def simulate_sweep(
    model,
    tau_list: Sequence[float],
    schedule: AnnealingSchedule,
    config: SolverConfig | None = None,
    offsets: FieldOffsets | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Independent simulations over a list of evolution times.

    Failures are captured per point instead of aborting the sweep.  With
    ``jobs > 1`` the points run on that many threads; the points come back
    in input order either way.
    """
    taus = [float(t) for t in tau_list]
    if not taus:
        raise ValueError("tau_list must be nonempty")
    for tau in taus:
        _check_time(tau)
    config = config or SolverConfig()

    def run_one(tau: float) -> SweepPoint:
        try:
            return SweepPoint(tau=tau, result=run_config(model, tau, schedule, config, offsets))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            return SweepPoint(tau=tau, error=f"{type(exc).__name__}: {exc}")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_one, taus))
    return [run_one(tau) for tau in taus]


def run_config(
    model,
    tau: float,
    schedule: AnnealingSchedule,
    config: SolverConfig,
    offsets: FieldOffsets | None = None,
) -> SimulationResult:
    """Dispatch a single simulation according to a :class:`SolverConfig`."""
    if config.n_steps is not None:
        return simulate_fixed(
            model, tau, schedule, order=config.order, n_steps=config.n_steps, offsets=offsets
        )
    return simulate(
        model,
        tau,
        schedule,
        order=config.order,
        mean_tol=config.mean_tol,
        max_tol=config.max_tol,
        offsets=offsets,
        initial_steps=config.initial_steps,
        max_doublings=config.max_doublings,
    )


def simulate_reference_rk(
    model,
    tau: float,
    schedule: AnnealingSchedule,
    n_steps: int,
    offsets: FieldOffsets | None = None,
) -> SimulationResult:
    """Classical fixed-step RK4 on ``d psi / ds = -i tau H(s) psi``.

    An independent cross-check for the Magnus path, on the full space: it
    evaluates the schedule exactly (no quadratic fits) and applies the real
    base stack to the state, forming no complex ``dim x dim`` matrix.  The
    start state is pure, so this is also RK4 on the density-matrix equation.
    The state is normalized at the end; ``metadata["trace_drift"]`` is the
    norm drift ``| |psi|**2 - 1 |``.
    """
    _check_fixed(tau, n_steps)
    model, offsets = _prepare(model, offsets)
    bases = _BaseOperators(model, schedule.driver_sign, ising_diagonal(model), offsets)
    dim, count, chunk = bases.dim, bases.count, 1 << 12  # chunk: steps per envelope evaluation
    # RK4's Butcher tableau in sixths, times -i, on the rows (psi, w_1, .., w_4) with
    # w_k = tau h H x_k: row k - 1 forms stage k's x_k, the last row the next psi
    tableau = np.hstack([np.ones((5, 1)), (-1j / 6) * np.array(
        [[0, 0, 0, 0], [3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 6, 0], [1, 2, 2, 1]])])
    # the base stack, B_b x for every base, the stage vectors and a chunk of envelopes
    with _memory_gate(8 * (count * dim * (dim + 2) + 16 * dim + (2 * chunk + 1) * count),
                      f"{model.n_qubits} qubits at order 4 with {count} base operators"):
        operators = bases.dense().reshape(count * dim, dim)
        rows = np.vstack([bases.start_state(), np.zeros((4, dim))])
        x = np.empty(dim, dtype=complex)
        products = np.empty((count * dim, 2))  # B_b x for every base, on x's (dim, 2) reals
        x_reals, w_reals = x.view(float).reshape(dim, 2), rows.view(float)
        products_by_base = products.reshape(count, 2 * dim)
        for lo in range(0, n_steps, chunk):
            n = min(chunk, n_steps - lo)
            pts = np.linspace(lo, lo + n, 2 * n + 1) / n_steps  # step ends and midpoints
            env = (tau / n_steps) * bases.envelopes(schedule, pts)
            for i in range(0, 2 * n, 2):
                for k, e in enumerate((env[i], env[i + 1], env[i + 1], env[i + 2]), 1):
                    # np.dot: 40% less call overhead than matmul on vectors this small
                    np.dot(tableau[k - 1], rows, out=x)
                    np.dot(operators, x_reals, out=products)
                    np.dot(e, products_by_base, out=w_reals[k])
                rows[0] = np.dot(tableau[4], rows)
            if not np.isfinite(rows[0]).all():
                raise NumericalError(f"non-finite state near step index {lo + n - 1}")
    norm2 = float(np.vdot(rows[0], rows[0]).real)
    psi = rows[0] / math.sqrt(norm2)
    return SimulationResult(
        state=psi,
        probabilities=(psi * psi.conj()).real,
        steps_used=n_steps,
        order=4,
        metadata={"tau": float(tau), "mode": "rk4", "trace_drift": abs(norm2 - 1.0)},
    )
