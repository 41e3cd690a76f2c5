"""Annealing schedules: built-ins, user functions, CSV tables, quadratic fits.

A schedule is the pair of envelopes ``A(s)`` and ``B(s)`` on the normalized
time ``s in [0, 1]`` together with a driver-sign convention.  With sign ``+1``
the driver enters as ``+A(s) * H_x`` and the evolution starts from the
all-``|-⟩`` product state; with sign ``-1`` (the convention used by D-Wave)
the driver is ``-A(s) * H_x`` and the start state is all ``|+⟩``.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ScheduleError, ScheduleParseError

ALL_MINUS = "all_minus"
ALL_PLUS = "all_plus"

#: derivative discontinuity of the piecewise D-Wave fit
_DW_KINK = 0.69


@dataclass(frozen=True)
class AnnealingSchedule:
    """Envelope pair ``A(s)``, ``B(s)`` with a fixed driver-sign convention.

    ``kinks`` lists interior points where a derivative jump is known; the
    solver never lets an integration step straddle one.
    """

    A: Callable[[float], float]
    B: Callable[[float], float]
    driver_sign: int = 1
    name: str = "custom"
    kinks: tuple[float, ...] = ()
    table: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.driver_sign not in (1, -1):
            raise ScheduleError(f"driver_sign must be +1 or -1, got {self.driver_sign!r}")

    @property
    def initial_state_kind(self) -> str:
        """The start state, the driver's ground state under this sign."""
        return ALL_MINUS if self.driver_sign == 1 else ALL_PLUS

    def with_driver_sign(self, driver_sign: int) -> "AnnealingSchedule":
        """Same envelopes under the other driver-sign convention."""
        return replace(self, driver_sign=driver_sign)


@dataclass(frozen=True)
class ScalarQuadratic:
    """Real quadratic ``c0 + c1*s + c2*s**2``."""

    c0: float
    c1: float
    c2: float

    def __call__(self, s):
        return self.c0 + s * (self.c1 + s * self.c2)


def _dw_a(s):
    s = np.asarray(s, dtype=float)
    value = (13.371976 * s * s - 18.453338 * s + 6.366401) * np.pi
    out = np.where(s < _DW_KINK, value, 0.0)
    return out if out.ndim else float(out)


def _dw_b(s):
    s = np.asarray(s, dtype=float)
    out = 14.55571 * (0.85 * s * s + 0.15 * s) * np.pi
    return out if out.ndim else float(out)


_BUILTINS: dict[str, tuple[Callable, Callable, tuple[float, ...]]] = {
    "linear": (lambda s: 1.0 - s, lambda s: s + 0.0, ()),
    "quadratic": (lambda s: (1.0 - s) ** 2, lambda s: s * s, ()),
    "circular": (lambda s: np.cos(0.5 * np.pi * s), lambda s: np.sin(0.5 * np.pi * s), ()),
    "dw_quadratic": (_dw_a, _dw_b, (_DW_KINK,)),
}


def builtin_schedule(name: str, driver_sign: int = 1) -> AnnealingSchedule:
    """Look up one of the built-in schedules by name.

    Recognized names (case-insensitive, an ``AS_`` prefix is tolerated):
    ``LINEAR`` (A=1-s, B=s), ``QUADRATIC`` (A=(1-s)^2, B=s^2), ``CIRCULAR``
    (A=cos(pi s/2), B=sin(pi s/2)) and ``DW_QUADRATIC``, a piecewise quadratic
    fit to a production annealer's schedule with A clamped to 0 for s >= 0.69.
    """
    key = name.strip().lower()
    if key.startswith("as_"):
        key = key[3:]
    if key not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ScheduleError(f"unknown schedule {name!r}; built-ins are: {known}")
    a, b, kinks = _BUILTINS[key]
    return AnnealingSchedule(A=a, B=b, driver_sign=driver_sign, name=key, kinks=kinks)


def builtin_schedule_names() -> list[str]:
    return sorted(_BUILTINS)


def schedule_from_functions(
    A: Callable[[float], float],
    B: Callable[[float], float],
    driver_sign: int = 1,
    name: str = "custom",
    kinks: Sequence[float] = (),
) -> AnnealingSchedule:
    """Wrap a user-supplied envelope pair, probing it for finite values."""
    for probe in (0.0, 0.5, 1.0):
        for label, fn in (("A", A), ("B", B)):
            try:
                value = float(fn(probe))
            except Exception as exc:
                raise ScheduleError(f"{label}({probe}) raised {exc!r}") from exc
            if not np.isfinite(value):
                raise ScheduleError(f"{label}({probe}) = {value} is not finite")
    return AnnealingSchedule(
        A=A, B=B, driver_sign=driver_sign, name=name, kinks=tuple(float(q) for q in kinks)
    )


def load_schedule_csv(path, driver_sign: int = 1) -> AnnealingSchedule:
    """Load a tabulated schedule and interpolate it piecewise-linearly.

    The file must have the header ``s,a,b`` followed by numeric rows with a
    strictly increasing ``s`` column whose range covers [0, 1].  The
    interpolant's slope jumps at every node, so the nodes inside (0, 1) are
    the schedule's ``kinks``: every node is a step boundary, and a table of
    ``N`` rows costs an adaptive run ``3 (N - 1)`` steps at least.
    """
    path = Path(path)
    rows: list[tuple[float, float, float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["s", "a", "b"]:
            raise ScheduleParseError(f"{path}: line 1: expected header 's,a,b', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ScheduleParseError(f"{path}: line {lineno}: expected 3 columns, got {len(row)}")
            try:
                values = tuple(float(c) for c in row)
            except ValueError as exc:
                raise ScheduleParseError(f"{path}: line {lineno}: {exc}") from exc
            if not all(np.isfinite(v) for v in values):
                raise ScheduleParseError(f"{path}: line {lineno}: non-finite value")
            rows.append(values)
    if len(rows) < 2:
        raise ScheduleParseError(f"{path}: need at least 2 data rows, got {len(rows)}")
    s = np.array([r[0] for r in rows])
    a = np.array([r[1] for r in rows])
    b = np.array([r[2] for r in rows])
    if np.any(np.diff(s) <= 0):
        bad = int(np.flatnonzero(np.diff(s) <= 0)[0])
        raise ScheduleError(
            f"{path}: s column must be strictly increasing "
            f"(violated between rows {bad + 2} and {bad + 3})"
        )
    if s[0] > 0.0 or s[-1] < 1.0:
        raise ScheduleError(f"{path}: s column must cover [0, 1], spans [{s[0]}, {s[-1]}]")

    def interpolant(values):
        def envelope(x):
            out = np.interp(np.asarray(x, dtype=float), s, values)
            return out if out.ndim else float(out)

        return envelope

    return AnnealingSchedule(
        A=interpolant(a),
        B=interpolant(b),
        driver_sign=driver_sign,
        name=path.stem,
        kinks=tuple(float(x) for x in s[(s > 0.0) & (s < 1.0)]),
        table=(tuple(s), tuple(a), tuple(b)),
    )


def save_schedule_csv(schedule: AnnealingSchedule, path, s_grid: Sequence[float] | None = None) -> None:
    """Tabulate a schedule to the ``s,a,b`` CSV format.

    Prefers the schedule's own table when it was loaded from CSV; otherwise
    evaluates on ``s_grid`` (default 1001 uniform points).  Floats are written
    with their shortest round-trip representation, so saving and reloading
    reproduces the tabulated values exactly.
    """
    if s_grid is None and schedule.table is not None:
        s_vals, a_vals, b_vals = schedule.table
    else:
        grid = np.linspace(0.0, 1.0, 1001) if s_grid is None else np.asarray(s_grid, dtype=float)
        s_vals = [float(x) for x in grid]
        a_vals = [float(schedule.A(x)) for x in grid]
        b_vals = [float(schedule.B(x)) for x in grid]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "b"])
        for s, a, b in zip(s_vals, a_vals, b_vals):
            writer.writerow([repr(float(s)), repr(float(a)), repr(float(b))])


def _unit_quadratic(f0, fm, f1):
    """Coefficients of the quadratic through ``(0, f0)``, ``(1/2, fm)`` and
    ``(1, f1)`` in the unit variable, lowest first; scalars or arrays."""
    return f0, -3.0 * f0 + 4.0 * fm - f1, 2.0 * f0 - 4.0 * fm + 2.0 * f1


def local_quadratic_fit(f: Callable[[float], float], s0: float, s1: float) -> ScalarQuadratic:
    """Quadratic through ``(s0, f(s0))``, the midpoint, and ``(s1, f(s1))``.

    Coefficients refer to the global variable ``s``; collinear samples simply
    give ``c2 = 0``.
    """
    if not s0 < s1:
        raise ValueError(f"need s0 < s1, got s0={s0}, s1={s1}")
    width = s1 - s0
    f0 = float(f(s0))
    _, alpha, beta = _unit_quadratic(f0, float(f(0.5 * (s0 + s1))), float(f(s1)))
    c2 = beta / (width * width)
    c1 = alpha / width - 2.0 * c2 * s0
    c0 = f0 - alpha * s0 / width + c2 * s0 * s0
    return ScalarQuadratic(c0=c0, c1=c1, c2=c2)
