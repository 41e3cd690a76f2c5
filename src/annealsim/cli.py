"""Command-line front end: simulate, sweep, spectrum, convert, schedules.

Exit codes: 0 on success, 1 on numerical failure (the step-doubling history
is dumped to stderr), 2 on argument or input errors.  Every error path
prints a single machine-parsable line ``error[<code>]: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import encoding
from .errors import AnnealSimError, ConvergenceError, NumericalError
from .hamiltonian import (
    FieldOffsets,
    IsingModel,
    _memory_gate,
    eigenspectrum,
    minimum_gap,
)
from .io import export_result, read_bqpjson
from .magnus import SimulationResult, SolverConfig, run_config, simulate_sweep
from .schedule import (
    AnnealingSchedule,
    builtin_schedule,
    builtin_schedule_names,
    load_schedule_csv,
    save_schedule_csv,
)


def _parse_inline_model(text: str) -> IsingModel:
    terms: dict[tuple[int, ...], float] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"inline term {chunk!r} must look like 'i=coeff' or 'i,j=coeff'")
        lhs, _, rhs = chunk.partition("=")
        indices = tuple(int(part.strip()) for part in lhs.split(","))
        if len(indices) not in (1, 2):
            raise ValueError(f"inline term {chunk!r} must name one or two qubits")
        key = indices if len(indices) == 1 else (min(indices), max(indices))
        if key in terms:
            raise ValueError(f"inline term {chunk!r} repeats qubits {key}")
        terms[key] = float(rhs.strip())
    if not terms:
        raise ValueError("inline model specification is empty")
    return IsingModel.from_terms(terms)


def _load_model(spec: str) -> IsingModel:
    if "=" in spec:
        return _parse_inline_model(spec)
    if os.path.exists(spec):
        model, _ = read_bqpjson(spec)
        return model
    raise ValueError(f"model {spec!r} is neither an existing file nor an inline term spec")


def _load_schedule(spec: str, driver_sign: int) -> AnnealingSchedule:
    if os.path.exists(spec) or spec.lower().endswith(".csv"):
        return load_schedule_csv(spec, driver_sign=driver_sign)
    return builtin_schedule(spec, driver_sign=driver_sign)


def _load_run(args) -> tuple[IsingModel, AnnealingSchedule, FieldOffsets | None, SolverConfig]:
    """The model, schedule, offsets and solver configuration of a simulate or sweep run."""
    model = _load_model(args.model)
    schedule = _load_schedule(args.schedule, args.driver_sign)

    def parse(text):
        return [float(v) for v in text.split(",")] if text else None

    offsets = None
    if args.x_offsets or args.z_offsets:
        offsets = FieldOffsets.from_vectors(
            x=parse(args.x_offsets), z=parse(args.z_offsets), n_qubits=model.n_qubits
        )
    if args.steps == "adaptive":
        config = SolverConfig(
            order=args.order,
            mean_tol=args.mean_tol,
            max_tol=args.max_tol,
            max_doublings=args.max_doublings,
        )
    else:
        config = SolverConfig(order=args.order, n_steps=int(args.steps))
    return model, schedule, offsets, config


def _export(args, result, model, schedule) -> None:
    if args.out:
        export_result(result, args.format, args.out, model=model, schedule=schedule,
                      include_timestamp=not args.no_timestamp)


def _parse_times(text: str) -> list[float]:
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("logspace times must look like logspace:lo:hi:count")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if count < 1:
            raise ValueError("logspace count must be >= 1")
        with _memory_gate(48 * count, f"{count} sweep times"):  # tracemalloc: 41 bytes each
            return [float(t) for t in np.logspace(lo, hi, count)]
    return [float(v) for v in text.split(",") if v.strip()]


def _print_summary(result: SimulationResult, n_qubits: int) -> None:
    top = sorted(
        enumerate(result.probabilities), key=lambda item: (-item[1], item[0])
    )[:5]
    labels = ", ".join(
        f"{encoding.int_to_braket(v, n_qubits)} {p:.6f}" for v, p in top
    )
    print(f"steps_used={result.steps_used} order={result.order} top: {labels}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealsim",
        description="Simulate closed-system transverse-field Ising dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags of every command that reads a problem and writes an export
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--model", required=True, help="BQPJSON path or inline 'i,j=c;i=c' spec")
    problem.add_argument("--schedule", required=True, help="built-in name or schedule CSV path")
    problem.add_argument("--driver-sign", type=int, choices=(1, -1), default=1)
    problem.add_argument("--no-timestamp", action="store_true")

    run = argparse.ArgumentParser(add_help=False, parents=[problem])
    run.add_argument("--order", type=int, default=4, help="Magnus order (default 4)")
    run.add_argument(
        "--steps", default="adaptive", help="fixed step count or 'adaptive' (default)"
    )
    run.add_argument("--mean-tol", type=float, default=1e-8)
    run.add_argument("--max-tol", type=float, default=1e-6)
    run.add_argument("--max-doublings", type=int, default=24)
    run.add_argument("--x-offsets", default="", help="comma list of per-qubit X offsets")
    run.add_argument("--z-offsets", default="", help="comma list of per-qubit Z offsets")
    run.add_argument("--out", default=None, help="output file path")
    run.add_argument("--format", choices=("json", "csv"), default="json")

    p_sim = sub.add_parser("simulate", parents=[run], help="single evolution")
    p_sim.add_argument("--time", type=float, required=True, help="total evolution time")

    p_sweep = sub.add_parser("sweep", parents=[run], help="evolution-time sweep")
    p_sweep.add_argument(
        "--times", required=True, help="comma list or logspace:lo:hi:count (base-10 exponents)"
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")

    p_spec = sub.add_parser(
        "spectrum", parents=[problem], help="instantaneous eigenvalues on an s grid"
    )
    p_spec.add_argument("--grid", type=int, default=101, help="number of s points")
    p_spec.add_argument("--out", required=True)
    p_spec.add_argument("--format", choices=("json", "csv"), default="csv")

    p_conv = sub.add_parser("convert", help="convert basis-state labels")
    p_conv.add_argument("--from", dest="source", required=True, choices=("int", "binary", "spin"))
    p_conv.add_argument(
        "--to", dest="target", required=True, choices=("int", "binary", "spin", "braket")
    )
    p_conv.add_argument("--value", required=True)
    p_conv.add_argument("--n", type=int, default=None, help="qubit count (for --from int)")
    p_conv.add_argument("--ascii", action="store_true", help="ASCII bra-ket glyphs")

    sub.add_parser("schedules", help="list built-in schedules")
    return parser


def _cmd_simulate(args) -> int:
    model, schedule, offsets, config = _load_run(args)
    result = run_config(model, args.time, schedule, config, offsets)
    _export(args, result, model, schedule)
    _print_summary(result, model.n_qubits)
    return 0


def _cmd_sweep(args) -> int:
    model, schedule, offsets, config = _load_run(args)
    points = simulate_sweep(model, _parse_times(args.times), schedule, config, offsets,
                            jobs=args.jobs)

    failures = [p for p in points if p.result is None]
    for point in failures:
        print(f"warning: tau={point.tau}: {point.error}", file=sys.stderr)
    _export(args, points, model, schedule)
    print(f"sweep: {len(points) - len(failures)}/{len(points)} evolutions succeeded")
    return 1 if len(failures) == len(points) else 0


def _cmd_spectrum(args) -> int:
    model = _load_model(args.model)
    schedule = _load_schedule(args.schedule, args.driver_sign)
    if args.grid < 2:
        raise ValueError("--grid must be >= 2")
    grid = np.linspace(0.0, 1.0, args.grid)
    spectrum = eigenspectrum(model, schedule, grid)
    _export(args, spectrum, model, schedule)
    if args.format == "csv":
        schedule_path = _schedule_sidecar_path(args.out)
        save_schedule_csv(schedule, schedule_path, s_grid=grid)
        print(f"schedule values written to {schedule_path}")
    s_min, gap = minimum_gap(spectrum)
    print(f"grid={args.grid} min_gap={gap:.6e} at s={s_min:.6f}")
    return 0


def _schedule_sidecar_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}.schedule{ext or '.csv'}"


def _cmd_convert(args) -> int:
    if args.source == "int":
        if args.n is None:
            raise ValueError("--n is required when converting from an integer")
        value = int(args.value)
        with _memory_gate(80 * args.n, f"{args.n} qubits in a label"):  # tracemalloc: 76 bytes each
            bits = encoding.int_to_binary(value, args.n)
    elif args.source == "binary":
        bits = [int(v) for v in args.value.split(",")]
        encoding.binary_to_int(bits)  # validates
    else:
        spins = [int(v) for v in args.value.split(",")]
        bits = encoding.spin_to_binary(spins)

    if args.target == "int":
        print(encoding.binary_to_int(bits))
    elif args.target == "binary":
        print(",".join(str(b) for b in bits))
    elif args.target == "spin":
        print(",".join(str(s) for s in encoding.binary_to_spin(bits)))
    else:
        if args.source == "spin":
            print(encoding.spin_to_braket(encoding.binary_to_spin(bits), ascii_glyphs=args.ascii))
        else:
            print(encoding.binary_to_braket(bits, ascii_glyphs=args.ascii))
    return 0


def _cmd_schedules(_args) -> int:
    for name in builtin_schedule_names():
        print(name)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "convert": _cmd_convert,
    "schedules": _cmd_schedules,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        for n, e_max, e_mean in exc.trace:
            print(f"trace: n_steps={n} E_max={e_max:.6e} E_mean={e_mean:.6e}", file=sys.stderr)
        print(f"error[converge]: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 1
    except (AnnealSimError, ValueError, OSError) as exc:
        print(f"error[args]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
