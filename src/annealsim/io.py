"""Problem-file and result-file handling.

Problems travel in the BQPJSON interchange format for binary quadratic
programs: a JSON object with ``version``, ``variable_ids``,
``variable_domain`` ("spin" or "boolean"), ``linear_terms`` (a list of
``{"id", "coeff"}`` objects) and ``quadratic_terms`` (a list of
``{"id_tail", "id_head", "coeff"}`` objects).  Unknown extra fields are
ignored; a ``solutions`` section is skipped with a warning.  Results export
to schema-versioned JSON or flat CSV suitable for any plotting tool.
"""

from __future__ import annotations

import csv
import json
import warnings
from datetime import datetime, timezone
from pathlib import Path

from .encoding import int_to_braket
from .errors import BqpjsonError
from .hamiltonian import IsingModel, SpectrumResult, ising_diagonal
from .magnus import SimulationResult, SweepPoint

SCHEMA_VERSION = 1


def _validate_entry(entry, lineno_hint: str, keys: tuple[str, ...]):
    if not isinstance(entry, dict) or not all(k in entry for k in keys):
        raise BqpjsonError(f"{lineno_hint} entries must be objects with keys {keys}")
    for k in keys:
        if k != "coeff" and (isinstance(entry[k], bool) or not isinstance(entry[k], int)):
            raise BqpjsonError(f"{lineno_hint} field {k!r} must be an integer")
    if not isinstance(entry["coeff"], (int, float)) or isinstance(entry["coeff"], bool):
        raise BqpjsonError(f"{lineno_hint} field 'coeff' must be a number")


def read_bqpjson(path) -> tuple[IsingModel, dict[int, int]]:
    """Read a problem file and compact its variable ids to qubit indices 1..n.

    Boolean-domain problems are converted to the spin domain through
    ``x = (1 - s) / 2``; the induced constant energy offset is reported in
    the model metadata under ``"energy_offset"`` rather than folded into the
    Hamiltonian.  Returns the model and the ``original id -> qubit index``
    mapping.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BqpjsonError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BqpjsonError(f"{path}: top-level value must be an object")
    version = data.get("version")
    if not isinstance(version, str):
        raise BqpjsonError(f"{path}: missing or non-string 'version' field")
    domain = data.get("variable_domain")
    if domain not in ("spin", "boolean"):
        raise BqpjsonError(f"{path}: variable_domain must be 'spin' or 'boolean', got {domain!r}")
    ids = data.get("variable_ids")
    # json gives bool for true/false, and bool is a subclass of int
    if not isinstance(ids, list) or not all(type(i) is int for i in ids):
        raise BqpjsonError(f"{path}: variable_ids must be a list of integers")
    for key in ("linear_terms", "quadratic_terms"):
        if not isinstance(data.get(key, []), list):
            raise BqpjsonError(f"{path}: {key} must be a list")
    if len(set(ids)) != len(ids):
        raise BqpjsonError(f"{path}: variable_ids contains duplicates")
    if not ids:
        raise BqpjsonError(f"{path}: at least one variable is required")
    if "solutions" in data:
        warnings.warn(f"{path}: ignoring 'solutions' section", stacklevel=2)

    mapping = {vid: k + 1 for k, vid in enumerate(sorted(ids))}
    declared = set(ids)

    linear: dict[int, float] = {}
    for entry in data.get("linear_terms", []):
        _validate_entry(entry, f"{path}: linear_terms", ("id", "coeff"))
        vid = entry["id"]
        if vid not in declared:
            raise BqpjsonError(f"{path}: linear term references undeclared id {vid}")
        if vid in linear:
            raise BqpjsonError(f"{path}: duplicate linear term for id {vid}")
        linear[vid] = float(entry["coeff"])

    quadratic: dict[tuple[int, int], float] = {}
    for entry in data.get("quadratic_terms", []):
        _validate_entry(entry, f"{path}: quadratic_terms", ("id_tail", "id_head", "coeff"))
        tail, head = entry["id_tail"], entry["id_head"]
        if tail not in declared or head not in declared:
            raise BqpjsonError(
                f"{path}: quadratic term references undeclared id ({tail}, {head})"
            )
        if tail == head:
            raise BqpjsonError(f"{path}: quadratic term joins id {tail} with itself")
        pair = (min(tail, head), max(tail, head))
        if pair in quadratic:
            raise BqpjsonError(f"{path}: duplicate quadratic term for pair {pair}")
        quadratic[pair] = float(entry["coeff"])

    terms: dict[tuple[int, ...], float] = {}
    offset = 0.0
    if domain == "spin":
        for vid, coeff in linear.items():
            terms[(mapping[vid],)] = coeff
        for (tail, head), coeff in quadratic.items():
            i, j = mapping[tail], mapping[head]
            terms[(min(i, j), max(i, j))] = coeff
    else:
        # x_i = (1 - s_i) / 2 maps boolean variables onto spins
        fields = {vid: 0.0 for vid in ids}
        for vid, coeff in linear.items():
            fields[vid] -= 0.5 * coeff
            offset += 0.5 * coeff
        for (tail, head), coeff in quadratic.items():
            i, j = mapping[tail], mapping[head]
            terms[(min(i, j), max(i, j))] = 0.25 * coeff
            fields[tail] -= 0.25 * coeff
            fields[head] -= 0.25 * coeff
            offset += 0.25 * coeff
        for vid, value in fields.items():
            if value != 0.0:
                terms[(mapping[vid],)] = value

    metadata = {
        "source_domain": domain,
        "energy_offset": offset,
        "source_metadata": data.get("metadata", {}),
    }
    model = IsingModel.from_terms(terms, n_qubits=len(ids), metadata=metadata)
    return model, mapping


def _write_json(path, payload: dict, include_timestamp: bool) -> None:
    if include_timestamp:
        payload["created"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_bqpjson(model, path) -> None:
    """Write a spin-domain problem file that reads back to the same model."""
    model = IsingModel.from_terms(model)
    linear = sorted(
        (key[0], coeff) for key, coeff in model.terms.items() if len(key) == 1
    )
    quadratic = sorted(
        (key[0], key[1], coeff) for key, coeff in model.terms.items() if len(key) == 2
    )
    payload = {
        "version": "1.0.0",
        "id": 0,
        "variable_domain": "spin",
        "variable_ids": list(range(1, model.n_qubits + 1)),
        "linear_terms": [{"id": i, "coeff": c} for i, c in linear],
        "quadratic_terms": [
            {"id_tail": i, "id_head": j, "coeff": c} for i, j, c in quadratic
        ],
        "metadata": {},
    }
    _write_json(path, payload, include_timestamp=False)


# ---------------------------------------------------------------------------
# result export


def _schedule_name(schedule) -> str:
    if schedule is None:
        return ""
    return schedule if isinstance(schedule, str) else schedule.name


def _model_payload(model: IsingModel) -> dict:
    return {
        "n_qubits": model.n_qubits,
        "terms": {
            ",".join(str(i) for i in key): coeff for key, coeff in sorted(model.terms.items())
        },
    }


def _solver_payload(result: SimulationResult) -> dict:
    return {
        "order": result.order,
        "steps_used": result.steps_used,
        "mode": result.metadata.get("mode", ""),
        "convergence_trace": [
            {"n_steps": n, "error_max": emax, "error_mean": emean}
            for n, emax, emean in result.convergence_trace
        ],
    }


def export_result(
    result,
    format: str,
    path,
    *,
    model=None,
    schedule=None,
    include_timestamp: bool = True,
) -> None:
    """Write a simulation, sweep, or spectrum result to a structured file.

    ``format`` is ``"json"`` or ``"csv"``.  Simulation and sweep exports
    need the model (for state energies); rows are ordered by evolution time
    and state index, so identical inputs give identical files.  The JSON
    timestamp can be suppressed for byte-reproducible output.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    path = Path(path)

    if isinstance(result, SimulationResult):
        points = [SweepPoint(tau=float(result.metadata.get("tau", 0.0)), result=result)]
        _export_sweep(points, format, path, model, schedule, include_timestamp, kind="simulation")
    elif isinstance(result, list) and all(isinstance(p, SweepPoint) for p in result):
        _export_sweep(result, format, path, model, schedule, include_timestamp, kind="sweep")
    elif isinstance(result, SpectrumResult):
        _export_spectrum(result, format, path, schedule, include_timestamp)
    else:
        raise ValueError(f"unsupported result type {type(result).__name__}")


def _export_sweep(points, format, path, model, schedule, include_timestamp, kind):
    if model is None:
        raise ValueError("model is required to export simulation results")
    model = IsingModel.from_terms(model)
    points = sorted(points, key=lambda p: p.tau)
    # checked before the file is opened, so a failed export leaves none behind
    size = 1 << model.n_qubits
    for point in points:
        if point.result is not None and point.result.probabilities.size != size:
            raise ValueError(f"a result has {point.result.probabilities.size} probabilities, "
                             f"but the {model.n_qubits}-qubit model has {size} states")
    # (index, bra-ket label, energy) of every basis state, shared by all points
    states = [
        (v, int_to_braket(v, model.n_qubits), float(e))
        for v, e in enumerate(ising_diagonal(model))
    ]
    if format == "csv":
        rows = (
            [repr(point.tau), v, label, repr(energy), repr(float(p))]
            for point in points
            if point.result is not None
            for (v, label, energy), p in zip(states, point.result.probabilities)
        )
        _write_csv(path, ["tau", "state_index", "braket", "energy", "probability"], rows)
        return
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "model": _model_payload(model),
        "schedule": _schedule_name(schedule),
        "points": [
            (
                {
                    "tau": point.tau,
                    "solver": _solver_payload(point.result),
                    "states": [
                        {"index": v, "braket": label, "energy": energy, "probability": float(p)}
                        for (v, label, energy), p in zip(states, point.result.probabilities)
                    ],
                }
                if point.result is not None
                else {"tau": point.tau, "error": point.error}
            )
            for point in points
        ],
    }
    _write_json(path, payload, include_timestamp)


def _export_spectrum(spectrum, format, path, schedule, include_timestamp):
    if format == "csv":
        rows = (
            [repr(float(s)), k, repr(float(value))]
            for s, levels in zip(spectrum.s_grid, spectrum.levels)
            for k, value in enumerate(levels)
        )
        _write_csv(path, ["s", "level_index", "eigenvalue"], rows)
        return
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectrum",
        "schedule": _schedule_name(schedule),
        "s": [float(x) for x in spectrum.s_grid],
        "levels": [[float(v) for v in row] for row in spectrum.levels],
    }
    if schedule is not None and not isinstance(schedule, str):
        payload["schedule_values"] = {
            "a": [float(schedule.A(float(s))) for s in spectrum.s_grid],
            "b": [float(schedule.B(float(s))) for s in spectrum.s_grid],
        }
    _write_json(path, payload, include_timestamp)
