import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsim as qa
from conftest import random_model


def write_json(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def spin_problem(**overrides):
    payload = {
        "version": "1.0.0",
        "variable_domain": "spin",
        "variable_ids": [0, 4],
        "linear_terms": [{"id": 0, "coeff": 1.0}],
        "quadratic_terms": [{"id_tail": 0, "id_head": 4, "coeff": -1.0}],
    }
    payload.update(overrides)
    return payload


class TestReadBqpjson:
    def test_sparse_ids_are_compacted(self, tmp_path):
        path = write_json(tmp_path, spin_problem())
        model, mapping = qa.read_bqpjson(path)
        assert mapping == {0: 1, 4: 2}
        assert model.terms == {(1,): 1.0, (1, 2): -1.0}
        assert model.n_qubits == 2

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain = write_json(tmp_path, spin_problem())
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert qa.read_bqpjson(marked) == qa.read_bqpjson(plain)

    def test_empty_terms_are_valid(self, tmp_path):
        path = write_json(
            tmp_path, spin_problem(linear_terms=[], quadratic_terms=[])
        )
        model, mapping = qa.read_bqpjson(path)
        assert model.terms == {}
        assert model.n_qubits == 2

    def test_undeclared_id_rejected(self, tmp_path):
        payload = spin_problem(quadratic_terms=[{"id_tail": 0, "id_head": 7, "coeff": 1.0}])
        with pytest.raises(qa.BqpjsonError, match="undeclared"):
            qa.read_bqpjson(write_json(tmp_path, payload))

    def test_duplicate_pair_rejected(self, tmp_path):
        payload = spin_problem(
            quadratic_terms=[
                {"id_tail": 0, "id_head": 4, "coeff": 1.0},
                {"id_tail": 4, "id_head": 0, "coeff": 2.0},
            ]
        )
        with pytest.raises(qa.BqpjsonError, match="duplicate"):
            qa.read_bqpjson(write_json(tmp_path, payload))

    def test_missing_version_rejected(self, tmp_path):
        payload = spin_problem()
        del payload["version"]
        with pytest.raises(qa.BqpjsonError, match="version"):
            qa.read_bqpjson(write_json(tmp_path, payload))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(qa.BqpjsonError, match="JSON"):
            qa.read_bqpjson(path)

    def test_self_loop_rejected(self, tmp_path):
        payload = spin_problem(quadratic_terms=[{"id_tail": 0, "id_head": 0, "coeff": 1.0}])
        with pytest.raises(qa.BqpjsonError, match="itself"):
            qa.read_bqpjson(write_json(tmp_path, payload))

    def test_unknown_domain_rejected(self, tmp_path):
        with pytest.raises(qa.BqpjsonError, match="variable_domain"):
            qa.read_bqpjson(write_json(tmp_path, spin_problem(variable_domain="qubo")))

    @pytest.mark.parametrize("key", ["linear_terms", "quadratic_terms"])
    @pytest.mark.parametrize("value", [None, 5, {"id": 0, "coeff": 1.0}],
                             ids=["null", "int", "object"])
    def test_non_list_terms_rejected(self, tmp_path, key, value):
        with pytest.raises(qa.BqpjsonError, match=f"{key} must be a list"):
            qa.read_bqpjson(write_json(tmp_path, spin_problem(**{key: value})))

    def test_boolean_variable_ids_rejected(self, tmp_path):
        payload = spin_problem(variable_ids=[True, False], linear_terms=[], quadratic_terms=[])
        with pytest.raises(qa.BqpjsonError, match="variable_ids"):
            qa.read_bqpjson(write_json(tmp_path, payload))

    def test_solutions_section_warns(self, tmp_path):
        path = write_json(tmp_path, spin_problem(solutions=[{"assignment": []}]))
        with pytest.warns(UserWarning, match="solutions"):
            qa.read_bqpjson(path)

    def test_boolean_domain_conversion(self, tmp_path):
        payload = spin_problem(variable_domain="boolean")
        model, mapping = qa.read_bqpjson(write_json(tmp_path, payload))
        assert model.terms == {(1, 2): -0.25, (1,): -0.25, (2,): 0.25}
        assert model.metadata["energy_offset"] == pytest.approx(0.25)

    def test_boolean_conversion_preserves_energies(self, tmp_path):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = int(rng.integers(1, 5))
            ids = sorted(rng.choice(50, size=n, replace=False).tolist())
            linear = [
                {"id": i, "coeff": float(rng.normal())} for i in ids if rng.random() < 0.7
            ]
            quadratic = [
                {"id_tail": a, "id_head": b, "coeff": float(rng.normal())}
                for a, b in itertools.combinations(ids, 2)
                if rng.random() < 0.6
            ]
            payload = {
                "version": "1.0.0",
                "variable_domain": "boolean",
                "variable_ids": ids,
                "linear_terms": linear,
                "quadratic_terms": quadratic,
            }
            path = write_json(tmp_path, payload, name=f"qubo{trial}.json")
            model, mapping = qa.read_bqpjson(path)
            offset = model.metadata["energy_offset"]
            diag = qa.ising_diagonal(model)
            lin = {e["id"]: e["coeff"] for e in linear}
            quad = {(e["id_tail"], e["id_head"]): e["coeff"] for e in quadratic}
            for bits in itertools.product((0, 1), repeat=n):
                x = dict(zip(ids, bits))
                qubo_energy = sum(c * x[i] for i, c in lin.items()) + sum(
                    c * x[a] * x[b] for (a, b), c in quad.items()
                )
                spins = [1 - 2 * x[i] for i in ids]
                index = qa.spin_to_int([spins[mapping[i] - 1] for i in ids])
                assert qubo_energy == pytest.approx(diag[index] + offset, abs=1e-10)


class TestWriteBqpjson:
    def test_round_trip_five_spin(self, tmp_path, five_spin):
        path = tmp_path / "five.json"
        qa.write_bqpjson(five_spin, path)
        model, mapping = qa.read_bqpjson(path)
        assert model.terms == five_spin.terms
        assert mapping == {i: i for i in range(1, 6)}

    def test_round_trip_empty_model(self, tmp_path):
        path = tmp_path / "empty.json"
        qa.write_bqpjson(qa.IsingModel.from_terms({}, n_qubits=3), path)
        model, _ = qa.read_bqpjson(path)
        assert model.terms == {}
        assert model.n_qubits == 3

    def test_full_precision_coefficients_survive(self, tmp_path):
        value = 0.12345678901234567
        path = tmp_path / "precise.json"
        qa.write_bqpjson({(1,): value, (1, 2): -np.pi}, path)
        model, _ = qa.read_bqpjson(path)
        assert model.terms[(1,)] == value
        assert model.terms[(1, 2)] == -np.pi

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_round_trip_random_models(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, int(rng.integers(1, 9)))
        path = tmp_path_factory.mktemp("bqp") / "model.json"
        qa.write_bqpjson(model, path)
        loaded, _ = qa.read_bqpjson(path)
        assert loaded.terms == model.terms
        assert loaded.n_qubits == model.n_qubits


class TestExportResult:
    def test_sweep_csv_rows(self, tmp_path, circular):
        model = qa.coupled_pair_model()
        config = qa.SolverConfig(n_steps=64)
        points = qa.simulate_sweep(model, [0.5, 2.0], circular, config)
        path = tmp_path / "sweep.csv"
        qa.export_result(points, "csv", path, model=model, schedule=circular)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "tau,state_index,braket,energy,probability"
        assert len(lines) == 1 + 2 * 4
        by_tau = {}
        for line in lines[1:]:
            tau, index, braket, energy, prob = line.split(",")
            by_tau.setdefault(tau, []).append((int(index), float(prob)))
        for tau, rows in by_tau.items():
            assert [r[0] for r in rows] == [0, 1, 2, 3]
            assert sum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_sweep_rows_ordered_by_time(self, tmp_path, circular, format):
        model = qa.coupled_pair_model()
        points = qa.simulate_sweep(model, [2.0, 0.5], circular, qa.SolverConfig(n_steps=16))
        path = tmp_path / f"sweep.{format}"
        qa.export_result(points, format, path, model=model, schedule=circular,
                         include_timestamp=False)
        text = path.read_text(encoding="utf-8")
        if format == "csv":
            taus = [line.split(",")[0] for line in text.splitlines()[1:]]
            assert taus == ["0.5"] * 4 + ["2.0"] * 4
        else:
            assert [p["tau"] for p in json.loads(text)["points"]] == [0.5, 2.0]
        assert [p.tau for p in points] == [2.0, 0.5]

    def test_simulation_json_contents(self, tmp_path, circular):
        model = qa.coupled_pair_model()
        result = qa.simulate_fixed(model, 1.0, circular, order=4, n_steps=32)
        path = tmp_path / "run.json"
        qa.export_result(result, "json", path, model=model, schedule=circular,
                         include_timestamp=False)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["kind"] == "simulation"
        assert payload["schedule"] == "circular"
        point = payload["points"][0]
        assert point["tau"] == 1.0
        probabilities = [rec["probability"] for rec in point["states"]]
        assert np.allclose(probabilities, result.probabilities, atol=1e-15)
        assert point["states"][1]["braket"] == "|↑↓⟩"
        energies = qa.ising_diagonal(model)
        assert [rec["energy"] for rec in point["states"]] == energies.tolist()

    def test_sweep_failures_marked_in_json(self, tmp_path, circular):
        model = qa.single_field_model()
        config = qa.SolverConfig(mean_tol=1e-30, max_tol=1e-30, max_doublings=1)
        points = qa.simulate_sweep(model, [0.0, 1.0], circular, config)
        path = tmp_path / "sweep.json"
        qa.export_result(points, "json", path, model=model, schedule=circular,
                         include_timestamp=False)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "states" in payload["points"][0]
        assert "error" in payload["points"][1]

    def test_identical_exports_are_byte_identical(self, tmp_path, circular):
        model = qa.coupled_pair_model()
        result = qa.simulate_fixed(model, 1.0, circular, order=4, n_steps=32)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            qa.export_result(result, "json", path, model=model, schedule=circular,
                             include_timestamp=False)
        assert a.read_bytes() == b.read_bytes()

    def test_spectrum_csv(self, tmp_path, circular):
        model = qa.coupled_pair_model()
        spectrum = qa.eigenspectrum(model, circular, [0.0, 1.0])
        path = tmp_path / "spectrum.csv"
        qa.export_result(spectrum, "csv", path, schedule=circular)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "s,level_index,eigenvalue"
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and int(first[1]) == 0

    def test_spectrum_json_includes_schedule_values(self, tmp_path, linear):
        model = qa.coupled_pair_model()
        spectrum = qa.eigenspectrum(model, linear, [0.0, 0.5, 1.0])
        path = tmp_path / "spectrum.json"
        qa.export_result(spectrum, "json", path, schedule=linear, include_timestamp=False)
        payload = json.loads(path.read_text(encoding="utf-8"))
        a = payload["schedule_values"]["a"]
        b = payload["schedule_values"]["b"]
        assert np.allclose(np.asarray(a) + np.asarray(b), 1.0, atol=1e-15)

    def test_unknown_format_rejected(self, tmp_path, circular):
        model = qa.coupled_pair_model()
        result = qa.simulate_fixed(model, 1.0, circular, order=4, n_steps=8)
        with pytest.raises(ValueError):
            qa.export_result(result, "yaml", tmp_path / "x", model=model)

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_result_of_another_size_rejected(self, tmp_path, circular, format):
        result = qa.simulate_fixed(qa.coupled_pair_model(), 1.0, circular, order=4, n_steps=8)
        path = tmp_path / f"x.{format}"
        with pytest.raises(ValueError, match=r"4 probabilities.*1-qubit model has 2 states"):
            qa.export_result(result, format, path, model=qa.single_field_model())
        # neither format leaves a partial file behind
        assert not path.exists()

    def test_simulation_export_requires_model(self, tmp_path, circular):
        result = qa.simulate_fixed(qa.coupled_pair_model(), 1.0, circular, order=4, n_steps=8)
        with pytest.raises(ValueError, match="model"):
            qa.export_result(result, "json", tmp_path / "x.json")


def crlf(*lines):
    return "".join(line + "\r\n" for line in lines)


class TestExportBytes:
    """Exact text of every file format, from hand-built results (no BLAS rounding)."""

    PAIR = qa.IsingModel.from_terms({(1,): 0.5, (1, 2): -1.0})
    SINGLE = qa.IsingModel.from_terms({(1,): 1.0})

    @staticmethod
    def result(probabilities, steps, trace, metadata):
        p = np.array(probabilities)
        return qa.SimulationResult(state=np.sqrt(p).astype(complex), probabilities=p,
                                   steps_used=steps, order=4, convergence_trace=trace,
                                   metadata=metadata)

    def simulation(self):
        return self.result([0.125, 0.375, 0.25, 0.25], 8, [(8, 0.001, 0.00025)],
                           {"tau": 2.0, "mode": "adaptive"})

    def sweep(self):
        return [
            qa.SweepPoint(tau=0.5, result=self.result([0.75, 0.25], 4, [], {"mode": "fixed"})),
            qa.SweepPoint(tau=1.0, error="ConvergenceError: did not converge"),
            qa.SweepPoint(tau=3.0, result=self.result([0.1, 0.9], 16, [(16, 0.5, 0.125)],
                                                      {"mode": "adaptive"})),
        ]

    @staticmethod
    def spectrum():
        return qa.SpectrumResult(s_grid=np.array([0.0, 0.5, 1.0]),
                                 levels=np.array([[-2.0, 2.0], [-1.25, 0.75], [-0.5, 0.5]]))

    def test_simulation_json(self, tmp_path, linear):
        path = tmp_path / "run.json"
        qa.export_result(self.simulation(), "json", path, model=self.PAIR, schedule=linear,
                         include_timestamp=False)
        states = ",\n".join(
            f'''        {{
          "braket": "{label}",
          "energy": {energy},
          "index": {index},
          "probability": {p}
        }}'''
            for index, (label, energy, p) in enumerate(
                [("|↑↑⟩", -0.5, 0.125), ("|↑↓⟩", 0.5, 0.375),
                 ("|↓↑⟩", 1.5, 0.25), ("|↓↓⟩", -1.5, 0.25)]
            )
        )
        assert path.read_bytes() == f'''{{
  "kind": "simulation",
  "model": {{
    "n_qubits": 2,
    "terms": {{
      "1": 0.5,
      "1,2": -1.0
    }}
  }},
  "points": [
    {{
      "solver": {{
        "convergence_trace": [
          {{
            "error_max": 0.001,
            "error_mean": 0.00025,
            "n_steps": 8
          }}
        ],
        "mode": "adaptive",
        "order": 4,
        "steps_used": 8
      }},
      "states": [
{states}
      ],
      "tau": 2.0
    }}
  ],
  "schedule": "linear",
  "schema_version": 1
}}
'''.encode()

    def test_simulation_csv(self, tmp_path, linear):
        path = tmp_path / "run.csv"
        qa.export_result(self.simulation(), "csv", path, model=self.PAIR, schedule=linear)
        assert path.read_bytes() == crlf(
            "tau,state_index,braket,energy,probability",
            "2.0,0,|↑↑⟩,-0.5,0.125",
            "2.0,1,|↑↓⟩,0.5,0.375",
            "2.0,2,|↓↑⟩,1.5,0.25",
            "2.0,3,|↓↓⟩,-1.5,0.25",
        ).encode()

    def test_sweep_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        qa.export_result(self.sweep(), "json", path, model=self.SINGLE, schedule="custom",
                         include_timestamp=False)
        assert path.read_bytes() == '''{
  "kind": "sweep",
  "model": {
    "n_qubits": 1,
    "terms": {
      "1": 1.0
    }
  },
  "points": [
    {
      "solver": {
        "convergence_trace": [],
        "mode": "fixed",
        "order": 4,
        "steps_used": 4
      },
      "states": [
        {
          "braket": "|↑⟩",
          "energy": 1.0,
          "index": 0,
          "probability": 0.75
        },
        {
          "braket": "|↓⟩",
          "energy": -1.0,
          "index": 1,
          "probability": 0.25
        }
      ],
      "tau": 0.5
    },
    {
      "error": "ConvergenceError: did not converge",
      "tau": 1.0
    },
    {
      "solver": {
        "convergence_trace": [
          {
            "error_max": 0.5,
            "error_mean": 0.125,
            "n_steps": 16
          }
        ],
        "mode": "adaptive",
        "order": 4,
        "steps_used": 16
      },
      "states": [
        {
          "braket": "|↑⟩",
          "energy": 1.0,
          "index": 0,
          "probability": 0.1
        },
        {
          "braket": "|↓⟩",
          "energy": -1.0,
          "index": 1,
          "probability": 0.9
        }
      ],
      "tau": 3.0
    }
  ],
  "schedule": "custom",
  "schema_version": 1
}
'''.encode()

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        qa.export_result(self.sweep(), "csv", path, model=self.SINGLE)
        assert path.read_bytes() == crlf(
            "tau,state_index,braket,energy,probability",
            "0.5,0,|↑⟩,1.0,0.75",
            "0.5,1,|↓⟩,-1.0,0.25",
            "3.0,0,|↑⟩,1.0,0.1",
            "3.0,1,|↓⟩,-1.0,0.9",
        ).encode()

    def test_spectrum_json(self, tmp_path, linear):
        path = tmp_path / "spectrum.json"
        qa.export_result(self.spectrum(), "json", path, schedule=linear, include_timestamp=False)

        def column(*values):
            return ",\n".join(f"      {v}" for v in values)

        assert path.read_bytes() == f'''{{
  "kind": "spectrum",
  "levels": [
    [
{column(-2.0, 2.0)}
    ],
    [
{column(-1.25, 0.75)}
    ],
    [
{column(-0.5, 0.5)}
    ]
  ],
  "s": [
    0.0,
    0.5,
    1.0
  ],
  "schedule": "linear",
  "schedule_values": {{
    "a": [
{column(1.0, 0.5, 0.0)}
    ],
    "b": [
{column(0.0, 0.5, 1.0)}
    ]
  }},
  "schema_version": 1
}}
'''.encode()

    def test_spectrum_csv(self, tmp_path, linear):
        path = tmp_path / "spectrum.csv"
        qa.export_result(self.spectrum(), "csv", path, schedule=linear)
        assert path.read_bytes() == crlf(
            "s,level_index,eigenvalue",
            "0.0,0,-2.0",
            "0.0,1,2.0",
            "0.5,0,-1.25",
            "0.5,1,0.75",
            "1.0,0,-0.5",
            "1.0,1,0.5",
        ).encode()

    def test_timestamp_is_the_only_addition(self, tmp_path, linear):
        plain, stamped = tmp_path / "plain.json", tmp_path / "stamped.json"
        qa.export_result(self.spectrum(), "json", plain, schedule=linear, include_timestamp=False)
        qa.export_result(self.spectrum(), "json", stamped, schedule=linear)
        payload = json.loads(stamped.read_text(encoding="utf-8"))
        created = payload.pop("created")
        assert created.endswith("+00:00")
        assert payload == json.loads(plain.read_text(encoding="utf-8"))

    def test_write_bqpjson(self, tmp_path):
        path = tmp_path / "pair.json"
        qa.write_bqpjson(self.PAIR, path)
        assert path.read_bytes() == b'''{
  "id": 0,
  "linear_terms": [
    {
      "coeff": 0.5,
      "id": 1
    }
  ],
  "metadata": {},
  "quadratic_terms": [
    {
      "coeff": -1.0,
      "id_head": 2,
      "id_tail": 1
    }
  ],
  "variable_domain": "spin",
  "variable_ids": [
    1,
    2
  ],
  "version": "1.0.0"
}
'''

    def test_save_schedule_csv(self, tmp_path, linear):
        path = tmp_path / "linear.csv"
        qa.save_schedule_csv(linear, path, s_grid=[0.0, 0.25, 1.0])
        assert path.read_bytes() == crlf(
            "s,a,b", "0.0,1.0,0.0", "0.25,0.75,0.25", "1.0,0.0,1.0"
        ).encode()
