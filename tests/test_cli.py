import json

import numpy as np
import pytest

import annealsim as qa
from annealsim.cli import main
from conftest import FIVE_SPIN_TERMS


@pytest.fixture()
def five_spin_file(tmp_path):
    path = tmp_path / "five_spin.json"
    qa.write_bqpjson(qa.IsingModel.from_terms(FIVE_SPIN_TERMS), path)
    return str(path)


class TestConvert:
    def test_binary_to_int(self, capsys):
        assert main(["convert", "--from", "binary", "--to", "int", "--value", "0,0,1"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_spin_to_braket(self, capsys):
        code = main(["convert", "--from", "spin", "--to", "braket", "--value", "1,1,-1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "|↓↑↑⟩"

    def test_int_to_binary(self, capsys):
        code = main(["convert", "--from", "int", "--to", "binary", "--value", "4", "--n", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0,0,1"

    def test_binary_to_braket_digits(self, capsys):
        code = main(["convert", "--from", "binary", "--to", "braket", "--value", "0,0,1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "|100⟩"

    def test_ascii_flag(self, capsys):
        code = main(
            ["convert", "--from", "spin", "--to", "braket", "--value", "1,-1", "--ascii"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "|du>"

    def test_int_needs_qubit_count(self, capsys):
        assert main(["convert", "--from", "int", "--to", "binary", "--value", "4"]) == 2
        assert "error[args]" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, capsys):
        assert main(["convert", "--from", "binary", "--to", "int", "--value", "0,2"]) == 2


class TestSimulate:
    def test_zero_time_gives_uniform_probabilities(self, tmp_path, five_spin_file, capsys):
        out = tmp_path / "run.json"
        code = main(
            ["simulate", "--model", five_spin_file, "--time", "0", "--schedule", "circular",
             "--steps", "16", "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        probs = [rec["probability"] for rec in payload["points"][0]["states"]]
        assert np.allclose(probs, 1 / 32, atol=1e-12)

    def test_intermediate_anneal_favors_aligned_states(self, tmp_path, five_spin_file, capsys):
        # the fully aligned pair peaks at moderate evolution times before
        # being suppressed again in the adiabatic limit
        out = tmp_path / "run.json"
        code = main(
            ["simulate", "--model", five_spin_file, "--time", "2", "--schedule", "circular",
             "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        states = payload["points"][0]["states"]
        ranked = sorted(states, key=lambda rec: -rec["probability"])
        top_brakets = {ranked[0]["braket"], ranked[1]["braket"]}
        assert top_brakets == {"|" + "↑" * 5 + "⟩", "|" + "↓" * 5 + "⟩"}
        assert ranked[0]["probability"] == pytest.approx(ranked[1]["probability"], abs=1e-8)

    def test_summary_line(self, five_spin_file, capsys):
        code = main(
            ["simulate", "--model", five_spin_file, "--time", "1", "--schedule", "circular",
             "--steps", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "steps_used=64" in out and "top:" in out

    def test_inline_model(self, capsys):
        code = main(
            ["simulate", "--model", "1,2=-1;1=0.5", "--time", "1", "--schedule", "linear",
             "--steps", "32"]
        )
        assert code == 0

    def test_non_finite_time_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["simulate", "--model", "1,2=-1", "--schedule", "linear", "--time", "nan",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[args]: evolution time must be finite")
        assert not out.exists()

    def test_missing_model_exits_2(self, capsys):
        assert main(["simulate", "--time", "1", "--schedule", "circular"]) == 2

    def test_unknown_schedule_exits_2(self, capsys):
        code = main(["simulate", "--model", "1=1", "--time", "1", "--schedule", "bogus"])
        assert code == 2
        assert "error[args]" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"linear_terms": None},
        {"quadratic_terms": 5},
        {"variable_ids": [True, False], "quadratic_terms": []},
    ], ids=["null-linear", "int-quadratic", "bool-ids"])
    def test_malformed_problem_file_exits_2(self, tmp_path, capsys, override):
        payload = {"version": "1.0.0", "variable_domain": "spin", "variable_ids": [1, 2],
                   "linear_terms": [], "quadratic_terms": [
                       {"id_tail": 1, "id_head": 2, "coeff": -1.0}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**payload, **override}), encoding="utf-8")
        code = main(["simulate", "--model", str(path), "--time", "1", "--schedule", "linear"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[args]: ") and err.count("\n") == 1

    def test_nonconvergence_exits_1_with_trace(self, capsys):
        code = main(
            ["simulate", "--model", "1=1", "--time", "1", "--schedule", "circular",
             "--mean-tol", "1e-30", "--max-tol", "1e-30", "--max-doublings", "2"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error[converge]" in err
        assert "trace: n_steps=4" in err

    def test_csv_schedule_and_offsets(self, tmp_path, capsys):
        sched_path = tmp_path / "lin.csv"
        sched_path.write_text("s,a,b\n0,1,0\n1,0,1\n", encoding="utf-8")
        code = main(
            ["simulate", "--model", "1,2=-1", "--time", "1", "--schedule", str(sched_path),
             "--steps", "32", "--x-offsets", "0.1,0.0", "--z-offsets", "0.0,-0.2"]
        )
        assert code == 0


class TestSweep:
    def test_logspace_sweep_csv(self, tmp_path, five_spin_file, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--model", five_spin_file, "--times", "logspace:-1:0:3",
             "--schedule", "circular", "--steps", "64", "--out", str(out),
             "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 3 * 32
        taus = sorted({float(line.split(",")[0]) for line in lines[1:]})
        assert taus == pytest.approx([0.1, np.sqrt(0.1), 1.0], rel=1e-12)
        for tau in taus:
            rows = [line for line in lines[1:] if float(line.split(",")[0]) == tau]
            total = sum(float(r.split(",")[4]) for r in rows)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_singleton_sweep_matches_simulate(self, tmp_path, capsys):
        sweep_out = tmp_path / "sweep.json"
        sim_out = tmp_path / "sim.json"
        common = ["--model", "1,2=-2", "--schedule", "circular", "--steps", "128",
                  "--no-timestamp"]
        assert main(["sweep", "--times", "3.0", "--out", str(sweep_out)] + common) == 0
        assert main(["simulate", "--time", "3.0", "--out", str(sim_out)] + common) == 0
        sweep_payload = json.loads(sweep_out.read_text(encoding="utf-8"))
        sim_payload = json.loads(sim_out.read_text(encoding="utf-8"))
        sweep_probs = [r["probability"] for r in sweep_payload["points"][0]["states"]]
        sim_probs = [r["probability"] for r in sim_payload["points"][0]["states"]]
        assert sweep_probs == sim_probs

    def test_parallel_jobs_preserve_order(self, tmp_path, capsys):
        out_serial = tmp_path / "serial.json"
        out_parallel = tmp_path / "parallel.json"
        common = ["--model", "1,2=-1", "--schedule", "circular", "--steps", "32",
                  "--times", "0.5,1.0,2.0", "--no-timestamp"]
        assert main(["sweep", "--out", str(out_serial)] + common) == 0
        assert main(["sweep", "--out", str(out_parallel), "--jobs", "3"] + common) == 0
        assert out_serial.read_bytes() == out_parallel.read_bytes()

    def test_negative_time_fails_whole_sweep_with_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--model", "1,2=-1", "--schedule", "circular", "--steps", "32",
             "--times", "1.0,-0.5", "--out", str(out)]
        )
        assert code == 2
        assert "error[args]" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_time_fails_whole_sweep_with_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--model", "1,2=-1", "--schedule", "circular", "--steps", "32",
                     "--times", "1.0,inf", "--out", str(out)])
        assert code == 2
        assert "error[args]: evolution time must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_fail_with_exit_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--model", "1,2=-1", "--schedule", "circular", "--steps", "32",
                     "--times", "1.0", "--jobs", jobs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error[args]: jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_output_sorted_by_time_regardless_of_input_order(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--model", "1,2=-1", "--schedule", "circular", "--steps", "32",
             "--times", "2.0,0.5,1.0", "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [p["tau"] for p in payload["points"]] == [0.5, 1.0, 2.0]

    def test_simulate_csv_format(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["simulate", "--model", "1,2=-1", "--time", "1", "--schedule", "circular",
             "--steps", "32", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "tau,state_index,braket,energy,probability"
        assert len(lines) == 1 + 4


class TestSpectrum:
    def test_two_point_grid(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--model", "1,2=-1", "--schedule", "linear", "--grid", "2",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        svals = {line.split(",")[0] for line in lines[1:]}
        assert svals == {"0.0", "1.0"}

    def test_schedule_sidecar_satisfies_linear_identity(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--model", "1,2=-1", "--schedule", "linear", "--grid", "11",
             "--out", str(out)]
        )
        assert code == 0
        sidecar = tmp_path / "spec.schedule.csv"
        loaded = qa.load_schedule_csv(sidecar)
        s_vals, a_vals, b_vals = loaded.table
        assert np.allclose(np.asarray(a_vals) + np.asarray(b_vals), 1.0, atol=1e-15)

    def test_min_gap_matches_library(self, tmp_path, five_spin_file, five_spin, circular,
                                     capsys):
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--model", five_spin_file, "--schedule", "circular",
             "--grid", "101", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        gap_line = [ln for ln in stdout.splitlines() if "min_gap=" in ln][0]
        reported = float(gap_line.split("min_gap=")[1].split()[0])
        spectrum = qa.eigenspectrum(five_spin, circular, np.linspace(0, 1, 101))
        _, expected = qa.minimum_gap(spectrum)
        assert reported == pytest.approx(expected, abs=1e-9)


class TestOversizedRuns:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "1,2=-1", "--schedule", "linear", "--time", "1",
         "--steps", "2000000000"],
        ["spectrum", "--model", ";".join(f"{i},{i + 1}=-1" for i in range(1, 10)),
         "--schedule", "linear", "--grid", "2000000"],
        ["sweep", "--model", "1,2=-1", "--schedule", "linear",
         "--times", "logspace:0:1:1000000000"],
        ["convert", "--from", "int", "--to", "binary", "--value", "1", "--n", "1000000000"],
    ], ids=["simulate", "spectrum", "sweep", "convert"])
    def test_refused_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        import time

        import annealsim.hamiltonian as hamiltonian_mod

        # 64 GB of step grid, 16 GB of levels, 48 GB of sweep times and 80 GB
        # of label; the limit is pinned, so that no machine starts any of them
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 4 << 30)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(argv + ([] if argv[0] == "convert" else ["--out", str(out)])) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error[args]: ")
        assert "need" in err and "Traceback" not in err
        assert not out.exists()


class TestMisc:
    def test_schedules_listing(self, capsys):
        assert main(["schedules"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["circular", "dw_quadratic", "linear", "quadratic"]

    def test_determinism_without_timestamp(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["simulate", "--model", "1,2=-1", "--time", "1", "--schedule", "circular",
                  "--steps", "32", "--no-timestamp", "--format", "json"]
        assert main(common + ["--out", str(a)]) == 0
        assert main(common + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2
