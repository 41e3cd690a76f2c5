import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsim as qa


class TestBuiltins:
    def test_linear_endpoints(self, linear):
        assert linear.A(0.0) == 1.0
        assert linear.B(0.0) == 0.0
        assert linear.A(1.0) == 0.0
        assert linear.B(1.0) == 1.0

    def test_circular_identity_on_grid(self, circular):
        s = np.linspace(0.0, 1.0, 1001)
        residual = np.abs(circular.A(s) ** 2 + circular.B(s) ** 2 - 1.0).max()
        assert residual <= 1e-14

    def test_quadratic_values(self):
        sched = qa.builtin_schedule("quadratic")
        s = np.linspace(0, 1, 11)
        assert np.allclose(sched.A(s), (1 - s) ** 2, atol=1e-15)
        assert np.allclose(sched.B(s), s**2, atol=1e-15)

    def test_dw_quadratic_piecewise(self):
        sched = qa.builtin_schedule("dw_quadratic")
        just_below = np.nextafter(0.69, 0.0)
        assert abs(sched.A(just_below)) <= 1e-3
        assert sched.A(0.69) == 0.0
        assert sched.A(0.9) == 0.0
        assert sched.A(1.0) == 0.0
        assert sched.B(0.0) == 0.0
        assert sched.B(1.0) == pytest.approx(14.55571 * np.pi, rel=1e-12)
        assert sched.kinks == (0.69,)

    @pytest.mark.parametrize("name", ["linear", "quadratic", "circular", "dw_quadratic"])
    def test_envelope_ordering_contract(self, name):
        sched = qa.builtin_schedule(name)
        assert sched.B(0.0) == 0.0
        assert 0.0 <= abs(sched.A(1.0)) <= 1e-3
        assert sched.A(0.0) > 1e-3

    def test_name_normalization(self):
        assert qa.builtin_schedule("AS_CIRCULAR").name == "circular"
        assert qa.builtin_schedule("Linear").name == "linear"

    def test_unknown_name(self):
        with pytest.raises(qa.ScheduleError, match="unknown schedule"):
            qa.builtin_schedule("cubic")

    def test_driver_sign_selects_initial_state(self):
        plus = qa.builtin_schedule("circular", driver_sign=-1)
        assert plus.initial_state_kind == "all_plus"
        assert qa.builtin_schedule("circular").initial_state_kind == "all_minus"
        direct = qa.AnnealingSchedule(A=plus.A, B=plus.B, driver_sign=-1)
        assert direct.initial_state_kind == "all_plus"
        assert direct.with_driver_sign(1).initial_state_kind == "all_minus"

    def test_replace_keeps_the_state_with_the_sign(self, circular):
        import dataclasses

        plus = dataclasses.replace(circular.with_driver_sign(-1), A=circular.B, B=circular.A)
        assert (plus.driver_sign, plus.initial_state_kind) == (-1, "all_plus")
        assert plus.A is circular.B


class TestUserSchedules:
    def test_wraps_functions(self):
        sched = qa.schedule_from_functions(lambda s: s**3, lambda s: (1 - s) ** 3)
        assert sched.A(0.5) == pytest.approx(0.125, abs=1e-15)
        assert sched.B(0.5) == pytest.approx(0.125, abs=1e-15)

    def test_rejects_non_finite_probe(self):
        with pytest.raises(qa.ScheduleError):
            qa.schedule_from_functions(lambda s: float("nan") if s == 0.5 else 1.0, lambda s: s)

    def test_rejects_raising_function(self):
        def bad(s):
            raise RuntimeError("boom")

        with pytest.raises(qa.ScheduleError):
            qa.schedule_from_functions(bad, lambda s: s)


class TestCsvSchedules:
    def write(self, tmp_path, body, name="sched.csv"):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        return path

    def test_two_point_table_reproduces_linear(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n1,0,1\n")
        sched = qa.load_schedule_csv(path)
        for s in np.linspace(0, 1, 17):
            assert float(sched.A(s)) == pytest.approx(1 - s, abs=1e-15)
            assert float(sched.B(s)) == pytest.approx(s, abs=1e-15)

    def test_midpoint_is_mean_of_neighbors(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n0.5,0.8,0.1\n1,0,1\n")
        sched = qa.load_schedule_csv(path)
        assert float(sched.A(0.25)) == pytest.approx(0.9, abs=1e-15)
        assert float(sched.B(0.75)) == pytest.approx(0.55, abs=1e-15)

    def test_dense_circular_tabulation_error_bound(self, tmp_path, circular):
        path = tmp_path / "circ.csv"
        qa.save_schedule_csv(circular, path, s_grid=np.linspace(0, 1, 1001))
        sched = qa.load_schedule_csv(path)
        probe = np.linspace(0, 1, 4001)
        err = np.abs(np.asarray(sched.A(probe)) - np.asarray(circular.A(probe))).max()
        assert err <= 2e-6

    def test_byte_order_mark_is_ignored(self, tmp_path):
        body = "s,a,b\n0,1,0\n0.5,0.8,0.1\n1,0,1\n"
        plain = qa.load_schedule_csv(self.write(tmp_path, body))
        marked = qa.load_schedule_csv(self.write(tmp_path, "\ufeff" + body, name="marked.csv"))
        assert (marked.table, marked.kinks) == (plain.table, plain.kinks)
        probe = np.linspace(0, 1, 17)
        assert np.array_equal(marked.A(probe), plain.A(probe))
        assert np.array_equal(marked.B(probe), plain.B(probe))

    def test_save_load_round_trip_exact_at_nodes(self, tmp_path, circular):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        qa.save_schedule_csv(circular, first, s_grid=np.linspace(0, 1, 101))
        loaded = qa.load_schedule_csv(first)
        qa.save_schedule_csv(loaded, second)
        reloaded = qa.load_schedule_csv(second)
        for s in loaded.table[0]:
            assert float(reloaded.A(s)) == float(loaded.A(s))
            assert float(reloaded.B(s)) == float(loaded.B(s))

    def test_header_required(self, tmp_path):
        path = self.write(tmp_path, "x,y,z\n0,1,0\n1,0,1\n")
        with pytest.raises(qa.ScheduleParseError, match="line 1"):
            qa.load_schedule_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n0.5,oops,0\n1,0,1\n")
        with pytest.raises(qa.ScheduleParseError, match="line 3"):
            qa.load_schedule_csv(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n1,0\n")
        with pytest.raises(qa.ScheduleParseError, match="line 3"):
            qa.load_schedule_csv(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n0.6,0.5,0.5\n0.4,0.2,0.8\n1,0,1\n")
        with pytest.raises(qa.ScheduleError, match="increasing"):
            qa.load_schedule_csv(path)

    def test_must_cover_unit_interval(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n0.9,0,1\n")
        with pytest.raises(qa.ScheduleError, match="cover"):
            qa.load_schedule_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = self.write(tmp_path, "s,a,b\n0,1,0\n")
        with pytest.raises(qa.ScheduleParseError):
            qa.load_schedule_csv(path)


class TestLocalQuadraticFit:
    def test_reproduces_linear_envelope(self, linear):
        fit = qa.local_quadratic_fit(linear.A, 0.0, 0.5)
        assert fit.c0 == pytest.approx(1.0, abs=1e-14)
        assert fit.c1 == pytest.approx(-1.0, abs=1e-14)
        assert fit.c2 == pytest.approx(0.0, abs=1e-14)

    def test_reproduces_pure_quadratic(self):
        fit = qa.local_quadratic_fit(lambda s: s * s, 0.2, 0.9)
        assert (fit.c0, fit.c1, fit.c2) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_matches_at_nodes(self, circular):
        s0, s1 = 0.0, 0.1
        fit = qa.local_quadratic_fit(circular.A, s0, s1)
        for s in (s0, 0.5 * (s0 + s1), s1):
            assert fit(s) == pytest.approx(float(circular.A(s)), abs=1e-15)

    @given(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
        st.floats(0, 0.8), st.floats(0.05, 0.2),
    )
    @settings(max_examples=60)
    def test_exact_on_degree_two(self, c0, c1, c2, s0, width):
        fit = qa.local_quadratic_fit(lambda s: c0 + c1 * s + c2 * s * s, s0, s0 + width)
        assert fit.c0 == pytest.approx(c0, abs=1e-9)
        assert fit.c1 == pytest.approx(c1, abs=1e-9)
        assert fit.c2 == pytest.approx(c2, abs=1e-9)

    def test_requires_ordered_interval(self, linear):
        with pytest.raises(ValueError):
            qa.local_quadratic_fit(linear.A, 0.5, 0.5)
