import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import translab
from translab import SampledFunction
from translab.cli import main

from closed_form import holder_lower_bound_log2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModulusCommand:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "modulus", "--kind", "power", "--lambda", "2",
                           "--alpha", "0.5", "--eval", "0.25")
        assert code == 0
        assert float(out) == 1.0

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "modulus", "--kind", "power", "--lambda", "2",
                           "--alpha", "0.5", "--invert", "1.0")
        assert code == 0
        assert float(out) == pytest.approx(0.25)

    def test_check_report(self, capsys):
        code, out, _ = run(capsys, "modulus", "--kind", "power", "--alpha", "0.5", "--check")
        assert code == 0
        assert out.splitlines() == [
            "monotone=true",
            "subadditive=true",
            "vanishes_at_zero=true",
        ]

    def test_check_names_the_failing_point(self, capsys, tmp_path):
        # beta(0.026) = 1.5 > 2 beta(0.013) = 1, which a grid of step 0.05 never sampled
        table = tmp_path / "t.txt"
        table.write_text("0.013 0.5\n0.026 1.5\n")
        code, out, _ = run(capsys, "modulus", "--kind", "table", "--file", str(table), "--check")
        assert code == 0
        assert out.splitlines() == [
            "monotone=true",
            "subadditive=false",
            "vanishes_at_zero=true",
            "failure=subadditive fails at (0.013, 0.013)",
        ]

    def test_check_refuses_an_oversized_table_naming_the_count(self, capsys, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("".join(f"{k} {k}\n" for k in range(1, 1000)))
        code, out, err = run(capsys, "modulus", "--kind", "table", "--file", str(table), "--check")
        assert code == 2 and out == ""
        assert err == "error: a table of 1000 nodes has 1001000 vertices, over the cap of 1000000\n"

    def test_table_file(self, capsys, tmp_path):
        table = tmp_path / "beta.txt"
        table.write_text("0 0\n1 0.5\n")
        code, out, _ = run(capsys, "modulus", "--kind", "table", "--file", str(table),
                           "--invert", "0.25")
        assert code == 0
        assert float(out) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("text, line", [("0 0\n1 0.5 7\n", "2: expected two numbers 'delta value', got '1 0.5 7'"),
                                            ("# c\n\n0.5 x\n", "3: expected two numbers 'delta value', got '0.5 x'"),
                                            ("1\n", "1: expected two numbers 'delta value', got '1'")])
    def test_malformed_table_file_names_its_line(self, capsys, tmp_path, text, line):
        table = tmp_path / "t.txt"
        table.write_text(text)
        code, out, err = run(capsys, "modulus", "--kind", "table", "--file", str(table), "--eval", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: {table} line {line}\n"

    def test_table_needs_file(self, capsys):
        code, out, err = run(capsys, "modulus", "--kind", "table", "--eval", "0.5")
        assert code == 2 and out == ""
        assert "error: --kind table needs --file" in err

    def test_power_refuses_a_table_file(self, capsys, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("0 0\n1 0.5\n")
        code, out, err = run(capsys, "modulus", "--kind", "power", "--file", str(table), "--eval", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: --file {table} gives a table modulus, but --kind power ignores it\n"

    @pytest.mark.parametrize("flag", ["--lambda", "--alpha"])
    def test_table_refuses_the_power_flags(self, capsys, tmp_path, flag):
        table = tmp_path / "t.txt"
        table.write_text("0 0\n1 0.5\n")
        code, out, err = run(capsys, "modulus", "--kind", "table", "--file", str(table), flag, "1", "--check")
        assert code == 2 and out == ""
        assert err == f"error: {flag} sets a power modulus, but --kind table reads its modulus from --file\n"

    def test_power_defaults_to_the_identity(self, capsys):
        code, out, _ = run(capsys, "modulus", "--kind", "power", "--eval", "0.25")
        assert code == 0 and float(out) == 0.25


class TestBuildAndEval:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        code, out, _ = run(capsys, "build", "--alpha", "1", "--lambda", "1",
                           "--d", "1", "--m", "1", "--p", "0",
                           "--sample", "0.015625", "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "eval", "--func", str(path), "--at", "0.0625")
        assert code == 0
        assert float(out) == 0.03125

    @pytest.mark.parametrize("text, line", [("1 1\n0 x\n1 2\n", "2: could not convert string to float: 'x'"),
                                            ("1 1\n0 1\n\n1 y 3\n", "4: could not convert string to float: 'y'"),
                                            ("1 1\n0 1\n\n1 2 3\n", "4: every row must have 2 fields"),
                                            ("1 one\n0 1\n", "1: function file must start with a 'd m' header line")])
    def test_malformed_function_file_names_its_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "f.txt"
        path.write_text(text)
        code, out, err = run(capsys, "eval", "--func", str(path), "--at", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: {path} line {line}\n"

    @pytest.mark.parametrize("text, d, m", [("-1 2\n5\n", -1, 2), ("1 0\n0\n1\n", 1, 0)])
    def test_function_file_with_empty_dimension_is_clean_error(self, capsys, tmp_path, text, d, m):
        # each used to end in a bare ValueError: -1 2 while loading, 1 0 in evaluate
        path = tmp_path / "f.txt"
        path.write_text(text)
        code, out, err = run(capsys, "eval", "--func", str(path), "--at", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: {path} line 1: need d >= 1 and m >= 1, got d={d}, m={m}\n"

    @pytest.mark.parametrize("text", ["1 1\n", "1 1\n\n\n"])
    def test_function_file_without_knot_rows_is_clean_error(self, capsys, tmp_path, text):
        path = tmp_path / "f.txt"
        path.write_text(text)
        code, out, err = run(capsys, "eval", "--func", str(path), "--at", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: {path}: no knot rows after the 'd m' header\n"

    @pytest.mark.parametrize("at, token", [("abc", "abc"), ("0.5,x", "x"), ("0.5,", "")])
    def test_eval_point_that_is_not_numbers_is_clean_error(self, capsys, tmp_path, at, token):
        path = tmp_path / "f.txt"
        SampledFunction(grid=([0.0, 1.0],), values=[1.0, -1.0]).save(path)
        code, out, err = run(capsys, "eval", "--func", str(path), "--at", at)
        assert code == 2 and out == ""
        assert err == f"error: --at: could not convert string to float: {token!r}\n"

    @pytest.mark.parametrize("d, at", [(1, "0.5,0.5"), (2, "0.5"), (2, "0.25,0.5,0.75")])
    def test_eval_refuses_a_point_of_another_dimension(self, capsys, tmp_path, d, at):
        # a d = 1 file at a 2-d point used to end in "expected points of shape (N, 1), got (1, 2)"
        path = tmp_path / "f.txt"
        SampledFunction(grid=([0.0, 1.0],) * d, values=np.zeros((2,) * d + (3,))).save(path)
        code, out, err = run(capsys, "eval", "--func", str(path), "--at", at)
        assert code == 2 and out == ""
        assert err == f"error: {path} holds a map with d={d} m=3, but --at {at} needs d={len(at.split(','))}\n"

    @pytest.mark.parametrize("step", ["0", "-0.25", "nan", "inf"])
    def test_build_refuses_a_bad_step(self, capsys, tmp_path, step):
        path = tmp_path / "f.txt"
        code, out, err = run(capsys, "build", "--alpha", "1", "--lambda", "1",
                             "--d", "1", "--m", "1", "--sample", step, "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err == f"error: step must be finite and > 0, got {float(step)}\n"

    @pytest.mark.parametrize("step,d,cells", [(2.0**-25, 1, "33554432**1"), (2.0**-13, 2, "8192**2"), (2.0**-9, 3, "512**3")])
    def test_build_refuses_a_grid_over_the_cap(self, capsys, tmp_path, step, d, cells):
        path = tmp_path / "f.txt"
        code, out, err = run(capsys, "build", "--d", str(d), "--sample", repr(step), "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err == f"error: sample at step {step!r} needs {cells} cells, over the cap of 16777216\n"

    def test_build_without_sample(self, capsys):
        code, out, _ = run(capsys, "build", "--alpha", "0.5", "--lambda", "2",
                           "--d", "2", "--m", "2", "--p", "1")
        assert code == 0
        assert "q=1" in out


class TestCertifyCommand:
    def test_key_value_output(self, capsys):
        code, out, _ = run(capsys, "certify", "--alpha", "1", "--lambda", "1",
                           "--d", "1", "--m", "1", "--p", "0", "--eps", "0.0078125")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["n0"] == "1"
        assert lines["certified_count"] == "2"
        assert lines["paper_bound"] == "2"
        assert lines["mode"] == "theoretical"
        assert lines["level_1"] == "2/2"

    def test_envelope_past_the_quotient_overflow(self, capsys):
        # (16/psi)**2 overflows a double here; the envelope itself is about 2**848
        code, out, _ = run(capsys, "certify", "--d", "2", "--m", "2", "--eps", "1e-154")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        want = holder_lower_bound_log2(1.0, 1.0, 1e-154, 2, 0, 2.0 * math.sqrt(2.0))
        assert math.log2(float(lines["theory_bound"])) == pytest.approx(want, abs=1e-9)
        assert lines["envelope_ok"] == "true"

    def test_empirical_with_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        run(capsys, "build", "--alpha", "1", "--lambda", "1", "--d", "1", "--m", "1",
            "--p", "0", "--sample", "0.00390625", "--out", str(path))
        code, out, _ = run(capsys, "certify", "--alpha", "1", "--lambda", "1",
                           "--d", "1", "--m", "1", "--p", "0", "--eps", "0.0078125",
                           "--h", str(path))
        assert code == 0
        assert "mode=empirical" in out
        assert "certified_count=2" in out

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("eps", ["1", "0.0001220703125"])
    def test_function_file_of_another_shape_is_refused(self, capsys, tmp_path, d, m, eps):
        # at eps = 1 (n0 = 0) a d = 1 file was never read and the run printed
        # mode=empirical; at eps = 2**-13 it ended inside evaluate_many
        path = tmp_path / "f.txt"
        SampledFunction(grid=([0.0, 0.5, 1.0],) * d, values=np.zeros((3,) * d + (m,))).save(path)
        code, out, err = run(capsys, "certify", "--d", "2", "--m", "2", "--eps", eps, "--h", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path} holds a map with d={d} m={m}, but the certified map needs d=2 m=2\n"

    def test_function_file_of_the_map_shape_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        SampledFunction(grid=([0.0, 1.0],) * 2, values=np.zeros((2, 2, 2))).save(path)
        code, out, _ = run(capsys, "certify", "--d", "2", "--m", "2", "--eps", "1", "--h", str(path))
        assert code == 0 and "mode=empirical" in out

    def test_chart_flag_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "cert.csv"
        code, out, _ = run(capsys, "certify", "--alpha", "1", "--lambda", "1",
                           "--d", "1", "--m", "1", "--p", "0", "--eps", "0.0078125",
                           "--chart", "identity", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 2

    def test_affine_chart_spec(self, capsys):
        code, out, _ = run(capsys, "certify", "--alpha", "1", "--lambda", "1",
                           "--d", "1", "--m", "1", "--p", "0", "--eps", "0.0078125",
                           "--chart", "affine:2,0")
        assert code == 0
        assert "n0=1" in out

    def test_affine_chart_spec_that_is_not_numbers_is_clean_error(self, capsys):
        code, out, err = run(capsys, "certify", "--eps", "0.0078125", "--chart", "affine:1,x")
        assert code == 2 and out == ""
        assert err == "error: --chart: could not convert string to float: 'x'\n"

    @pytest.mark.parametrize("d,m", [("1", "1"), ("2", "1")])
    def test_zero_z_grid_is_clean_error(self, capsys, d, m):
        code, out, err = run(capsys, "certify", "--alpha", "1", "--lambda", "1",
                             "--d", d, "--m", m, "--p", "0", "--eps", "0.0078125",
                             "--z-grid", "0")
        assert code == 2
        assert out == ""
        assert "z-grid must be >= 1" in err

    @pytest.mark.parametrize(
        "d,m,h,why",
        [
            ("1", "1", True, "d = q = 1 leaves none"),
            ("2", "1", False, "theoretical mode (no h) runs none"),
        ],
    )
    def test_z_grid_that_slices_nothing_is_clean_error(self, capsys, tmp_path, d, m, h, why):
        path = tmp_path / "f.txt"
        run(capsys, "build", "--d", d, "--m", m, "--sample", "0.015625", "--out", str(path))
        code, out, err = run(capsys, "certify", "--d", d, "--m", m, "--eps", "0.0078125",
                             "--z-grid", "2", *(("--h", str(path)) if h else ()))
        assert code == 2 and out == ""
        assert err.startswith("error: z-grid 2 slices ") and err.endswith(f"{why}\n")

    def test_r0_without_chart_is_clean_error(self, capsys):
        code, out, err = run(capsys, "certify", "--eps", "0.0078125", "--r0", "0.5")
        assert code == 2 and out == ""
        assert err == "error: --r0 sets the chart's rectangle half-width, but no --chart is given\n"

    def test_r0_with_chart(self, capsys):
        # p = 1 needs eps <= r0, so r0 decides whether the certificate is vacuous
        argv = ("certify", "--alpha", "1", "--lambda", "1", "--d", "2", "--m", "2", "--p", "1",
                "--eps", "0.001", "--chart", "polar-demo")
        assert run(capsys, *argv)[1] == run(capsys, *argv, "--r0", "1")[1]
        assert "n0=0" in run(capsys, *argv, "--r0", "0.0005")[1]

    def test_unknown_chart_is_clean_error(self, capsys):
        code, _, err = run(capsys, "certify", "--alpha", "1", "--lambda", "1",
                           "--d", "1", "--m", "1", "--p", "0", "--eps", "0.0078125",
                           "--chart", "mystery")
        assert code == 2
        assert "error:" in err


class TestPerturbCommand:
    def test_flatten_writes_function(self, capsys, tmp_path):
        out_path = tmp_path / "h.txt"
        code, out, _ = run(capsys, "perturb", "--mode", "flatten", "--eps", "0.0078125",
                           "--C", "0.25", "--out", str(out_path))
        assert code == 0
        h = SampledFunction.load(out_path)
        assert h.d == 1 and h.m == 1

    @pytest.mark.parametrize(
        "eps,count,digest",
        [  # pinned before flatten's interval bound existed
            ("0.0078125", 30, "6ed7a7150ec8a64af4cefa802f87c77a828805fa28f06a75912ac70df04d856b"),
            ("0.0009765625", 131, "6e6988c327185f7a811156039117094ca70c6ef1cc30821a24eabcc91db6a4a9"),
            ("0.0001220703125", 592, "b394e2d8339a2c5aa0c45b8a2d26a841c13ec87a5f799a50dc6c374ed0bfc731"),
        ],
    )
    def test_flatten_output_is_pinned(self, capsys, tmp_path, eps, count, digest):
        out_path = tmp_path / "h.txt"
        code, out, _ = run(capsys, "perturb", "--mode", "flatten", "--eps", eps, "--out", str(out_path))
        assert code == 0
        assert out == f"wrote flatten perturbation to {out_path}: {count} zero components, flat=false\n"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_refine_reports_zero_count(self, capsys, tmp_path):
        out_path = tmp_path / "h.txt"
        code, out, _ = run(capsys, "perturb", "--mode", "refine", "--eps", "0.0078125",
                           "--C", "0.25", "--out", str(out_path))
        assert code == 0
        assert "zero components" in out

    def test_iterate_prints_rounds(self, capsys):
        code, out, _ = run(capsys, "perturb", "--mode", "iterate", "--eps", "0.015625",
                           "--C", "0.5", "--rounds", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k eps zero_count envelope"
        assert len(lines) == 3

    def test_iterate_runs_two_rounds_by_default(self, capsys):
        code, out, _ = run(capsys, "perturb", "--mode", "iterate", "--eps", "0.015625", "--C", "0.5")
        assert code == 0
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("mode", ["flatten", "refine"])
    def test_rounds_outside_iterate_is_clean_error(self, capsys, tmp_path, mode):
        out_path = tmp_path / "h.txt"
        code, out, err = run(capsys, "perturb", "--mode", mode, "--eps", "0.0078125", "--rounds", "3",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: --rounds counts the rounds of --mode iterate, but --mode {mode} runs one construction\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["flatten", "refine", "iterate"])
    @pytest.mark.parametrize(
        "modulus,why",
        [
            (("--alpha", "0.5"), "F is not Lipschitz at alpha = 0.5"),
            (("--alpha", "0.75", "--lambda", "2"), "F is not Lipschitz at alpha = 0.75"),
            (("--lambda", "8"), "F's Lipschitz constant at lambda = 8.0 is lambda/2 = 4.0"),
        ],
    )
    def test_extremal_target_outside_the_lipschitz_range_is_refused(self, capsys, tmp_path, mode, modulus, why):
        out_path = tmp_path / "h.txt"
        code, out, err = run(capsys, "perturb", "--mode", mode, "--eps", "0.0078125", *modulus, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: adversary runs need a 1-Lipschitz F (alpha = 1, lambda <= 2); {why}\n"
        assert not out_path.exists()

    def test_lambda_2_is_accepted(self, capsys, tmp_path):
        out_path = tmp_path / "h.txt"
        code, out, _ = run(capsys, "perturb", "--mode", "refine", "--eps", "0.0078125", "--lambda", "2", "--out", str(out_path))
        assert code == 0 and out_path.exists()

    def test_function_file_is_judged_by_its_knots_not_the_modulus_flags(self, capsys, tmp_path):
        # F sampled at lambda = 2 has slope exactly 1 at its knots, and at alpha = 1/2 it is steeper
        steep, edge = tmp_path / "steep.txt", tmp_path / "edge.txt"
        run(capsys, "build", "--alpha", "0.5", "--sample", "0.0078125", "--out", str(steep))
        run(capsys, "build", "--lambda", "2", "--sample", "0.0078125", "--out", str(edge))
        for fpath, want in ((steep, 2), (edge, 0)):
            code, _, _ = run(capsys, "perturb", "--mode", "refine", "--eps", "0.015625",
                             "--func", str(fpath), "--out", str(tmp_path / "h.txt"))
            assert code == want

    @pytest.mark.parametrize("flags", [("--alpha", "0.5"), ("--lambda", "1"), ("--alpha", "1", "--lambda", "8")])
    @pytest.mark.parametrize("mode", ["flatten", "refine", "iterate"])
    def test_function_file_refuses_the_modulus_flags(self, capsys, tmp_path, mode, flags):
        fpath, out_path = tmp_path / "f.txt", tmp_path / "h.txt"
        run(capsys, "build", "--sample", "0.0078125", "--out", str(fpath))
        code, out, err = run(capsys, "perturb", "--mode", mode, "--eps", "0.015625", *flags,
                             "--func", str(fpath), "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err == f"error: {flags[0]} sets the extremal map's modulus, but --func {fpath} replaces that map\n"

    @pytest.mark.parametrize("height", [0.5, -0.5])
    @pytest.mark.parametrize("mode", ["flatten", "refine", "iterate"])
    def test_steep_function_file_is_refused(self, capsys, tmp_path, mode, height):
        # a spike of height 1/2 over 2**-16, from which flatten's output lay 0.498 away at eps = 2**-7;
        # the slope named is of the magnitude, whichever way the spike points
        a, fpath, out_path = 0.3, tmp_path / "spike.txt", tmp_path / "h.txt"
        knots = np.array([0.0, a, a + 2.0**-17, a + 2.0**-16, 1.0])
        SampledFunction(grid=(knots,), values=np.array([[0.0], [0.0], [height], [0.0], [0.0]])).save(fpath)
        code, out, err = run(capsys, "perturb", "--mode", mode, "--eps", "0.0078125", "--func", str(fpath),
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: adversary runs need a 1-Lipschitz target; {fpath} has slope 65536.0 on [0.3, {float(knots[2])!r}]\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["flatten", "refine", "iterate"])
    def test_one_lipschitz_function_file_is_accepted(self, capsys, tmp_path, mode):
        # slopes 1, -1, 1 and 0: a segment of slope exactly 1 is not refused
        fpath, out_path = tmp_path / "tent.txt", tmp_path / "h.txt"
        knots = np.array([0.0, 0.25, 0.5, 0.625, 1.0])
        SampledFunction(grid=(knots,), values=np.array([[0.0], [0.25], [0.0], [0.125], [0.125]])).save(fpath)
        code, _, err = run(capsys, "perturb", "--mode", mode, "--eps", "0.0078125", "--func", str(fpath),
                           "--out", str(out_path))
        assert code == 0 and err == ""

    def test_missing_out_is_clean_error(self, capsys):
        code, _, err = run(capsys, "perturb", "--mode", "flatten", "--eps", "0.0078125")
        assert code == 2 and "needs --out" in err

    def test_function_file_input(self, capsys, tmp_path):
        fpath = tmp_path / "f.txt"
        run(capsys, "build", "--alpha", "1", "--lambda", "1", "--d", "1", "--m", "1",
            "--p", "0", "--sample", "0.0078125", "--out", str(fpath))
        out_path = tmp_path / "h.txt"
        code, _, _ = run(capsys, "perturb", "--mode", "refine", "--eps", "0.015625",
                         "--func", str(fpath), "--out", str(out_path))
        assert code == 0 and out_path.exists()

    @pytest.mark.parametrize("d, m", [(1, 2), (2, 1)])
    def test_function_file_that_is_not_scalar_is_refused(self, capsys, tmp_path, d, m):
        path = tmp_path / "f.txt"
        SampledFunction(grid=([0.0, 1.0],) * d, values=np.zeros((2,) * d + (m,))).save(path)
        code, out, err = run(capsys, "perturb", "--mode", "refine", "--eps", "0.125", "--func", str(path),
                             "--out", str(tmp_path / "h.txt"))
        assert code == 2 and out == ""
        assert err == f"error: {path} holds a map with d={d} m={m}, but perturb needs d=1 m=1\n"

    def test_non_finite_function_file_is_clean_error(self, capsys, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("1 1\n0 -1\n0.5 nan\n1 1\n")
        out_path = tmp_path / "h.txt"
        code, out, err = run(capsys, "perturb", "--mode", "refine", "--eps", "0.25",
                             "--func", str(fpath), "--out", str(out_path))
        assert code == 2 and out == ""
        assert "error: values must be finite, got nan at knot (0.5,)" in err
        assert not out_path.exists()


class TestSweepCommand:
    def test_writes_csv(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=1\nlambda=1\nd=1\nm=1\np=0\nj_min=6\nj_max=9\n")
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("eps,n0,")
        assert len(lines) == 5

    def test_chart_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=1\nlambda=1\nd=1\nm=1\np=0\nj_min=6\nj_max=7\n")
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path),
                         "--chart", "identity")
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 3

    def test_r0_without_chart_is_clean_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=1\nlambda=1\nd=1\nm=1\np=0\nj_min=6\nj_max=7\n")
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path), "--r0", "0.5")
        assert code == 2 and out == ""
        assert err == "error: --r0 sets the chart's rectangle half-width, but no --chart is given\n"
        assert not out_path.exists()

    def test_bad_config_is_clean_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=1\nwidget=2\n")
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == 2 and "unknown key" in err

    def test_adversary_budget_over_c_over_6_is_clean_error(self, capsys, tmp_path):
        # refused by the config check before row 1 is certified
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=1\nlambda=1\nd=1\nm=1\np=0\nj_min=2\nj_max=8\nadversary=true\nC=1\n")
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: adversary runs need 2**-j_min <= C/6 = 0.16666666666666666; " \
                      "j_min = 2 with C = 1.0 starts at 2**-2\n"
        assert not out_path.exists()

    def test_adversary_outside_the_lipschitz_range_is_clean_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha=0.5\nlambda=1\nd=1\nm=1\np=0\nj_min=6\nj_max=8\nadversary=true\n")
        out_path = tmp_path / "out.csv"
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: adversary runs need a 1-Lipschitz F (alpha = 1, lambda <= 2); F is not Lipschitz at alpha = 0.5\n"
        assert not out_path.exists()

    def test_python_dash_m_matches_main(self, capsys, tmp_path):
        # `python -m translab` from a checkout runs cli.main: same CSV, wall_ms aside
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=1\nlambda=1\nd=1\nm=1\np=0\nj_min=6\nj_max=9\nadversary=true\n")
        by_main, by_module = tmp_path / "main.csv", tmp_path / "module.csv"
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(by_main))
        assert code == 0
        src = Path(translab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "translab", "sweep", "--config", str(cfg), "--out", str(by_module)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, out.replace(str(by_main), str(by_module)), "")
        without_wall = lambda p: [row[:-1] for row in csv.reader(p.read_text().splitlines())]
        assert len(without_wall(by_module)) == 5
        assert without_wall(by_module) == without_wall(by_main)

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.txt"),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2 and "error:" in err
