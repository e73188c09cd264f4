import csv
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from translab import (
    ConfigError,
    DomainError,
    ExtremalFunction,
    ModulusSpec,
    SweepConfig,
    SweepRecord,
    count_zero_components,
    driver,
    extremal,
    fit_slope,
    flatten_perturbation,
    parse_config,
    read_csv,
    refine_interpolant,
    sweep,
    write_csv,
)
from translab import adversary
from translab.driver import CSV_HEADER
from translab.funcrep import count_value_zeros

from closed_form import holder_lower_bound

BASE = SweepConfig(alpha=1.0, lam=1.0, d=1, m=1, p=0, j_min=6, j_max=16)


def same_bits(h, want):
    return np.array_equal(h.grid[0].view(np.uint64), want.grid[0].view(np.uint64)) and np.array_equal(
        h.values.view(np.uint64), want.values.view(np.uint64)
    )


class TestSweep:
    def test_identity_band_steps(self):
        records = sweep(BASE)
        assert len(records) == 11
        by_j = {round(-math.log2(r.eps)): r for r in records}
        for j in range(6, 11):
            assert by_j[j].n0 == 1 and by_j[j].certified_lb == 2 and by_j[j].paper_lb == 2
        for j in range(11, 17):
            assert by_j[j].n0 == 2 and by_j[j].certified_lb == 18 and by_j[j].paper_lb == 16

    def test_record_invariants(self):
        records = sweep(replace(BASE, adversary=True, j_max=10))
        for r in records:
            if r.n0 >= 1:
                assert r.theory_lb <= r.certified_lb
            if r.adversary_ub is not None:
                assert r.certified_lb <= r.adversary_ub

    def test_empty_range(self, tmp_path):
        records = sweep(replace(BASE, j_min=7, j_max=6))
        assert records == []
        path = tmp_path / "empty.csv"
        write_csv(records, path)
        assert path.read_text().splitlines() == [
            "eps,n0,certified_lb,paper_lb,theory_lb,adversary_ub,theory_ub,wall_ms"
        ]
        assert read_csv(path) == []

    def test_theory_lb_matches_closed_form(self):
        records = sweep(replace(BASE, alpha=0.5, j_min=6, j_max=12))
        for r in records:
            want = holder_lower_bound(1.0, 0.5, r.eps, 1, 0, 2.0)
            assert r.theory_lb == pytest.approx(want, rel=1e-10)

    def test_determinism_apart_from_wall_ms(self, tmp_path):
        cfg = replace(BASE, j_max=10, adversary=True)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(sweep(cfg), p1)
        write_csv(sweep(cfg), p2)

        def strip_wall(path):
            return ["," .join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

        assert strip_wall(p1) == strip_wall(p2)

    def test_identity_chart_matches_flat_sweep(self):
        from translab import identity_chart

        flat = sweep(replace(BASE, j_max=9))
        through = sweep(replace(BASE, j_max=9), chart=identity_chart(1))
        strip = lambda rs: [replace(r, wall_ms=0) for r in rs]
        assert strip(flat) == strip(through)

    def test_adversary_sweep_matches_reference_csv(self, tmp_path):
        # the paper's central sweep, pinned cell for cell (wall_ms aside)
        cfg = replace(BASE, j_max=14, adversary=True, C=1.0)
        records = sweep(cfg)
        assert [r.adversary_ub for r in records] == [18, 30, 36, 36, 36, 36, 209, 592, 1060]
        path = tmp_path / "sweep.csv"
        write_csv(records, path)
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "sweep_adv_ref.csv"
        without_wall = lambda p: [row[:-1] for row in csv.reader(p.read_text().splitlines())]
        assert without_wall(path) == without_wall(reference)

    def test_adversary_counts_past_the_reference_range(self):
        # pinned before flatten's interval bound existed
        records = sweep(replace(BASE, j_min=15, j_max=18, adversary=True, C=1.0))
        assert [r.adversary_ub for r in records] == [1060, 1060, 1060, 1060]

    def test_adversary_ub_is_the_flatten_lift_zero_count_at_lambda_half(self):
        # flatten wins here (refine's interpolant has 132 132 zeros); the lift
        # holds pairs of zeros whose float roots round to one double
        records = sweep(replace(BASE, lam=0.5, j_min=20, j_max=20, adversary=True, C=1.0))
        assert [r.adversary_ub for r in records] == [28362]

    def test_chart_with_adversary_rejected(self):
        from translab import identity_chart

        with pytest.raises(ConfigError, match="flat-model"):
            sweep(replace(BASE, adversary=True, j_max=7), chart=identity_chart(1))


class TestSharedRefineMesh:
    """With the adversary on, one refine mesh at 2**-j_max serves every row."""

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_rows_count_what_a_per_row_rebuild_counts(self, monkeypatch, lam):
        # the moduli a sweep runs the adversary at; the first row counts
        # refine's strided values for every row, then each row counts
        # flatten's lift, and keeps the smaller count
        counted, count = [], driver.count_value_zeros
        monkeypatch.setattr(driver, "count_value_zeros", lambda v: counted.append(count(v)) or counted[-1])
        records = sweep(replace(BASE, lam=lam, adversary=True))  # j = 6..16
        scalar = ExtremalFunction(beta=ModulusSpec.power(lam, 1.0), d=1, q=1).as_scalar()
        flats, refineds = [], []
        for j in range(6, 17):
            flats.append(count_zero_components(flatten_perturbation(scalar, 2.0**-j, 1.0)))
            refineds.append(count_zero_components(refine_interpolant(scalar, 2.0**-j)))
            assert records[j - 6].adversary_ub == min(flats[-1].component_count, refineds[-1].component_count)
        assert counted == refineds + flats

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("lam", [1.0, 8.0])
    def test_strided_finest_is_refine_interpolant_at_every_modulus(self, alpha, lam):
        # the mesh nesting does not depend on the modulus, though the sweep
        # refuses the adversary outside alpha = 1, lambda <= 2
        scalar = ExtremalFunction(beta=ModulusSpec.power(lam, alpha), d=1, q=1).as_scalar()
        finest = refine_interpolant(scalar, 2.0**-16)
        for j in range(6, 17):
            coarse, s = refine_interpolant(scalar, 2.0**-j), 2 ** (16 - j)
            assert np.array_equal(finest.grid[0][::s].view(np.uint64), coarse.grid[0].view(np.uint64))
            assert np.array_equal(finest.values[::s, 0].view(np.uint64), coarse.values[:, 0].view(np.uint64))

    def test_one_mesh_at_the_finest_budget(self, monkeypatch):
        built = []
        refine_values = adversary.refine_values
        monkeypatch.setattr(driver, "refine_values", lambda f, eps: built.append(eps) or refine_values(f, eps))
        sweep(replace(BASE, j_max=10, adversary=True))
        assert built == [2.0**-10]

    def test_profile_points_per_sweep(self, monkeypatch):
        # j = 6..14: F took 161 644 points in 36 calls when every row built its
        # own refine mesh (130 825 knots, 65 537 distinct) and the flatten
        # scans sent the partition points again; then 96 348 points in 28
        # calls while flatten ran once per row, and in 9 calls while
        # the batched flatten built two groups (rows 6..13, row 14).  One group
        # sends them in one call per stage (partition, probe, scan and
        # re-interpolation), 4 calls.  Refine's 65 537 knots went in blocks of
        # 8192, 9 calls (the last held the knot 1.0 alone), and now go in 8
        # blocks, the knot 1.0 joined to the last; one call once took the whole mesh
        calls, profile_many = [], extremal.profile_many
        monkeypatch.setattr(extremal, "profile_many", lambda beta, s: calls.append(np.size(s)) or profile_many(beta, s))
        sweep(replace(BASE, j_max=14, adversary=True))
        assert (sum(calls), len(calls)) == (96348, 12)
        assert calls[:8] == [8192] * 7 + [8193]

    def test_beta_calls_per_sweep(self, monkeypatch):
        # j = 6..14: 17 calls while profile_many cut fixed blocks of its own,
        # so refine's last block of 8193 knots reached beta as 8192 + 1
        sizes, many = [], ModulusSpec.many
        monkeypatch.setattr(ModulusSpec, "many", lambda beta, s: sizes.append(np.size(s)) or many(beta, s))
        sweep(replace(BASE, j_max=14, adversary=True))
        assert len(sizes) == 16 and min(sizes) > 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's minor fault count")
    def test_minor_faults_per_warm_sweep(self, tmp_path):
        # a warm pass reuses the heap it freed, so it faults in almost no
        # pages: about 0.01 per pass once the lift table stopped growing it
        resource = pytest.importorskip("resource")
        cfg, path, passes = replace(BASE, j_max=14, adversary=True), tmp_path / "sweep.csv", 50
        for _ in range(5):
            write_csv(sweep(cfg), path)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(passes):
            write_csv(sweep(cfg), path)
        assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / passes < 5

    def test_mesh_is_counted_and_freed_before_the_lift_table(self, monkeypatch):
        # refine's value array goes before flatten lays out its table, so the
        # two never share the heap
        events, lift_table = [], adversary._lift_table
        monkeypatch.setattr(adversary, "_lift_table", lambda f, b, C: events.append("table") or lift_table(f, b, C))
        refine_values = adversary.refine_values
        monkeypatch.setattr(driver, "refine_values", lambda f, eps: events.append("mesh") or refine_values(f, eps))
        monkeypatch.setattr(driver, "count_value_zeros", lambda v: events.append(len(v)) or count_value_zeros(v))
        sweep(replace(BASE, j_max=14, adversary=True))
        refined = [2 ** (j + 2) + 1 for j in range(6, 15)]
        assert events[: len(refined) + 2] == ["mesh"] + refined + ["table"]

    def test_traced_peak_of_a_default_adversary_sweep(self):
        # the parent of the blockwise refine core read 2.48 MiB, with its lift
        # table, lifts and knot array live together.  Past about 1 MiB of
        # transient heap, glibc hands a pass's pages back at its end and the
        # next pass faults them in again; this sweep stays near 1.0 MiB
        cfg = replace(BASE, j_max=14, adversary=True)
        sweep(cfg)
        tracemalloc.start()
        try:
            sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2**20

    def test_empty_range_builds_no_mesh(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("a mesh was built, or F called")

        monkeypatch.setattr(driver, "refine_values", untouchable)
        monkeypatch.setattr(extremal, "profile_many", untouchable)
        assert sweep(replace(BASE, j_min=15, j_max=14, adversary=True)) == []


class TestCSV:
    def test_round_trip(self, tmp_path):
        records = sweep(replace(BASE, adversary=True, j_max=9))
        path = tmp_path / "out.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_absent_adversary_column(self, tmp_path):
        records = sweep(replace(BASE, j_max=7))
        path = tmp_path / "out.csv"
        write_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[5] == ""
        assert read_csv(path)[0].adversary_ub is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ConfigError):
            read_csv(path)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0.5,1,2,2,1,,2", "line 3: expected 8 cells, got 7"),
            ("0.5,1,2,2,1,,2,0,9", "line 3: expected 8 cells, got 9"),
            ("x,1,2,2,1,,2,0", "line 3: could not convert string to float: 'x'"),
            ("0.5,1,2,2,1,1.5,2,0", "line 3: invalid literal for int() with base 10: '1.5'"),
            ("0.5,1,2,2,1,,2,", "line 3: invalid literal for int() with base 10: ''"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0.5,1,2,2,1,,2,0\n" + row + "\n")
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path} {message}") + "$"):
            read_csv(path)

    def test_cells_formatted_by_declared_type(self, tmp_path):
        # float columns take 17 digits even when they hold an int; int columns refuse a float
        path = tmp_path / "out.csv"
        write_csv([SweepRecord(1, 1, 2, 2, 3, None, 2**60, 0)], path)
        assert path.read_text().splitlines()[1] == "1,1,2,2,3,,1.152921504606847e+18,0"
        with pytest.raises(ValueError):
            write_csv([SweepRecord(0.5, 1, 2.0, 2, 1.0, None, 2.0, 0)], path)

    def test_header_and_keys_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"The sweep CSV has header\n`{','.join(CSV_HEADER)}`;" in readme
        keys = re.search(r"Keys, read in lower case: ([^.]*)\.", driver.__doc__).group(1)
        assert re.split(r",\s+", keys) == list(driver._CONFIG_KEYS)


# seven required keys on lines 1-7
BASE_TEXT = "alpha=1\nlambda=1\nd=1\nm=1\np=0\nj_min=6\nj_max=8\n"


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config(
            "alpha = 1.0\nlambda = 2.0\nd = 1\nm = 1\np = 0\nj_min = 6\nj_max = 8\n"
        )
        assert cfg.lam == 2.0
        assert cfg.adversary is False and cfg.C == 1.0 and cfg.cw == 1.0

    def test_comments_and_blanks(self):
        cfg = parse_config(
            "# sweep setup\nalpha=1\nlambda=1\n\nd=1\nm=1\np=0\nj_min=6\nj_max=6\nadversary=true\nC=0.5\n"
        )
        assert cfg.adversary is True and cfg.C == 0.5

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            parse_config("alpha=1\nbogus=2\n")

    def test_missing_keys_named(self):
        with pytest.raises(ConfigError, match="^missing keys: lambda, d, m, p, j_min, j_max$"):
            parse_config("alpha=1\n")
        with pytest.raises(ConfigError, match="^missing keys: lambda$"):
            parse_config(BASE_TEXT.replace("lambda=1\n", ""))

    def test_field_validation_messages(self):
        with pytest.raises(ConfigError, match="alpha"):
            SweepConfig(alpha=2.0, lam=1.0, d=1, m=1, p=0, j_min=6, j_max=8)
        with pytest.raises(ConfigError, match="lambda"):
            SweepConfig(alpha=1.0, lam=0.0, d=1, m=1, p=0, j_min=6, j_max=8)
        with pytest.raises(ConfigError, match="d >= m - p >= 1"):
            SweepConfig(alpha=1.0, lam=1.0, d=1, m=3, p=0, j_min=6, j_max=8)
        with pytest.raises(ConfigError, match="adversary"):
            SweepConfig(alpha=1.0, lam=1.0, d=2, m=2, p=0, j_min=6, j_max=8, adversary=True)

    @pytest.mark.parametrize(
        "alpha,lam,why",
        [
            (0.25, 1.0, "F is not Lipschitz at alpha = 0.25"),
            (0.5, 1.0, "F is not Lipschitz at alpha = 0.5"),
            (0.75, 0.5, "F is not Lipschitz at alpha = 0.75"),
            (0.999, 8.0, "F is not Lipschitz at alpha = 0.999"),
            (1.0, 8.0, "F's Lipschitz constant at lambda = 8.0 is lambda/2 = 4.0"),
            (1.0, 2.0000000000000004, "F's Lipschitz constant at lambda = 2.0000000000000004 is lambda/2 = 1.0000000000000002"),
        ],
    )
    def test_adversary_needs_a_1_lipschitz_target(self, alpha, lam, why):
        # outside alpha = 1, lambda <= 2 flatten and refine were measured up to 32 eps from F;
        # the config is refused when built, so no sweep can start on it
        message = "^" + re.escape(f"adversary runs need a 1-Lipschitz F (alpha = 1, lambda <= 2); {why}") + "$"
        with pytest.raises(ConfigError, match=message):
            replace(BASE, alpha=alpha, lam=lam, adversary=True)
        with pytest.raises(ConfigError, match=message):
            replace(BASE, alpha=alpha, lam=lam, adversary=True, j_min=9, j_max=8)  # refused even with no budget to sweep
        text = BASE_TEXT.replace("alpha=1\nlambda=1\n", f"alpha={alpha!r}\nlambda={lam!r}\n") + "adversary=true\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        replace(BASE, alpha=alpha, lam=lam)  # the certifier alone takes any modulus

    @pytest.mark.parametrize("lam", [2.0**-20, 0.5, 1.0, 2.0])
    def test_adversary_accepts_lambda_up_to_2(self, lam):
        replace(BASE, lam=lam, adversary=True)

    @pytest.mark.parametrize("j_max", [23, 40])
    def test_adversary_past_the_mesh_cap_rejected(self, j_max):
        # refine's mesh at eps = 2**-j has 2**(j + 2) cells; the cap is 2**24, so j = 23 is the first budget refused
        message = ("adversary runs at j = 23, C = 1.0: refine_interpolant at eps = 1.1920928955078125e-07 "
                   "needs 33554432 cells, over the cap of 16777216")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(BASE, j_max=j_max, adversary=True)
        replace(BASE, j_max=j_max)  # the certifier alone is not capped here
        replace(BASE, j_max=22, adversary=True)

    def test_adversary_empty_range_checks_no_budget(self):
        # j = 30..25 sweeps no budget, so no refine mesh is laid out and none is refused
        cfg = SweepConfig(alpha=1, lam=1, d=1, m=1, p=0, j_min=30, j_max=25, adversary=True)
        assert sweep(cfg) == []
        assert parse_config(BASE_TEXT.replace("j_min=6", "j_min=30").replace("j_max=8", "j_max=25") + "adversary=true\n") == cfg

    @pytest.mark.parametrize("j_min,C", [(2, 1.0), (-3, 1.0), (-1023, 1.0), (5, 0.1), (3, 0.5), (4, 0.1875)])
    def test_adversary_first_budget_over_c_over_6_refused(self, j_min, C):
        # flatten needs eps <= C/6 at every budget; the first one is the largest.
        # The config is refused when built, so no sweep can start on it
        message = "^" + re.escape(f"adversary runs at j = {j_min}, C = {C!r}: need 0 < eps <= C/6 = {C / 6.0!r}, "
                                  f"got {2.0**-j_min!r}") + "$"
        with pytest.raises(ConfigError, match=message):
            replace(BASE, j_min=j_min, j_max=8, adversary=True, C=C)
        text = BASE_TEXT.replace("j_min=6", f"j_min={j_min}") + f"adversary=true\nC={C!r}\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        if C == 1.0:
            replace(BASE, j_min=j_min, j_max=8)  # the certifier alone has no such bound
        else:
            with pytest.raises(ConfigError, match="but the adversary is off$"):
                replace(BASE, j_min=j_min, j_max=8, C=C)  # only flatten reads C
        replace(BASE, j_min=j_min, j_max=j_min - 1, adversary=True, C=C)  # an empty range sweeps no budget

    @pytest.mark.parametrize(
        "j_min,j_max,message",
        [
            (1, 10**10, "j_max must be at most 1074 (2**-1075 rounds to 0.0), got 10000000000"),
            (1070, 1080, "j_max must be at most 1074 (2**-1075 rounds to 0.0), got 1080"),
            (-1024, 8, "j_min must be at least -1023 (2**1024 overflows a double), got -1024"),
            (-2000, -2001, "j_min must be at least -1023 (2**1024 overflows a double), got -2000"),
        ],
    )
    @pytest.mark.parametrize("adversary", [False, True])
    def test_budgets_that_are_not_finite_positive_doubles_refused(self, monkeypatch, j_min, j_max, message, adversary):
        # 2**-j must be a finite positive double at every j of the range; the
        # range is refused when the config is built, before any budget is listed
        def untouchable(*args, **kwargs):
            raise AssertionError("a budget list was built")

        monkeypatch.setattr(driver, "range", untouchable, raising=False)  # the budgets are listed over range()
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(BASE, j_min=j_min, j_max=j_max, adversary=adversary)
        text = BASE_TEXT.replace("j_min=6", f"j_min={j_min}").replace("j_max=8", f"j_max={j_max}")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            parse_config(text + f"adversary={adversary}\n")

    @pytest.mark.parametrize("j", [1074, -1023])
    def test_budgets_at_the_ends_of_the_double_range_sweep(self, j):
        (row,) = sweep(replace(BASE, j_min=j, j_max=j))
        assert row.eps == 2.0**-j > 0.0 and math.isfinite(row.eps)
        assert row.n0 == (30 if j > 0 else 0)

    @pytest.mark.parametrize("j_min,C", [(3, 1.0), (7, 0.1), (5, 0.1875)])
    def test_adversary_budgets_at_or_under_c_over_6_accepted(self, j_min, C):
        # C = 0.1875 puts C/6 at 2**-5 exactly, and the bound is inclusive
        replace(BASE, j_min=j_min, j_max=8, adversary=True, C=C)
        assert 2.0**-j_min <= C / 6.0

    @pytest.mark.parametrize("key,field,value", [
        ("lambda", "lam", math.nan), ("lambda", "lam", math.inf), ("lambda", "lam", -math.inf),
        ("cw", "cw", math.nan), ("cw", "cw", math.inf), ("cw", "cw", -1.0), ("cw", "cw", 0.0),
    ])
    def test_non_finite_or_non_positive_scales_refused(self, key, field, value):
        fields = dict(alpha=1.0, lam=1.0, d=1, m=1, p=0, j_min=6, j_max=8)
        with pytest.raises(ConfigError, match=rf"^{key} must be positive and finite"):
            SweepConfig(**{**fields, field: value})
        if field == "lam":
            text = BASE_TEXT.replace("lambda=1\n", f"lambda={value}\n")
        else:
            text = f"{BASE_TEXT}cw={value}\n"
        with pytest.raises(ConfigError, match=rf"^{key} must be positive and finite"):
            parse_config(text)

    def test_bad_value_reported_with_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("alpha=abc\n")

    @pytest.mark.parametrize("word,flag", [("TRUE", True), ("Yes", True), ("1", True),
                                           ("false", False), ("NO", False), ("0", False)])
    def test_adversary_words(self, word, flag):
        cfg = parse_config(f"{BASE_TEXT}adversary = {word}\n")
        assert cfg.adversary is flag

    @pytest.mark.parametrize("word", ["ture", "on", "", "2", "true false"])
    def test_adversary_typo_is_error(self, word):
        with pytest.raises(ConfigError, match=r"line 8: bad value for 'adversary'"):
            parse_config(f"{BASE_TEXT}adversary = {word}\n")

    def test_repeated_key_names_second_line(self):
        with pytest.raises(ConfigError, match=r"line 9: key 'alpha' given twice"):
            parse_config(f"{BASE_TEXT}\nalpha=0.5\n")
        with pytest.raises(ConfigError, match=r"line 9: key 'c' given twice"):
            parse_config(f"{BASE_TEXT}C=0.5\nc=0.25\n")

    @pytest.mark.parametrize("C", [0.5, 0.1875, math.nextafter(1.0, 0.0)])
    def test_c_without_the_adversary_refused_in_code(self, C):
        # a config built in code obeys the file rule: C would be accepted and ignored
        message = "^" + re.escape(f"C = {C!r} sets flatten's partition constant, but the adversary is off") + "$"
        with pytest.raises(ConfigError, match=message):
            replace(BASE, C=C)
        replace(BASE, C=C, adversary=True)
        replace(BASE, C=1.0)

    @pytest.mark.parametrize("extra,line", [("C=0.5\n", 8), ("c = 1\nadversary = no\n", 8), ("adversary=false\nC=1\n", 9)])
    def test_key_c_without_the_adversary_is_error(self, extra, line):
        # only flatten reads C, so with the adversary off it would be accepted and ignored
        with pytest.raises(ConfigError, match=rf"^line {line}: key 'c' sets flatten's partition constant, but the adversary is off$"):
            parse_config(BASE_TEXT + extra)


class TestFitSlope:
    def test_upper_curve_slope_is_exact(self):
        records = sweep(replace(BASE, j_max=20))
        assert fit_slope(records, "theory_ub") == pytest.approx(-1.0, abs=1e-9)

    def test_lower_curve_slope_is_shallower(self):
        # frozen from the fit on computed envelope values over j = 6..20
        records = sweep(replace(BASE, j_max=20))
        slope = fit_slope(records, "theory_lb")
        assert slope == pytest.approx(-0.4034511217282089, abs=1e-9)
        assert slope > -1.0 + 0.05

    def test_constant_column(self):
        rows = [
            SweepRecord(2.0**-j, 1, 2, 2, 1.0, None, 5.0, 0) for j in range(6, 10)
        ]
        assert fit_slope(rows, "theory_ub") == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_rows(self):
        rows = [SweepRecord(0.5, 1, 2, 2, 1.0, None, 5.0, 0)] * 2
        with pytest.raises(DomainError):
            fit_slope(rows, "theory_ub")

    def test_skips_infinite_values(self):
        # theory_ub at alpha = 1 is 2**j, past the double range from j = 1024
        records = sweep(replace(BASE, j_min=1018, j_max=1026))
        assert sum(math.isinf(r.theory_ub) for r in records) == 3
        assert fit_slope(records, "theory_ub") == pytest.approx(-1.0, abs=1e-9)
        assert all(math.isfinite(r.theory_lb) for r in records)

    @pytest.mark.parametrize("alpha,m,j_min,j_max", [(1.0, 2, 505, 512), (0.5, 1, 511, 514), (0.5, 1, -600, -598)])
    def test_sweeps_past_the_envelope_overflow_run(self, alpha, m, j_min, j_max):
        records = sweep(replace(BASE, alpha=alpha, d=m, m=m, j_min=j_min, j_max=j_max))
        assert len(records) == j_max - j_min + 1
        assert all(r.theory_lb < math.inf for r in records)

    def test_skips_missing_values(self):
        rows = [
            SweepRecord(2.0**-j, 1, 2, 2, 1.0, None if j % 2 else 2**j, 5.0, 0)
            for j in range(6, 14)
        ]
        assert fit_slope(rows, "adversary_ub") == pytest.approx(-1.0, abs=1e-9)
