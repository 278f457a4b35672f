import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUSED,
    main,
)
from ieskit.dynsys import MAX_STORED_VALUES
from ieskit.scenarios import (
    ACTIONS,
    MAX_INVARIANT_POINTS,
    PARAMS,
    SCHEMA,
    SYSTEMS,
    ConfigError,
    Scenario,
    parse_config,
)
from ieskit import scenarios
from ieskit.fhn import FhnParams
from ieskit.smallgain import parse_certificate_record


def write_config(tmp_path, body, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = figures
""")
        sc = parse_config(cfg)
        assert sc.horizon == 100.0
        assert sc.step == 0.01
        assert sc.seed == 0
        echo = sc.echo()
        assert "system=fhn" in echo and "horizon=100" in echo

    def test_unknown_key_is_line_anchored_error(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = figures
frobnicate = 7
""")
        with pytest.raises(ConfigError, match=r":5: unknown key 'frobnicate'"):
            parse_config(cfg)

    def test_zero_epsilon_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = simulate
initial = 1 0

[params]
epsilon = 0
""")
        with pytest.raises(ConfigError, match="epsilon must be positive"):
            parse_config(cfg)

    def test_alpha_constraint_violation_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = fc_table

[params]
r = 2.1
alpha = 9.0
""")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(cfg)

    def test_fig3_params_echo(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = simulate
initial = 2 0

[params]
c = 1
b = 1
epsilon = 0.9
rho1 = 1
rho2 = 1
""")
        sc = parse_config(cfg)
        echo = sc.echo()
        for token in ("c=1", "b=1", "epsilon=0.9", "rho1=1", "rho2=1"):
            assert token in echo

    def test_missing_mandatory_key(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\n")
        with pytest.raises(ConfigError, match="action"):
            parse_config(cfg)

    def test_type_mismatch_is_line_anchored(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = figures
horizon = plenty
""")
        with pytest.raises(ConfigError, match=r":5: horizon must be a number"):
            parse_config(cfg)

    def test_unknown_system_and_action(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nsystem = lorenz\naction = figures\n")
        with pytest.raises(ConfigError, match="unknown system"):
            parse_config(cfg)
        cfg2 = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = fly\n",
                            name="b.cfg")
        with pytest.raises(ConfigError, match="unknown action"):
            parse_config(cfg2)

    def test_simulate_requires_initial_condition(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = simulate\n")
        with pytest.raises(ConfigError, match="initial"):
            parse_config(cfg)

    def test_malformed_line(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nsystem fhn\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(cfg)

    def test_polynomial_system_parses(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = user_polynomial
action = simulate
initial = 1 0.5
horizon = 5

[params]
n = 1
m = 1
rho1 = 0.1
rho2 = 0.1
f1_0 = -1 1
f2_0 = -2 1
g1_0 = 1 1
g2_0 = 1 1
""")
        sc = parse_config(cfg)
        ic = sc.model
        assert ic.n == 1 and ic.m == 1
        np.testing.assert_allclose(ic.f1.rhs(0.0, np.array([2.0])), [-2.0])


class TestCliRuns:
    def test_simulate_linear_decay(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = builtin_linear
action = simulate
horizon = 10
step = 0.001
initial = 1

[params]
dim = 1
""")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "trajectory_00.csv").read_text().splitlines()
        assert lines[1] == "t,z1"
        last = lines[-1].split(",")
        assert float(last[0]) == 10.0
        assert float(last[1]) == pytest.approx(np.exp(-10.0), rel=1e-8)

    def test_figures_defaults_and_headers(self, tmp_path):
        rc = main(["figures", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        captions = {
            1: "c=1 b=0.1 epsilon=1 rho1=1 rho2=1",
            2: "c=1 b=0.1 epsilon=1 rho1=0.1 rho2=0.1",
            3: "c=1 b=1 epsilon=0.9 rho1=1 rho2=1",
        }
        for fig, caption in captions.items():
            text = (tmp_path / f"figure{fig}.csv").read_text()
            head = text.splitlines()[0]
            assert caption in head
            assert text.splitlines()[1] == "t,x1,y1,x2,y2,distance"

    def test_figures_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["figures", "--out", str(out1), "--seed", "7"]) == EXIT_OK
        assert main(["figures", "--out", str(out2), "--seed", "7"]) == EXIT_OK
        for fig in (1, 2, 3):
            b1 = (out1 / f"figure{fig}.csv").read_bytes()
            b2 = (out2 / f"figure{fig}.csv").read_bytes()
            assert b1 == b2

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = oops\n")
        assert main(["figures", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG

    def test_action_subcommand_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = figures\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = user_polynomial
action = simulate
horizon = 10
step = 0.01
initial = 3 0

[params]
n = 1
m = 1
f1_0 = 1 3
f2_0 = -1 1
g1_0 = 0 0
g2_0 = 0 0
""")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP

    def test_certify_writes_roundtripping_record(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = certify

[params]
r = 2.1
b = 1
epsilon = 0.9
alpha = 1

[certify]
radius = 12
alpha = 0.5
""")
        out = tmp_path / "cert"
        rc = main(["certify", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        rec = parse_certificate_record(out / "certificate.rec")
        assert float(rec["rho1_max"]) > 0
        assert rec["decay_check"] == "pass"
        assert (out / "certificate.txt").read_text().startswith("gain certificate")

    def test_certify_refusal_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = certify

[params]
c = 1
b = 0.1
epsilon = 1

[certify]
radius = 5.1
alpha = 0.01
rho1 = 1
rho2 = 1
""")
        rc = main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_REFUSED

    def test_fc_table_export(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = fc_table

[params]
r = 2.1
alpha = 1
""")
        out = tmp_path / "tab"
        rc = main(["fc-table", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "fc_table.csv").read_text().splitlines()
        assert lines[0].startswith("# mu=")
        assert lines[1] == "x,f_c,f_c_prime"

    def test_invariant_set_report(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = fhn
action = invariant_set

[params]
c = 1
b = 0.1
epsilon = 1

[invariant]
level_min = 1
level_max = 20
box_halfwidth = 6.5
density = 81
""")
        out = tmp_path / "inv"
        rc = main(["invariant-set", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "invariant_set.txt").read_text()
        assert "level = " in text and "radius = " in text

    def test_invariant_set_not_found_names_the_best_shell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FHN_INVARIANT.replace(
            "density = 41", "density = 41\nlevel_min = 0.5\nlevel_max = 1\nlevels = 5"))
        rc = main(["invariant-set", "--config", str(cfg), "--out", str(tmp_path / "inv")])
        assert rc == EXIT_REFUSED
        err = capsys.readouterr().err
        assert err.startswith("invariant set not found: ")
        assert "best shell at level 0.875 has worst Wdot 2.02" in err

    def test_estimate_writes_csvs(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = builtin_linear
action = estimate
horizon = 10
step = 0.02
seed = 1

[params]
dim = 2

[estimate]
pairs = 4
""")
        out = tmp_path / "est"
        rc = main(["estimate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "pair_id,K,lambda,verdict"
        assert len(summary) == 5
        assert all(line.endswith("contracting") for line in summary[1:])

    def test_estimate_reproducible_with_seed(self, tmp_path):
        cfg = write_config(tmp_path, """
[scenario]
system = builtin_linear
action = estimate
horizon = 5
step = 0.05

[params]
dim = 2

[estimate]
pairs = 3
""")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["estimate", "--config", str(cfg), "--out", str(out),
                         "--seed", "9"]) == EXIT_OK
            outs.append((out / "distances.csv").read_bytes())
        assert outs[0] == outs[1]


LINEAR_ESTIMATE = """
[scenario]
system = builtin_linear
action = estimate
horizon = 2
step = 0.1

[params]
dim = 2

[estimate]
pairs = 2
"""
FHN_CERTIFY = """
[scenario]
system = fhn
action = certify

[params]
r = 2.1
b = 1
epsilon = 0.9

[certify]
radius = 6
"""
FHN_INVARIANT = """
[scenario]
system = fhn
action = invariant_set

[params]
c = 1
b = 0.1
epsilon = 1

[invariant]
box_halfwidth = 6.5
density = 41
"""
FHN_FIGURES = """
[scenario]
system = fhn
action = figures
horizon = 1
initial = 2 0; -2 1
"""
POLYNOMIAL_SIMULATE = """
[scenario]
system = user_polynomial
action = simulate
initial = 1 1

[params]
n = 1
m = 1
f1_0 = -1 1
f2_0 = -1 1
g1_0 = 1 1
g2_0 = 1 1
"""

# (subcommand, config, old line -> new line, key on the line the error names)
BAD_VALUES = {
    "pairs_not_integer": ("estimate", LINEAR_ESTIMATE, "pairs = 2", "pairs = abc", "pairs"),
    "radius_not_number": ("certify", FHN_CERTIFY, "radius = 6", "radius = big", "radius"),
    "radius_negative": ("certify", FHN_CERTIFY, "radius = 6", "radius = -3", "radius"),
    "dim_zero": ("estimate", LINEAR_ESTIMATE, "dim = 2", "dim = 0", "dim"),
    "matrix_ragged": ("estimate", LINEAR_ESTIMATE, "dim = 2", "matrix = 1 2; 3", "matrix"),
    "box_reversed": ("estimate", LINEAR_ESTIMATE, "pairs = 2",
                     "pairs = 2\nbox = -1 1; 1 -1", "box"),
    "box_diagonal_below_separation": ("estimate", LINEAR_ESTIMATE, "pairs = 2",
                                      "pairs = 2\nbox = 0 1e-7; 0 1e-7", "box"),
    "weight_denominator_not_positive": ("certify", FHN_CERTIFY, "r = 2.1", "r = 1.23", "r"),
    "weight_denominator_not_positive_fc_table": (
        "fc-table", FHN_CERTIFY, "action = certify\n\n[params]\nr = 2.1",
        "action = fc_table\n\n[params]\nr = 1.23", "r"),
    "step_over_half_horizon": ("estimate", LINEAR_ESTIMATE, "horizon = 2\nstep = 0.1",
                               "horizon = 1\nstep = 0.9", "step"),
    "horizon_nan": ("estimate", LINEAR_ESTIMATE, "horizon = 2", "horizon = nan", "horizon"),
    "horizon_inf": ("estimate", LINEAR_ESTIMATE, "horizon = 2", "horizon = inf", "horizon"),
    "levels_reversed": ("invariant-set", FHN_INVARIANT, "density = 41",
                        "density = 41\nlevel_min = 5\nlevel_max = 2", "level_max"),
    "density_one": ("invariant-set", FHN_INVARIANT, "density = 41", "density = 1",
                    "density"),
    "levels_zero": ("invariant-set", FHN_INVARIANT, "density = 41",
                    "density = 41\nlevels = 0", "levels"),
    # grids and level lists above MAX_INVARIANT_POINTS, refused before any
    # allocation: 10^10 points (74.5 GiB), 10^9 levels (7.45 GiB), and the
    # default density 81 in 6-D, 81^6 points (2.05 TiB)
    "density_grid_too_large": ("invariant-set", FHN_INVARIANT, "density = 41",
                               "density = 100000", "density"),
    "levels_too_many": ("invariant-set", FHN_INVARIANT, "density = 41",
                        "density = 41\nlevels = 1000000000", "levels"),
    "default_density_in_6d": ("invariant-set", LINEAR_ESTIMATE,
                              "action = estimate\nhorizon = 2\nstep = 0.1\n\n[params]\ndim = 2",
                              "action = invariant_set\nhorizon = 2\nstep = 0.1\n\n[params]\n"
                              "dim = 6", "dim"),
    "tolerance_nan": ("certify", FHN_CERTIFY, "action = certify",
                      "action = certify\ntolerance = nan", "tolerance"),
    "polynomial_term": ("simulate", POLYNOMIAL_SIMULATE, "f1_0 = -1 1", "f1_0 = -1 x",
                        "f1_0"),
    "polynomial_exponent_fraction": ("simulate", POLYNOMIAL_SIMULATE, "f1_0 = -1 1",
                                     "f1_0 = -1 3.5", "f1_0"),
    "transient_skip_out_of_range": ("estimate", LINEAR_ESTIMATE, "pairs = 2",
                                    "pairs = 2\ntransient_skip = 1.5", "transient_skip"),
    "initial_odd_for_estimate": ("estimate", LINEAR_ESTIMATE, "step = 0.1",
                                 "step = 0.1\ninitial = 1 0; 0 1; 1 1", "initial"),
    "initial_over_pairs": ("estimate", LINEAR_ESTIMATE, "step = 0.1",
                           "step = 0.1\ninitial = 1 0; 0 1; 1 1; 0 0; 2 2; 1 -1",
                           "initial"),
    "certify_on_linear": ("certify", LINEAR_ESTIMATE, "action = estimate",
                          "action = certify", "system"),
    "fc_table_on_linear": ("fc-table", LINEAR_ESTIMATE, "action = estimate",
                           "action = fc_table", "system"),
    "figures_on_linear": ("figures", LINEAR_ESTIMATE, "action = estimate",
                          "action = figures", "system"),
    "figures_one_initial": ("figures", FHN_FIGURES, "initial = 2 0; -2 1",
                            "initial = 1 0", "initial"),
    "figures_three_initial": ("figures", FHN_FIGURES, "initial = 2 0; -2 1",
                              "initial = 2 0; -2 1; 1 1", "initial"),
    # fixed-step solves above MAX_STORED_VALUES per array: 21 samples of
    # 8 * 10^6 2-D rows, and 10 001 samples of 7 000 2-D rows
    "pairs_solve_too_large": ("estimate", LINEAR_ESTIMATE, "pairs = 2", "pairs = 4000000",
                              "pairs"),
    "initial_solve_too_large": ("simulate", POLYNOMIAL_SIMULATE, "initial = 1 1",
                                "initial = " + "; ".join(["1 1"] * 7000), "initial"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_2_with_line_anchor(case, tmp_path, capsys):
    command, body, old, new, key = BAD_VALUES[case]
    assert old in body
    text = body.replace(old, new)
    line = next(i for i, raw in enumerate(text.splitlines(), start=1)
                if raw.startswith(f"{key} ="))
    cfg = write_config(tmp_path, text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"{cfg}:{line}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invariant_grid_limit_is_exact(tmp_path):
    # 2048^2 is MAX_INVARIANT_POINTS; the check is integer arithmetic that
    # parse_config makes before any grid is built
    assert 2048**2 == MAX_INVARIANT_POINTS
    at_limit = FHN_INVARIANT.replace("density = 41", "density = 2048\nlevels = 4194304")
    inv = parse_config(write_config(tmp_path, at_limit)).options["invariant"]
    assert (inv["density"], inv["levels"]) == (2048, MAX_INVARIANT_POINTS)
    over = FHN_INVARIANT.replace("density = 41", "density = 2049")
    with pytest.raises(ConfigError, match="density = 2049 asks for 4198401 grid points in 2-D, "
                                          "above the limit of 4194304"):
        parse_config(write_config(tmp_path, over))
    # the limit is the invariant_set grid's: another action never builds it
    other = LINEAR_ESTIMATE.replace("dim = 2", "dim = 6")
    assert parse_config(write_config(tmp_path, other)).options["invariant"]["density"] == 81


def test_solve_size_limit_is_exact(tmp_path):
    # 8191 unit steps store 2^13 samples; 4096 pairs are 2^13 rows of
    # dimension 2, so the solve stores exactly MAX_STORED_VALUES per array
    assert 2**13 * 2**13 * 2 == MAX_STORED_VALUES
    at_limit = LINEAR_ESTIMATE.replace("horizon = 2\nstep = 0.1", "horizon = 8191\nstep = 1")
    assert parse_config(write_config(tmp_path, at_limit.replace(
        "pairs = 2", "pairs = 4096"))).options["estimate"]["pairs"] == 4096
    with pytest.raises(ConfigError, match=r":12: a fixed-step solve of shape \(8192, 8194, 2\) "
                                          r"would store 134250496 values per array, above "
                                          r"the limit of 134217728"):
        parse_config(write_config(tmp_path, at_limit.replace("pairs = 2", "pairs = 4097")))
    # at the default pairs the step line is the one named
    default_pairs = at_limit.replace("pairs = 2", "").replace("step = 1", "step = 0.001")
    with pytest.raises(ConfigError, match=r":6: a fixed-step solve of shape \(8191001, 40, 2\)"):
        parse_config(write_config(tmp_path, default_pairs))


def test_a_dim_too_large_is_refused_before_minus_identity_is_built(tmp_path, monkeypatch,
                                                                   capsys):
    # minus identity of dim = 11 586 holds more than MAX_STORED_VALUES values;
    # 11 585 is the largest dim within it, and reaches np.eye (patched, since
    # minus identity of that size would take 1 GiB)
    def no_eye(*args, **kwargs):
        raise AssertionError("np.eye called")

    largest = math.isqrt(MAX_STORED_VALUES)
    assert largest**2 <= MAX_STORED_VALUES < (largest + 1) ** 2
    monkeypatch.setattr(np, "eye", no_eye)
    for dim in (largest + 1, 1_000_000):
        cfg = write_config(tmp_path, LINEAR_ESTIMATE.replace("dim = 2", f"dim = {dim}"))
        rc = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {cfg}:9: dim must be positive with dim * dim at most "
            f"{MAX_STORED_VALUES}, got '{dim}'\n")
    cfg = write_config(tmp_path, LINEAR_ESTIMATE.replace("dim = 2", f"dim = {largest}"))
    with pytest.raises(AssertionError, match="np.eye called"):
        parse_config(cfg)
    monkeypatch.undo()
    for dim in (1, 3):
        cfg = write_config(tmp_path, LINEAR_ESTIMATE.replace("dim = 2", f"dim = {dim}"))
        assert np.array_equal(parse_config(cfg).model, -np.eye(dim))


@pytest.mark.parametrize("coefficient", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command", ["simulate", "invariant-set"])
def test_a_non_finite_coefficient_exits_2_before_any_solve(coefficient, command, tmp_path,
                                                           monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(scenarios, "integrate", no_solve)
    monkeypatch.setattr(scenarios, "find_invariant_level", no_solve)
    text = POLYNOMIAL_SIMULATE.replace("f1_0 = -1 1", f"f1_0 = {coefficient} 1")
    cfg = write_config(tmp_path, text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {cfg}:10: f1_0: term '{coefficient} 1' has a coefficient "
        f"that is not finite\n")
    assert not (tmp_path / "o").exists()


def test_oversized_estimate_exits_2_before_drawing_a_pair(tmp_path, monkeypatch, capsys):
    def draw(*args):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr("ieskit.scenarios.sample_pairs_box", draw)
    text = FHN_CERTIFY.replace("action = certify", "action = estimate\nhorizon = 100\n"
                               "step = 0.01").replace("[certify]\nradius = 6",
                                                      "[estimate]\npairs = 200000")
    cfg = write_config(tmp_path, text)
    start = time.perf_counter()
    rc = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_CONFIG
    assert f"{cfg}:14: a fixed-step solve of shape (10001, 400000, 2)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_weight_domain_is_checked_only_where_the_weight_is_built(tmp_path):
    # at r = 1.23, x - x^3/3 + c dips below zero near x = -1, which only the
    # weight table cares about
    text = FHN_CERTIFY.replace("action = certify", "action = estimate").replace(
        "r = 2.1", "r = 1.23")
    assert parse_config(write_config(tmp_path, text)).model.r == 1.23


def test_figures_runs_the_given_pair(tmp_path):
    out = tmp_path / "o"
    assert main(["figures", "--config", str(write_config(tmp_path, FHN_FIGURES)),
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "figure1.csv").read_text().splitlines()
    assert " z1=2 0 z2=-2 1 " in lines[0]
    assert lines[2] == "0.0,2.0,0.0,-2.0,1.0," + repr(math.hypot(4.0, 1.0))


# (config text, line the error names or None for the file alone, message)
STRUCTURE_ERRORS = {
    "unknown_section": ("[scenario]\nsystem = fhn\naction = figures\n[plots]\n", 4,
                        "unknown section [plots]"),
    "duplicate_section": ("[scenario]\nsystem = fhn\n[scenario]\naction = figures\n", 3,
                          "duplicate section [scenario]"),
    "key_outside_section": ("system = fhn\n[scenario]\naction = figures\n", 1,
                            "key outside any [section]"),
    "duplicate_key": ("[scenario]\nsystem = fhn\naction = figures\nsystem = fhn\n", 4,
                      "duplicate key 'system'"),
    "missing_scenario": ("[params]\nb = 1\n", None, "missing mandatory section [scenario]"),
    "c_and_r": ("[scenario]\nsystem = fhn\naction = figures\n[params]\nc = 1\nr = 2.1\n", 5,
                "give either c or r, not both"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_ERRORS))
def test_structural_error_exits_2_with_anchor(case, tmp_path, capsys):
    text, line, message = STRUCTURE_ERRORS[case]
    cfg = write_config(tmp_path, text)
    assert main(["figures", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    anchor = f"{cfg}:{line}" if line else str(cfg)
    assert f"config error: {anchor}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```ini\n")[1:]
    assert blocks, "README.md has no ini example"
    for k, block in enumerate(blocks):
        cfg = write_config(tmp_path, block.split("```")[0], name=f"readme{k}.cfg")
        scenario = parse_config(cfg)
        assert main([scenario.action.replace("_", "-"), "--config", str(cfg),
                     "--out", str(tmp_path / f"out{k}")]) == EXIT_OK


def test_certify_without_radius_uses_the_closed_form_enclosure(tmp_path):
    # radius = sqrt(2 L max(1, 1/eps)) * 1.05 with L = (2 + c^2/2) / (2 kappa) * 1.05
    # and kappa = min(1/8, b/eps), here for r = 2.1, b = 1, eps = 0.9
    cfg = write_config(tmp_path, FHN_CERTIFY.replace("radius = 6\n", ""))
    out = tmp_path / "cert"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert parse_certificate_record(out / "certificate.rec")["radius"] == "16.864613649443623"


def test_certify_commits_its_two_files_together(tmp_path, capsys):
    # certificate.txt cannot be replaced: certificate.rec keeps its old bytes
    cfg = write_config(tmp_path, FHN_CERTIFY)
    out = tmp_path / "cert"
    (out / "certificate.txt").mkdir(parents=True)
    (out / "certificate.rec").write_text("old record\n")
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_INTERNAL
    assert f"Is a directory: '{out / 'certificate.txt'}'" in capsys.readouterr().err
    assert (out / "certificate.rec").read_text() == "old record\n"
    assert (out / "certificate.txt").is_dir()
    assert not list(tmp_path.rglob("*.tmp"))


def test_invariant_set_of_a_linear_system_uses_the_half_norm(tmp_path):
    cfg = write_config(tmp_path, "[scenario]\nsystem = builtin_linear\n"
                                 "action = invariant_set\n[params]\ndim = 2\n")
    out = tmp_path / "inv"
    assert main(["invariant-set", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "level = 1.0\n" in (out / "invariant_set.txt").read_text()


def test_estimate_of_a_pair_that_blows_up_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = estimate\nhorizon = 2\n"
                                 "step = 0.1\ninitial = 1e200 0; 2 0\n[estimate]\npairs = 2\n")
    out = tmp_path / "est"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
    assert "trajectory pairs [0] blew up" in capsys.readouterr().err
    assert not out.exists()


# extreme but legal certify values, refused as a certification naming the
# cause: (line replacements in FHN_CERTIFY, the refusal's cause)
EXTREME_CERTIFY = {
    "radius_1e120": ({"radius = 6": "radius = 1e120"},
                     "first component decay check failed at z=[-5.e+119], dz=[1.] "
                     "(violation non-finite)"),
    "radius_1e155": ({"radius = 6": "radius = 1e155"},
                     "radius 1e+155 is too large: its square is not finite"),
    "radius_1e160": ({"radius = 6": "radius = 1e160"},
                     "radius 1e+160 is too large: its square is not finite"),
    "radius_1e200": ({"radius = 6": "radius = 1e200"},
                     "radius 1e+200 is too large: its square is not finite"),
    "epsilon_1e-200": ({"epsilon = 0.9": "epsilon = 1e-200", "radius = 6": "radius = 5"},
                       "no finite sup-constants on the ball of radius 5.0: "
                       "non-finite value of g2"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(EXTREME_CERTIFY))
def test_extreme_certify_value_exits_4(case, tmp_path, capsys):
    lines, cause = EXTREME_CERTIFY[case]
    text = FHN_CERTIFY
    for old, new in lines.items():
        assert old in text
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text)
    rc = main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_REFUSED
    err = capsys.readouterr().err
    # the refusal line is all of stderr, and no numpy warning is issued on the
    # way (pytest would capture one away from stderr, so warnings are errors)
    assert err.startswith(f"certification refused: {cause}") and err.count("\n") == 1
    assert not (tmp_path / "o" / "certificate.rec").exists()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--tolerance", "nan")])
def test_bad_override_exits_2(flag, value, tmp_path, capsys):
    rc = main(["figures", "--out", str(tmp_path), flag, value])
    assert rc == EXIT_CONFIG
    assert f"{flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_at_a_file_exits_2_before_any_output(below, tmp_path, capsys):
    """An ``out`` that is, or lies under, an existing file is refused at its
    config line or at ``--out``; the file stays as it was and nothing else
    is written."""
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    cfg = write_config(tmp_path, f"[scenario]\nsystem = fhn\naction = figures\n"
                                 f"horizon = 1\nout = {out}\n")
    assert main(["figures", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}:5: out must be a directory, but '{blocker}' is a file" in (
        capsys.readouterr().err)
    assert main(["figures", "--out", str(out), "--seed", "1"]) == EXIT_CONFIG
    assert f"--out: out must be a directory, but '{blocker}' is a file" in (
        capsys.readouterr().err)
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg", "taken"]


def test_default_out_at_a_file_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    """The default ``out``, with no key and no ``--out``, is checked too."""
    monkeypatch.chdir(tmp_path)
    Path("out").write_text("kept\n")
    cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = figures\nhorizon = 1\n")
    for argv in (["figures"], ["figures", "--config", str(cfg)]):
        assert main(argv) == EXIT_CONFIG
        assert "output directory: out must be a directory, but 'out' is a file" in (
            capsys.readouterr().err)
    assert Path("out").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.cfg"]


def test_out_may_be_a_new_or_an_existing_directory(tmp_path):
    made = tmp_path / "made"
    made.mkdir()
    for out in (made, tmp_path / "new" / "deeper"):
        cfg = write_config(tmp_path, f"[scenario]\nsystem = fhn\naction = figures\n"
                                     f"out = {out}\n")
        assert parse_config(cfg).output_path == out


def test_overrides_reach_the_scenario(tmp_path):
    cfg = write_config(tmp_path, FHN_CERTIFY)
    out = tmp_path / "cert"
    assert main(["certify", "--config", str(cfg), "--out", str(out),
                 "--tolerance", "1e-7", "--seed", "3"]) == EXIT_OK
    assert parse_certificate_record(out / "certificate.rec")["decay_check"] == "pass"


# Values the fuzz test draws from: valid small numbers (and a valid term list
# "-1 1" for one-dimensional polynomial blocks) and each kind of bad value.
# Few keys per section and valid values drawn half of the time, so that some
# configs get past the first key to the cross-key checks.
VALID = ["0.5", "1", "2", "3", "-1 1"]
TOKENS = VALID + ["0", "-1", "nan", "inf", "1e400", "abc", "", "1 2; 3"]
POLY_BLOCKS = ["f1_0", "f1_1", "f2_0", "f2_1", "g1_0", "g1_1", "g2_0", "g2_1"]


@st.composite
def config_texts(draw):
    def some(names):
        return draw(st.lists(st.sampled_from(sorted(names)), unique=True, max_size=3))

    system = draw(st.sampled_from(SYSTEMS + ("abc",)))
    keys = {"scenario": some(set(SCHEMA["scenario"]) - {"system", "action"}),
            "params": some(list(PARAMS.get(system, {})) + POLY_BLOCKS)}
    if system == "user_polynomial":
        keys["params"] = sorted(set(keys["params"]) | {"n", "m"})
    for section in ("estimate", "certify", "invariant"):
        if draw(st.booleans()):
            keys[section] = some(SCHEMA[section])
    lines = ["[scenario]", f"system = {system}",
             f"action = {draw(st.sampled_from(ACTIONS + ('abc',)))}"]
    for section, names in keys.items():
        if section != "scenario":
            lines.append(f"[{section}]")
        for name in names:
            value = draw(st.one_of(st.sampled_from(VALID), st.sampled_from(TOKENS)))
            lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=config_texts())
def test_parse_config_returns_scenario_or_config_error(text, tmp_path_factory):
    cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg.write_text(text)
    try:
        scenario = parse_config(cfg)
    except ConfigError:
        return
    assert isinstance(scenario, Scenario)


def test_horizon_over_max_steps_exits_2(tmp_path, capsys):
    # at the default step this horizon asks for 1e14 fixed steps
    cfg = write_config(tmp_path, """
[scenario]
system = builtin_linear
action = simulate
initial = 1
horizon = 1e12
""")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}:6: " in err and "horizon/step" in err
    assert not (tmp_path / "o").exists()


def test_polynomial_echo_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, POLYNOMIAL_SIMULATE)
    first, second = parse_config(cfg), parse_config(cfg)
    assert first.echo() == second.echo()
    assert "0x" not in first.echo()
    assert "f1_0=-1 1 f2_0=-1 1 g1_0=1 1 g2_0=1 1" in first.echo()


@pytest.mark.parametrize("matrix", ["-1 0; 0 -2", "-1 0.5 0; 0 -2 0; 0.25 0 -3"])
def test_linear_simulate_header_is_one_comment_line(matrix, tmp_path):
    dim = matrix.count(";") + 1
    cfg = write_config(tmp_path, f"""
[scenario]
system = builtin_linear
action = simulate
horizon = 1
initial = {" ".join(["1"] * dim)}

[params]
matrix = {matrix}
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    path = out / "trajectory_00.csv"
    lines = path.read_text().splitlines()
    assert [i for i, line in enumerate(lines) if line.startswith("#")] == [0]
    assert f" matrix={matrix} " in lines[0]
    assert lines[1] == "t," + ",".join(f"z{k + 1}" for k in range(dim))
    # skiprows counts the '#' line too: 2 skips it and the column names
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    assert data.shape == (len(lines) - 2, dim + 1)


def test_fhn_echo_holds_text_and_the_model_holds_the_parameters(tmp_path):
    sc = parse_config(write_config(tmp_path, FHN_CERTIFY))
    assert isinstance(sc.model, FhnParams) and sc.model.r == 2.1
    assert all(isinstance(v, str) for v in sc.params.values())
    assert " r=2.1 " in sc.echo() and "FhnParams" not in sc.echo()


@pytest.mark.parametrize("initial, pairs", [("1 0; 0 1", 3), ("1 0; 0 1; 2 2; 1 -1", 2)])
def test_estimate_writes_the_requested_pair_count(initial, pairs, tmp_path):
    cfg = write_config(tmp_path, LINEAR_ESTIMATE.replace(
        "pairs = 2", f"pairs = {pairs}").replace("step = 0.1", f"step = 0.1\ninitial = {initial}"))
    out = tmp_path / "est"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == [str(k) for k in range(pairs)]


@pytest.mark.parametrize("second, gap", [("2 0", "0"), ("2 1e-300", "1e-300")])
def test_estimate_refuses_a_coincident_pair_before_any_work(second, gap, tmp_path,
                                                             monkeypatch, capsys):
    # the sampler's rule for its own pairs, applied to the given ones
    def solve(*args):
        raise AssertionError("the pairs were integrated")

    monkeypatch.setattr("ieskit.scenarios.ensemble_ies", solve)
    cfg = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = estimate\n"
                                 f"horizon = 5\ninitial = 2 0; {second}\n")
    rc = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: {cfg}:5: initial pair 0 has its states "
                                       f"{gap} apart, closer than 1e-06\n")
    assert not (tmp_path / "o").exists()
    # a pair MIN_SEPARATION apart is the closest the sampler keeps
    at_limit = write_config(tmp_path, "[scenario]\nsystem = fhn\naction = estimate\n"
                                      "initial = 2 0; 2 1e-6\n", name="at_limit.cfg")
    assert len(parse_config(at_limit).initial_conditions) == 2


def test_one_parser_serves_calls_without_leaking_overrides(tmp_path, capsys):
    # the parser is built once per process; the overrides of one call must
    # not reach the next
    cfg = write_config(tmp_path, """
[scenario]
system = builtin_linear
action = simulate
horizon = 1
step = 0.05
initial = 1 0

[params]
dim = 2
""")
    runs = {name: tmp_path / name for name in ("overridden", "second", "fresh")}
    assert main(["simulate", "--config", str(cfg), "--out", str(runs["overridden"]),
                 "--seed", "7", "--tolerance", "1e-3"]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(runs["second"])]) == EXIT_OK
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "ieskit.cli", "simulate", "--config",
                           str(cfg), "--out", str(runs["fresh"])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    names = sorted(p.name for p in runs["fresh"].iterdir())
    assert names == sorted(p.name for p in runs["second"].iterdir())
    for name in names:
        assert (runs["second"] / name).read_bytes() == (runs["fresh"] / name).read_bytes()
    # the config echo in the CSV header shows the overrides and the defaults
    overridden = (runs["overridden"] / names[0]).read_text()
    assert "seed=7 tolerance=0.001" in overridden
    assert "seed=0 tolerance=1e-09" in (runs["second"] / names[0]).read_text()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ieskit ")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_CONFIG
