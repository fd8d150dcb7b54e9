import json
import math
import time

import pytest

import wlift as w
from wlift import serialize
from wlift.cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main


def write_measure(tmp_path, name, mu):
    f = tmp_path / name
    f.write_text(json.dumps(serialize.measure_to_json(mu)))
    return str(f)


@pytest.fixture
def line_measures(tmp_path):
    sp = w.euclidean(1)
    mu = w.make_measure(sp, [[0.0], [2.0]], [0.5, 0.5])
    nu = w.make_measure(sp, [[1.0], [3.0]], [0.5, 0.5])
    return write_measure(tmp_path, "mu.json", mu), write_measure(tmp_path, "nu.json", nu)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_ot(line_measures, tmp_path):
    fmu, fnu = line_measures
    code, data = run_json(["ot", "--mu", fmu, "--nu", fnu, "--p", "2"], tmp_path)
    assert code == EXIT_OK
    assert data["cost"] == pytest.approx(1.0)
    assert data["wasserstein"] == pytest.approx(1.0)


def test_ot_bad_file(tmp_path, capsys):
    code = main(["ot", "--mu", str(tmp_path / "missing.json"), "--nu", str(tmp_path / "missing.json")])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_compat_feasible_and_infeasible(tmp_path, capsys):
    base = ["compat", "--family", "circle_splitting", "--param", "j=0", "--p", "2"]
    code, data = run_json(base + ["--times", "0,0.25,0.5"], tmp_path, "a.json")
    assert code == EXIT_OK
    assert data["feasible"] is True

    code, data = run_json(base + ["--times", "0,0.25,0.5,0.75"], tmp_path, "b.json")
    assert code == EXIT_NEGATIVE
    assert data["feasible"] is False
    assert data["max_pair_gap"] > 1e-6


def test_compat_reports_the_lp_columns_it_solved(tmp_path):
    # off the line the all-pairs LP is the product support's; on the real
    # line the comonotone coupling decides with no LP
    base = ["compat", "--times", "0,0.25,0.5,0.75"]
    code, data = run_json(base + ["--family", "circle_splitting", "--param", "j=0"], tmp_path)
    assert code == EXIT_NEGATIVE
    assert data["lp_columns"] == data["product_size"] == 2**4
    code, data = run_json(base + ["--family", "two_tent"], tmp_path, "line.json")
    assert code == EXIT_OK
    assert data["lp_columns"] == 0 and data["product_size"] > 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_compat_rejects_bad_tolerance(tol, capsys):
    # two_tent at these times is compatible; a bad tol is an input error
    argv = ["compat", "--family", "two_tent", "--times", "0,0.5,1"]
    assert main(argv) == EXIT_OK
    assert main(argv + ["--tol", tol]) == EXIT_INPUT
    assert "tol must be" in capsys.readouterr().err


def test_lift_csv(tmp_path):
    out = tmp_path / "diag.csv"
    code = main([
        "lift", "--family", "two_tent", "--levels", "1..3",
        "--construction", "B", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("level,energy")
    assert len(lines) == 4


def test_norms_builtin_geodesic(tmp_path):
    code, data = run_json(
        ["norms", "--norm", "besov", "--builtin", "geodesic", "--alpha", "0.75", "--p", "2"],
        tmp_path,
    )
    assert code == EXIT_OK
    assert data["value"] == pytest.approx(2.0 + math.sqrt(2.0))


SQRT2 = math.sqrt(2.0)
# default exponents: p=2, alpha=0.75, gamma=1, q=2, delta=1, -M 8
NORMS_CLOSED_FORM = {
    "geodesic": {"besov": 2.0 + SQRT2, "frac_sobolev": 8.0 / 3.0, "w1p": 1.0,
                 "holder": 1.0, "variation": 1.0, "modulus": 1.0},
    # frac_sobolev on the tent: the quadrature value, pinned to the release
    "tent": {"besov": 4.0 + 4.0 * SQRT2, "frac_sobolev": 8.331184298504713, "w1p": 4.0,
             "holder": 2.0, "variation": SQRT2, "modulus": 1.0},
}


@pytest.mark.parametrize("builtin", sorted(NORMS_CLOSED_FORM))
@pytest.mark.parametrize("norm", sorted(NORMS_CLOSED_FORM["geodesic"]))
def test_norms_builtin_all_functionals(tmp_path, builtin, norm):
    code, data = run_json(["norms", "--norm", norm, "--builtin", builtin], tmp_path)
    assert code == EXIT_OK
    power = norm in ("besov", "frac_sobolev", "w1p")
    assert data["norm"] == norm + (" (p-th power)" if power else "")
    assert data["value"] == pytest.approx(NORMS_CLOSED_FORM[builtin][norm], rel=1e-12)
    assert (data["tail_estimate"] is not None) == (norm == "besov")


def test_norms_frac_sobolev_budget_is_exit_3(tmp_path, monkeypatch, capsys):
    from wlift.cli import EXIT_RESOURCE

    f = tmp_path / "path.json"
    f.write_text(json.dumps({"space": serialize.space_to_json(w.euclidean(1)),
                             "breakpoints": [[0.0], [1.0], [0.0], [2.0], [1.0]]}))
    argv = ["norms", "--norm", "frac_sobolev", "--path", str(f)]
    # 4 cells: 3 separated pairs + 3 adjacent pairs of 11 x 11 sub-cells
    monkeypatch.setenv("WLIFT_BUDGET", "365")
    assert main(argv) == EXIT_RESOURCE
    assert "quadrature cells 366 exceeds budget 365" in capsys.readouterr().err
    monkeypatch.delenv("WLIFT_BUDGET")
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == EXIT_OK


@pytest.mark.parametrize("M, count", [(40, 2**40 + 1), (24, 2**24 + 1)])
def test_norms_grid_beyond_budget_is_exit_3(capsys, M, count):
    """The curve's level-M grid is counted before it is allocated."""
    from wlift.cli import EXIT_RESOURCE

    argv = ["norms", "--norm", "holder", "--family", "two_tent", "--gamma", "1", "--p", "2",
            "-M", str(M)]
    assert main(argv) == EXIT_RESOURCE
    assert f"grid points {count} exceeds budget" in capsys.readouterr().err


def test_norms_negative_grid_level_is_exit_2(capsys):
    argv = ["norms", "--norm", "modulus", "--builtin", "tent", "-M", "-1"]
    assert main(argv) == EXIT_INPUT
    assert "M must be an integer >= 0" in capsys.readouterr().err


def test_norms_frac_sobolev_order_beyond_one_chunk_is_exit_2(monkeypatch, capsys):
    """An order whose g^2 node pairs exceed one quadrature chunk is an input
    error; the chunk is shrunk here so that the CLI's order 8 exceeds it."""
    from wlift import norms

    monkeypatch.setattr(norms, "_QUAD_NODE_PAIRS", 63)
    assert main(["norms", "--norm", "frac_sobolev", "--builtin", "tent"]) == EXIT_INPUT
    assert "gl_order must be at most 7, got 8" in capsys.readouterr().err


def test_norms_curve_frac_sobolev_is_input_error():
    assert main(["norms", "--norm", "frac_sobolev", "--family", "two_tent"]) == EXIT_INPUT


def test_non_finite_input_is_input_error(line_measures, tmp_path, capsys):
    fmu, fnu = line_measures
    assert main(["ot", "--mu", fmu, "--nu", fnu, "--p", "nan"]) == EXIT_INPUT
    bad = tmp_path / "nan.json"
    bad.write_text(
        '{"space": {"kind": "euclidean", "d": 1}, "atoms": [[0.0], [1.0]], "weights": [NaN, 1.0]}'
    )
    assert main(["ot", "--mu", str(bad), "--nu", fnu]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_norms_rejects_bad_exponents(capsys):
    code = main(["norms", "--norm", "besov", "--alpha", "0.4", "--p", "2"])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("flag", ["--q", "--p"])
@pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
def test_norms_variation_and_w1p_reject_bad_exponents(flag, value, capsys):
    norm = "variation" if flag == "--q" else "w1p"
    code = main(["norms", "--norm", norm, "--builtin", "tent", flag, value])
    assert code == EXIT_INPUT
    assert f"{flag[2:]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["example", "two_tent", "--t", "1.5"],
    ["example", "two_tent", "--t", "-0.5"],
    ["example", "two_tent", "--t", "nan"],
    ["compat", "--family", "two_tent", "--times", "0,0.5,1.5"],
], ids=["example_after_1", "example_before_0", "example_nan", "compat_after_1"])
def test_times_outside_unit_interval_are_input_errors(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert "outside [0, 1]" in capsys.readouterr().err


def test_norms_curve_family(tmp_path):
    code, data = run_json(
        ["norms", "--norm", "besov", "--family", "circle_splitting", "--param", "j=0",
         "--alpha", "0.75", "--p", "2", "-M", "8"],
        tmp_path,
    )
    assert code == EXIT_OK
    want = w.reference_value(
        w.circle_splitting(0), "curve_besov_power", alpha=0.75, p=2.0
    )
    assert data["value"] == pytest.approx(want, rel=1e-9)


def test_bb(tmp_path):
    code, data = run_json(["bb", "--seed", "3", "--atoms", "4", "--alpha", "0.75", "--p", "2"], tmp_path)
    assert code == EXIT_OK
    assert data["identity_error"] <= 1e-9
    assert abs(data["excess_error"]) <= 1e-9


EXAMPLES = {
    "jump": (["jump"], w.jump(), {}),
    "two_tent": (["two_tent"], w.two_tent(), {}),
    "oscillating_tents": (
        ["oscillating_tents"],
        w.oscillating_tents(4, 2.0, 0.8, 2.0),
        {"J": 4, "p": 2.0, "upsilon": 0.8, "a": 2.0},
    ),
    "circle_splitting": (["circle_splitting", "--param", "j=2"], w.circle_splitting(2), {"j": 2}),
    "cylinder_family": (
        ["cylinder_family", "--param", "J=2", "--alpha", "0.8"],
        w.cylinder_family(2, 2.0, 0.8, 3.0),
        {"J": 2, "p": 2.0, "alpha": 0.8, "a": 3.0},
    ),
}


@pytest.mark.parametrize("family", sorted(EXAMPLES))
def test_example(tmp_path, family):
    argv, spec, params = EXAMPLES[family]
    code, data = run_json(["example", *argv, "--t", "0.5"], tmp_path)
    assert code == EXIT_OK
    assert data["family"] == family
    assert data["params"] == params
    assert data["measure"] == serialize.measure_to_json(w.make_curve(spec)(0.5))
    if family == "two_tent":
        assert data["measure"]["atoms"] == [[0.5], [3.0]]


MALFORMED_JSON = {
    "path_without_breakpoints": (
        ["norms", "--norm", "besov", "--path", "{f}"], {"space": {"kind": "euclidean", "d": 1}}
    ),
    "path_without_space": (
        ["norms", "--norm", "besov", "--path", "{f}"], {"breakpoints": [[0.0], [1.0]]}
    ),
    "space_as_string": (
        ["ot", "--mu", "{f}", "--nu", "{f}"],
        {"space": "euclidean", "atoms": [[0.0]], "weights": [1.0]},
    ),
    "path_breakpoints_not_numbers": (
        ["norms", "--norm", "besov", "--path", "{f}"],
        {"space": {"kind": "euclidean", "d": 1}, "breakpoints": "abc"},
    ),
    "atoms_not_numbers": (
        ["ot", "--mu", "{f}", "--nu", "{f}"],
        {"space": {"kind": "euclidean", "d": 1}, "atoms": [["x"]], "weights": [1.0]},
    ),
    "space_dimension_not_a_number": (
        ["ot", "--mu", "{f}", "--nu", "{f}"],
        {"space": {"kind": "euclidean", "d": "x"}, "atoms": [[0.0]], "weights": [1.0]},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_is_input_error(tmp_path, capsys, case):
    argv, obj = MALFORMED_JSON[case]
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    assert main([a.format(f=f) for a in argv]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_unknown_family(capsys):
    code = main(["example", "nope"])
    assert code == EXIT_INPUT


def test_unknown_subcommand():
    assert main(["frobnicate"]) == EXIT_INPUT
    assert main(["example", "jump", "--space", "nonsense"]) == EXIT_INPUT


MALFORMED_NUMBERS = {
    "param_not_a_number": ["example", "oscillating_tents", "--param", "J=abc"],
    "param_not_an_integer": ["example", "circle_splitting", "--param", "j=1.5"],
    "levels_not_integers": ["lift", "--family", "two_tent", "--levels", "1..x"],
    "levels_empty_range": ["lift", "--family", "two_tent", "--levels", "3..1"],
    "times_not_numbers": ["compat", "--family", "two_tent", "--times", "0,abc"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_malformed_numbers_are_input_errors(capsys, case):
    assert main(MALFORMED_NUMBERS[case]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_lift_level_beyond_budget_is_exit_3(capsys):
    from wlift.cli import EXIT_RESOURCE

    assert main(["lift", "--family", "two_tent", "--levels", "100"]) == EXIT_RESOURCE
    assert "lift breakpoints" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["20000", "1..25", "1..100000000"])
def test_lift_deepest_level_is_charged_before_any_is_built(monkeypatch, capsys, levels):
    """The deepest level is charged first, so a sweep that would end over
    the budget builds nothing; 20 000 and 10^8 are charged as inf."""
    from wlift.cli import EXIT_RESOURCE

    def build(curve, n, p):
        raise AssertionError(f"level {n} built")

    monkeypatch.setattr(w.lifts, "construct_lift_A", build)
    monkeypatch.setattr(w.lifts, "construct_lift_B", build)
    start = time.perf_counter()
    assert main(["lift", "--family", "two_tent", "--levels", levels]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    count = "33554433" if levels == "1..25" else "inf"
    assert f"lift breakpoints per path {count} exceeds budget" in capsys.readouterr().err


def test_compat_product_too_large_to_print_is_exit_3(capsys):
    """3000 times of 32 atoms: 32^3000 product tuples, reported as inf, and
    charged before the 4.5 million pairs are listed."""
    from wlift.cli import EXIT_RESOURCE

    times = ",".join(str(k / 2999) for k in range(3000))
    start = time.perf_counter()
    argv = ["compat", "--family", "circle_splitting", "--param", "j=4", "--times", times]
    assert main(argv) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert "product support size inf exceeds budget" in capsys.readouterr().err


@pytest.mark.parametrize("atoms", ["0", "-1"])
def test_bb_atoms_below_one_is_exit_2(capsys, atoms):
    assert main(["bb", "--atoms", atoms]) == EXIT_INPUT
    assert f"--atoms must be an integer >= 1, got {atoms}" in capsys.readouterr().err


UNKNOWN_PARAMS = {
    "circle_splitting_k": (["example", "circle_splitting", "--param", "k=1"], "k"),
    "two_tent_foo": (["example", "two_tent", "--param", "foo=3"], "foo"),
    "cylinder_family_j": (["example", "cylinder_family", "--param", "j=2"], "j"),
    "lift_jump_J": (["lift", "--family", "jump", "--param", "J=2", "--levels", "1"], "J"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_PARAMS))
def test_unknown_param_key_is_input_error(capsys, case):
    argv, key = UNKNOWN_PARAMS[case]
    assert main(argv) == EXIT_INPUT
    assert f"takes no parameter {key} " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["example", "circle_splitting", "--param", "j=1"],
    ["example", "oscillating_tents", "--param", "J=2", "--param", "p=2",
     "--param", "upsilon=0.7", "--param", "a=1.5"],
    ["example", "cylinder_family", "--param", "J=2", "--param", "p=2",
     "--param", "alpha=0.8", "--param", "a=2.5"],
    ["example", "two_tent"],
], ids=["circle_splitting", "oscillating_tents", "cylinder_family", "no_params"])
def test_known_param_keys_still_work(capsys, argv):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["family"]


# one valid call per subcommand, and the options each subcommand once took
# from a list shared by all six but never read, with lift's --level, folded
# into --levels (options match by full name only, so it is not a prefix)
VALID_CALLS = {
    "ot": ["ot", "--mu", "{mu}", "--nu", "{nu}"],
    "compat": ["compat", "--family", "two_tent"],
    "lift": ["lift", "--family", "two_tent", "--levels", "1"],
    "norms": ["norms", "--norm", "holder"],
    "bb": ["bb", "--atoms", "2"],
    "example": ["example", "two_tent"],
}
REMOVED_OPTIONS = {
    "ot": ["--alpha", "--gamma", "--q", "--delta", "--level", "--levels", "--truncation",
           "--tol", "--family", "--param", "--format"],
    "compat": ["--gamma", "--q", "--delta", "--level", "--levels", "--truncation", "--format"],
    "lift": ["--gamma", "--q", "--delta", "--level", "--truncation", "--tol"],
    "norms": ["--level", "--levels", "--tol", "--format"],
    "bb": ["--gamma", "--q", "--delta", "--level", "--levels", "--truncation", "--tol",
           "--family", "--param", "--format"],
    "example": ["--gamma", "--q", "--delta", "--level", "--levels", "--truncation", "--tol",
                "--family", "--format"],
}
OPTION_VALUES = {"--family": "jump", "--param": "j=1", "--format": "json", "--levels": "1..2"}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in REMOVED_OPTIONS.items() for option in options
])
def test_option_the_subcommand_does_not_read_is_input_error(
        line_measures, tmp_path, capsys, command, option):
    fmu, fnu = line_measures
    argv = [a.format(mu=fmu, nu=fnu) for a in VALID_CALLS[command]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + [option, OPTION_VALUES.get(option, "1")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err and option in err


@pytest.mark.parametrize("argv, option", [
    (["norms", "--norm", "holder", "--trunc", "4"], "--trunc"),
    (["lift", "--family", "two_tent", "--lev", "2"], "--lev"),
], ids=["norms_trunc", "lift_lev"])
def test_option_prefix_is_input_error(capsys, argv, option):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err and option in err


def test_non_finite_family_parameter_is_input_error(capsys):
    assert main(["example", "oscillating_tents", "--param", "a=nan"]) == EXIT_INPUT
    assert "parameter a expects a finite number" in capsys.readouterr().err
