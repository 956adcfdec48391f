"""Command-line driver: subcommands, exit codes, config precedence."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from wasserstein_calculus.cli import DEFAULTS, main
from wasserstein_calculus.measures import JSON_MASS_TOL

# the measure that the config, argv and function fuzzes evaluate functions on
THREE_ATOMS = {"atoms": [[-0.5, 0.25], [0.25, 0.5], [0.75, 0.25]]}


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    write("d0.json", {"atoms": [[0.0, 1.0]]})
    write("d1.json", {"atoms": [[1.0, 1.0]]})
    write(
        "m5.json",
        {"atoms": [[-0.8, 0.2], [-0.1, 0.3], [0.2, 0.1], [0.5, 0.25], [0.9, 0.15]]},
    )
    write(
        "prod.json",
        {"inner": [{"kind": "sin"}, {"kind": "cos"}], "outer": {"kind": "product", "arity": 2}},
    )
    write(
        "lifted.json",
        {
            "kind": "lifted",
            "cylinder": {
                "inner": [{"kind": "sin"}],
                "outer": {"kind": "linear", "weights": [1.0], "offset": 0.0},
            },
        },
    )
    write(
        "counter.json",
        {"kind": "counterexample", "phi": {"kind": "sin"}, "psi": {"kind": "cos"}},
    )
    paths["dir"] = str(tmp_path)
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """``main(argv)`` with both streams captured, for property tests, which
    cannot take function-scoped fixtures: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """``json.loads`` that refuses NaN and the infinities: Python reads and
    writes them, but they are no JSON and other readers reject them."""
    return json.loads(text, parse_constant=_refuse_constant)


def assert_json_outcome(code, out, err):
    """Exit 0 or 1 with a JSON report on stdout, or 2 with one JSON error
    object on stderr."""
    assert code in (0, 1, 2)
    if code == 2:
        assert isinstance(strict_json(err)["error"], str)
    else:
        assert isinstance(strict_json(out), dict)


class TestW1Command:
    def test_unit_distance(self, files, capsys):
        code, out, _ = run_cli(capsys, ["w1", files["d0.json"], files["d1.json"]])
        assert code == 0
        assert json.loads(out) == {"w1": 1.0}

    def test_missing_file(self, files, capsys):
        code, _, err = run_cli(capsys, ["w1", files["d0.json"], files["dir"] + "/nope.json"])
        assert code == 2
        assert "error" in json.loads(err)

    def test_invalid_measure(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [[0.0, 0.4]]}))
        code, _, err = run_cli(capsys, ["w1", files["d0.json"], str(bad)])
        assert code == 2
        assert "error" in json.loads(err)


class TestDiscretizeCommand:
    def test_bound_report(self, files, capsys):
        code, out, _ = run_cli(
            capsys, ["discretize", "--n", "8", "--K", "1", files["m5.json"]]
        )
        assert code == 0
        report = json.loads(out)
        assert report["w1_bound"] == 0.375
        assert report["ok"] is True
        assert report["w1_actual"] <= report["w1_bound"] + 1e-10

    def test_csv_row(self, files, capsys, tmp_path):
        csv_path = tmp_path / "row.csv"
        code, _, _ = run_cli(
            capsys,
            ["discretize", "--n", "8", "--K", "1", "--csv", str(csv_path), files["m5.json"]],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,K,w1_bound,w1_actual,atoms_out"
        assert lines[1].startswith("8,1,0.375,")

    def test_rejects_small_n(self, files, capsys):
        code, _, err = run_cli(capsys, ["discretize", "--n", "1", "--K", "1", files["m5.json"]])
        assert code == 2
        assert "error" in json.loads(err)


class TestDawsonCommand:
    def test_reports_all_three_values(self, files, capsys):
        code, out, _ = run_cli(
            capsys,
            ["dawson", "--x", "2.0", "--eps", "1e-3", files["prod.json"], files["m5.json"]],
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["dawson_extrapolated"] - report["exact_delta"]) <= 1e-5
        assert report["eps"] == 1e-3


class TestDeriv2Command:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["deriv2-check", "--samples", "20"])
        assert code == 0
        report = json.loads(out)
        assert report["check"] == "deriv2"
        assert report["residual_max"] <= 1e-9


class TestFtcCommand:
    def test_lifted_passes(self, files, capsys):
        code, out, _ = run_cli(
            capsys, ["ftc-check", "--K", "1", "--samples", "10", files["lifted.json"]]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "derivative"

    def test_counterexample_fails_check(self, files, capsys):
        code, out, _ = run_cli(
            capsys, ["ftc-check", "--K", "3.1416", "--samples", "10", files["counter.json"]]
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "not-a-derivative"


class TestCounterexampleCommand:
    def test_reproduces(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["counterexample", "--phi", "sin", "--psi", "cos", "--K", "3.1416", "--samples", "40"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not-a-derivative"
        assert report["ok"] is True

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, ["counterexample", "--phi", "sinh", "--samples", "5"])
        assert code == 2
        assert "error" in json.loads(err)


class TestNumericBounds:
    """Numbers the checks cannot use are invalid input: exit 2, JSON error."""

    def test_tiny_eps(self, files, capsys):
        code, _, err = run_cli(
            capsys, ["dawson", "--x", "0.5", "--eps", "1e-320", files["prod.json"], files["m5.json"]]
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_eps_below_step_bound(self, files, capsys):
        # 1 - eps still rounds below one here, but the quotient is rounding
        # noise: it reported dawson_extrapolated 0.121 against exact 0.269
        code, out, err = run_cli(
            capsys, ["dawson", "--x", "0.5", "--eps", "2.3e-16", files["prod.json"], files["m5.json"]]
        )
        assert code == 2 and out == ""
        assert "step" in json.loads(err)["error"]

    def test_grid_beyond_any_address_space(self, files, capsys):
        # 2 * 10^15 + 1 grid indices of 8 bytes, 14.2 PiB: numpy refuses the
        # allocation before it touches memory, with a MemoryError
        code, out, err = run_cli(capsys, ["discretize", files["m5.json"], "--n", "1000000000000000", "--K", "1"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith("Unable to allocate")

    @pytest.mark.parametrize("K", ["inf", "1e308", "nan", "-1"])
    def test_counterexample_K(self, capsys, K):
        code, _, err = run_cli(capsys, ["counterexample", f"--K={K}", "--samples", "2", "--quad", "2"])
        assert code == 2
        assert "K" in json.loads(err)["error"]

    @pytest.mark.parametrize("K", ["inf", "1e308", "nan"])
    def test_ftc_check_K(self, files, capsys, K):
        code, _, err = run_cli(capsys, ["ftc-check", f"--K={K}", "--samples", "2", files["lifted.json"]])
        assert code == 2
        assert "K" in json.loads(err)["error"]

    @pytest.mark.parametrize("tol", ["nan", "-1", "-5e-324", "inf", "-inf"])
    def test_ftc_check_tol(self, capsys, tmp_path, tol):
        # a NaN or negative tolerance failed the zero field, a derivative,
        # with exit 1, and an infinite one passed any field
        field = tmp_path / "zero.json"
        field.write_text(json.dumps({"kind": "zero"}))
        argv = ["ftc-check", str(field), "--samples", "1", "--quad", "2", f"--tol={tol}"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "tol" in json.loads(err)["error"]

    def test_ftc_check_zero_tol(self, capsys, tmp_path):
        field = tmp_path / "zero.json"
        field.write_text(json.dumps({"kind": "zero"}))
        code, out, _ = run_cli(capsys, ["ftc-check", str(field), "--samples", "1", "--quad", "2", "--tol=0"])
        assert code == 0 and json.loads(out)["verdict"] == "derivative"

    @pytest.mark.parametrize(
        "argv",
        [["sweep"], ["deriv2-check", "--samples", "1", "--quad", "2"], ["counterexample", "--samples", "1", "--quad", "2"]],
        ids=["sweep", "deriv2-check", "counterexample"],
    )
    def test_negative_seed(self, capsys, argv):
        # numpy's own error named no argument: "expected non-negative integer"
        code, out, err = run_cli(capsys, argv + ["--seed=-1"])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "seed must be a non-negative integer, not -1"}

    def test_counterexample_samples(self, capsys):
        code, _, err = run_cli(capsys, ["counterexample", "--samples", "0"])
        assert code == 2
        assert json.loads(err)["error"] == "samples must be at least 1"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_deriv2_check_samples(self, capsys, samples):
        code, out, err = run_cli(capsys, ["deriv2-check", "--samples", samples])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "samples must be at least 1"}

    def test_quadrature_order_above_the_cap(self, capsys):
        code, out, err = run_cli(capsys, ["counterexample", "--samples", "3", "--quad", "100000"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith("quadrature order must lie in [2, ")


class TestMalformedJson:
    """Structurally wrong function JSON is invalid input: exit 2, JSON error."""

    @pytest.mark.parametrize(
        "command, document",
        [
            (
                "ftc-check",
                {"kind": "lifted", "cylinder": {"inner": [{"kind": "sin"}], "outer": {"kind": "linear"}}},
            ),
            ("ftc-check", {"kind": "counterexample", "phi": {"kind": "polynomial", "coeffs": 5}, "psi": {"kind": "cos"}}),
            ("dawson", {"inner": [{"kind": "sin"}, {"kind": "cos"}], "outer": {"kind": "product"}}),
            ("dawson", {"inner": [{"kind": "sin"}], "outer": {"kind": "linear", "weights": [math.nan]}}),
            ("dawson", {"inner": [{"kind": "affine", "a": 10**400}], "outer": {"kind": "product", "arity": 1}}),
            ("dawson", {"inner": [{"kind": "gaussian", "mu": 0, "sigma": 1}], "outer": {"kind": "product", "arity": 1}}),
            ("dawson", {"inner": [{"kind": "sin"}], "outer": {"kind": "product", "arity": 1, "offset": 1.0}}),
            ("dawson", {"inner": [{"kind": "sin"}], "outer": {"kind": "product", "arity": 1}, "lable": ""}),
            ("ftc-check", {"kind": "zero", "cylinder": {"inner": [], "outer": {"kind": "product", "arity": 0}}}),
        ],
        ids=["linear-without-weights", "scalar-coeffs", "product-without-arity", "nan-weight",
             "integer-beyond-a-double", "unknown-scalar-keys", "unknown-outer-key", "unknown-cylinder-key",
             "unknown-field-key"],
    )
    def test_exit_code_two(self, files, capsys, tmp_path, command, document):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document))
        if command == "dawson":
            argv = ["dawson", "--x", "0.5", str(path), files["m5.json"]]
        else:
            argv = ["ftc-check", "--K", "1", "--samples", "2", str(path)]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "error" in json.loads(err)


class TestArgparseErrors:
    """A command line argparse rejects is invalid input like any other: exit
    2 with one JSON error object on stderr, not usage text."""

    def test_bad_int_value(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--seed", "notanint"])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "argument --seed: invalid int value: 'notanint'"}

    @pytest.mark.parametrize(
        "argv",
        [["w1", "--bogus", "a", "b"], [], ["nosuchcommand"], ["discretize", "m.json"], ["sweep", "--threads", "x"]],
        ids=["unknown-option", "no-command", "unknown-command", "missing-required", "non-integer-threads"],
    )
    def test_exit_code_two(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert isinstance(json.loads(err)["error"], str)

    @pytest.mark.parametrize(
        "argv",
        [["deriv2-check"], ["ftc-check", "field.json"], ["counterexample"]],
        ids=["deriv2-check", "ftc-check", "counterexample"],
    )
    def test_threads_is_an_option_of_sweep_alone(self, capsys, argv):
        code, out, err = run_cli(capsys, [*argv, "--threads", "1"])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "unrecognized arguments: --threads 1"}

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wcalc sweep")


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, files, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.01}))
        _, out_cfg, _ = run_cli(
            capsys,
            ["dawson", "--x", "1.0", "--config", str(cfg), files["prod.json"], files["m5.json"]],
        )
        assert json.loads(out_cfg)["eps"] == 0.01
        _, out_flag, _ = run_cli(
            capsys,
            [
                "dawson", "--x", "1.0", "--eps", "0.02", "--config", str(cfg),
                files["prod.json"], files["m5.json"],
            ],
        )
        assert json.loads(out_flag)["eps"] == 0.02
        _, out_default, _ = run_cli(
            capsys, ["dawson", "--x", "1.0", files["prod.json"], files["m5.json"]]
        )
        assert json.loads(out_default)["eps"] == 1e-3

    def test_counterexample_K_flag_beats_config_beats_pi(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 2.0}))
        small = ["counterexample", "--samples", "2", "--quad", "2"]
        code, out_cfg, _ = run_cli(capsys, [*small, "--config", str(cfg)])
        assert code == 0 and json.loads(out_cfg)["K"] == 2.0
        _, out_flag, _ = run_cli(capsys, [*small, "--K", "1.5", "--config", str(cfg)])
        assert json.loads(out_flag)["K"] == 1.5
        _, out_default, _ = run_cli(capsys, small)
        _, out_pi, _ = run_cli(capsys, [*small, "--K", repr(math.pi)])
        assert json.loads(out_default)["K"] == math.pi and out_default == out_pi
        cfg.write_text(json.dumps({"K": 1e308}))
        code, _, err = run_cli(capsys, [*small, "--config", str(cfg)])
        assert code == 2 and "K" in json.loads(err)["error"]

    def test_config_read_once_per_command(self, files, capsys, tmp_path, monkeypatch):
        from wasserstein_calculus import cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 3, "quad": 4, "seed": 2}))
        reads = []
        load = cli._load_json_file
        monkeypatch.setattr(cli, "_load_json_file", lambda path: reads.append(path) or load(path))
        code, out, _ = run_cli(capsys, ["ftc-check", "--K", "1", "--config", str(cfg), files["lifted.json"]])
        assert code == 0
        report = json.loads(out)
        assert (report["samples"], report["quad_order"], report["seed"]) == (3, 4, 2)
        assert reads.count(str(cfg)) == 1

    def test_config_unread_when_flags_give_every_option(self, files, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(
            capsys,
            ["dawson", "--x", "1.0", "--eps", "0.02", "--config", str(cfg), files["prod.json"], files["m5.json"]],
        )
        assert code == 0


class TestMalformedConfig:
    """A config file that is not an object of options and numbers is invalid
    input. Every key and value is checked, those of options the command does
    not take included, as one file serves every command."""

    @pytest.mark.parametrize(
        "document",
        [[1, 2], {"seed": [1]}, {"seed": None}, {"samples": 1, "sead": 5}, {"threads": "x"}, {"K": "x"}],
        ids=["not-an-object", "list-valued-seed", "null-seed", "unknown-key", "string-threads",
             "other-commands-option"],
    )
    def test_exit_code_two(self, capsys, tmp_path, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, ["deriv2-check", "--samples", "1", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    def test_unknown_key_is_named(self, capsys, tmp_path):
        # a misspelled key used to run the default: this exited 0 with seed 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 1, "quad": 2, "sead": 5}))
        code, _, err = run_cli(capsys, ["deriv2-check", "--config", str(cfg)])
        assert code == 2
        message = json.loads(err)["error"]
        assert "'sead'" in message
        assert all(repr(key) in message for key in DEFAULTS)


# any JSON value, NaN and infinities included (json reads and writes them)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)
config_documents = json_values | st.dictionaries(
    st.sampled_from(sorted(DEFAULTS)), json_values, max_size=len(DEFAULTS)
)


class TestConfigFuzz:
    """Whatever the config file holds, the CLI exits 0, or 2 with one JSON
    error object on stderr; it never raises."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("config-fuzz")
        function = root / "prod.json"
        function.write_text(
            json.dumps({"inner": [{"kind": "sin"}, {"kind": "cos"}], "outer": {"kind": "product", "arity": 2}})
        )
        measure = root / "m.json"
        measure.write_text(json.dumps(THREE_ATOMS))
        return root, str(function), str(measure)

    @given(document=config_documents, command=st.sampled_from(["dawson", "deriv2-check"]))
    @example(document={"eps": 5e-324}, command="dawson")  # eps / 2 underflows to zero
    @example(document={"eps": 10**400}, command="dawson")
    @example(document={"seed": -1}, command="deriv2-check")
    @example(document={"seed": 1.5}, command="deriv2-check")
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exit_zero_or_two(self, inputs, document, command):
        root, function, measure = inputs
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps(document))
        if command == "dawson":
            argv = ["dawson", "--x", "0.5", "--config", str(cfg), function, measure]
        else:
            argv = ["deriv2-check", "--samples", "1", "--quad", "2", "--config", str(cfg)]
        code, out, err = run_quiet(argv)
        assert code in (0, 2)
        assert_json_outcome(code, out, err)


# the numbers that break numerics: infinities, NaN, subnormals, huge values
awkward_numbers = st.floats().map(repr) | st.sampled_from(
    ["inf", "-inf", "nan", "5e-324", "-5e-324", "1e-320", "2.2e-308", "1e-300", "1e308",
     "8.9e307", "1.7976931348623157e308", "0", "-0", "0.25", "0.3", "1e-3", "3.1416"]
)


class TestArgvFuzz:
    """Whatever numbers --K, --eps, --x and --tol carry, the CLI exits 0 or 1 with a
    JSON report, or 2 with one JSON error object on stderr; it never raises.
    Values are passed as --flag=value so that argparse reads "-inf" as a
    value, not as an option."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv-fuzz")
        paths = {}
        for name, document in {
            "function": {"inner": [{"kind": "sin"}, {"kind": "cos"}], "outer": {"kind": "product", "arity": 2}},
            "measure": THREE_ATOMS,
            "lifted": {"kind": "lifted", "cylinder": {"inner": [{"kind": "sin"}], "outer": {"kind": "linear", "weights": [1.0]}}},
            "counter": {"kind": "counterexample", "phi": {"kind": "sin"}, "psi": {"kind": "cos"}},
        }.items():
            path = root / f"{name}.json"
            path.write_text(json.dumps(document))
            paths[name] = str(path)
        return paths

    @given(
        command=st.sampled_from(["dawson", "counterexample", "ftc-check-lifted", "ftc-check-counter"]),
        K=awkward_numbers,
        eps=awkward_numbers,
        x=awkward_numbers,
        tol=awkward_numbers,
    )
    @example(command="dawson", K="1", eps="1e-320", x="0.5", tol="1e-5")
    @example(command="counterexample", K="inf", eps="1e-3", x="0", tol="1e-5")
    @example(command="counterexample", K="1e308", eps="1e-3", x="0", tol="1e-5")
    @example(command="ftc-check-lifted", K="nan", eps="1e-3", x="0", tol="1e-5")
    @example(command="ftc-check-lifted", K="1", eps="1e-3", x="0", tol="nan")
    @example(command="ftc-check-counter", K="1", eps="1e-3", x="0", tol="inf")
    @example(command="dawson", K="1", eps="1e-3", x="1e308", tol="1e-5")
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exit_code_and_json(self, inputs, command, K, eps, x, tol):
        small = ["--samples", "1", "--quad", "2"]
        if command == "dawson":
            argv = ["dawson", f"--x={x}", f"--eps={eps}", inputs["function"], inputs["measure"]]
        elif command == "counterexample":
            argv = ["counterexample", f"--K={K}", f"--eps={eps}", *small]
        else:
            field = inputs[command.rsplit("-", 1)[1]]
            argv = ["ftc-check", f"--K={K}", f"--eps={eps}", f"--tol={tol}", *small, field]
        assert_json_outcome(*run_quiet(argv))


# JSON leaves for measure files: ordinary number literals, literals that
# parse to +-inf or NaN or overflow a double as integers, and numeric
# strings and booleans, which are not numbers
number_literals = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400, "1e-400", "NaN", "Infinity",
     "-Infinity", "0", "-0.0", "0.5", "1", "-0.25", "2.5", '"1"', '"0.5"', '"-0.0"', "true", "false"]
)
# weight totals just inside and just outside JSON_MASS_TOL, in its units
MASS_OFFSETS = (0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0, 1e3)


@st.composite
def measure_texts(draw):
    """The text of a measure file: well-formed, off in mass, with awkward
    literals or negative weights, ragged, empty, or not an atoms object."""
    kind = draw(st.sampled_from(["atoms", "literals", "ragged", "other"]))
    if kind == "atoms":
        n = draw(st.integers(1, 6))
        positions = draw(st.lists(st.floats(-2.5, 2.5), min_size=n, max_size=n))
        raws = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        raws[0] += 1.0
        scale = (1.0 + draw(st.sampled_from(MASS_OFFSETS)) * JSON_MASS_TOL) / math.fsum(raws)
        weights = [r * scale for r in raws]
        if draw(st.booleans()):
            weights[draw(st.integers(0, n - 1))] *= -1.0
        atoms = [[repr(p), repr(w)] for p, w in zip(positions, weights)]
        if draw(st.booleans()):
            # one leaf as a numeric string or a boolean
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
            atoms[i][j] = draw(st.sampled_from([json.dumps(atoms[i][j]), "true", "false"]))
    elif kind == "literals":
        atoms = draw(st.lists(st.lists(number_literals, min_size=2, max_size=2), min_size=1, max_size=4))
    elif kind == "ragged":
        atoms = draw(st.lists(st.lists(number_literals, max_size=3), max_size=4))
    else:
        return draw(st.sampled_from(
            ["[]", "1", '"atoms"', "null", "true", '[{"atoms": [[0, 1]]}]', "{}",
             '{"atom": [[0, 1]]}', '{"atoms": {"0": 1}}', '{"atoms": 5}', '{"atoms": "x"}',
             '{"atoms": null}', '{"atoms": [[0.5, [1.0]]]}', '{"atoms": [[0.5, null]]}']
        ))
    return '{"atoms": [' + ", ".join("[" + ", ".join(atom) + "]" for atom in atoms) + "]}"


def has_non_numeric_leaf(text: str) -> bool:
    """Whether a measure file's atoms hold a string or a boolean."""
    data = json.loads(text)
    atoms = data.get("atoms") if isinstance(data, dict) else None
    return isinstance(atoms, list) and any(
        isinstance(v, (bool, str)) for atom in atoms if isinstance(atom, list) for v in atom
    )


class TestNumericLeaves:
    """A number in a JSON file is a JSON number: strings and booleans are
    invalid input, as are keys a measure does not know."""

    @pytest.mark.parametrize(
        "document",
        [
            {"atoms": [[0.5, "1"]]},
            {"atoms": [[0.5, True]]},
            {"atoms": [["0.5", 1.0]]},
            {"atoms": [[False, 1.0]]},
            {"atoms": [[0.5, 1.0]], "weights": [1.0]},
        ],
        ids=["string-weight", "true-weight", "string-position", "false-position", "unknown-key"],
    )
    def test_measure_exit_code_two(self, files, capsys, tmp_path, document):
        path = tmp_path / "leaves.json"
        path.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, ["w1", str(path), files["d0.json"]])
        assert code == 2
        assert "error" in json.loads(err)


class TestMeasureJsonFuzz:
    """Whatever a measure file holds, ``w1`` and ``discretize`` exit 0 or 1
    with a JSON report, or 2 with one JSON error object on stderr; they
    never raise. A string or a boolean where a number belongs gives 2."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("measure-fuzz")
        (root / "other.json").write_text(json.dumps({"atoms": [[-0.5, 0.25], [0.25, 0.75]]}))
        return root

    @given(text=measure_texts(), command=st.sampled_from(["w1", "discretize"]))
    @example(text='{"atoms": [[1' + "0" * 400 + ", 1.0]]}", command="w1")
    @example(text='{"atoms": [[0.5, 1e400]]}', command="discretize")
    @example(text='{"atoms": [[0.5, "1"]]}', command="w1")
    @example(text='{"atoms": [[0.5, true]]}', command="discretize")
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exit_code_and_json(self, root, text, command):
        path = str(root / "fuzzed.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if command == "w1":
            argv = ["w1", path, str(root / "other.json")]
        else:
            argv = ["discretize", path, "--n", "4", "--K", "2"]
        code, out, err = run_quiet(argv)
        if has_non_numeric_leaf(text):
            assert code == 2
        assert_json_outcome(code, out, err)


class TestNonFiniteResults:
    """A function whose values overflow a double is invalid input: exit 2
    with a JSON error, never NaN or Infinity in a report and never a
    traceback."""

    @pytest.mark.parametrize(
        "document",
        [
            {"inner": [{"kind": "affine", "a": 1e300, "b": 0}], "outer": {"kind": "polynomial", "terms": [[1, [2]]]}},
            {"inner": [{"kind": "affine", "a": 1e200, "b": 0}], "outer": {"kind": "exp_of_sum", "weights": [1]}},
        ],
        ids=["nan-in-report", "overflow-error"],
    )
    def test_exit_code_two(self, tmp_path, document):
        function, measure = tmp_path / "f.json", tmp_path / "m.json"
        function.write_text(json.dumps(document))
        measure.write_text(json.dumps(THREE_ATOMS))
        code, out, err = run_quiet(["dawson", "--x", "0.5", str(function), str(measure)])
        assert code == 2 and out == ""
        assert isinstance(strict_json(err)["error"], str)

    def test_error_names_the_atom_as_a_plain_float(self, tmp_path):
        function, measure = tmp_path / "f.json", tmp_path / "m.json"
        function.write_text(json.dumps(
            {"inner": [{"kind": "polynomial", "coeffs": [0, 0, 1e308]}], "outer": {"kind": "linear", "weights": [1]}}
        ))
        measure.write_text(json.dumps(THREE_ATOMS))
        code, out, err = run_quiet(["dawson", "--x", "-3.0", str(function), str(measure)])
        assert code == 2 and out == ""
        assert strict_json(err)["error"] == "integrand is not finite at atom -3.0"

    def test_stderr_holds_only_the_error(self, tmp_path):
        # numpy's overflow warnings went to stderr ahead of the JSON error;
        # pytest captures warnings, so this runs in a fresh interpreter
        function, measure = tmp_path / "f.json", tmp_path / "m.json"
        function.write_text(json.dumps(
            {"inner": [{"kind": "affine", "a": 1e300, "b": 0}], "outer": {"kind": "polynomial", "terms": [[1, [2]]]}}
        ))
        measure.write_text(json.dumps(THREE_ATOMS))
        proc = subprocess.run(
            [sys.executable, "-m", "wasserstein_calculus.cli", "dawson", "--x", "0.5", str(function), str(measure)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert isinstance(strict_json(proc.stderr)["error"], str)


# the awkward numbers: huge, tiny and zero values, integers beyond a
# double, and NaN and the infinities, which json.dumps writes as literals
# that json.loads reads back
awkward_values = st.floats() | st.sampled_from(
    [0, -1, 2, 5e-324, 1e-300, 1e200, -1e200, 1e300, 1e308, 2**1100, -(2**1100)]
)
SCALAR_KEYS = {"polynomial": ("coeffs",), "gaussian": ("center", "width"), "affine": ("a", "b"), "smooth_abs": ("eps",)}


def rarely(draw) -> bool:
    # hypothesis favours the ends of a range, so test a value inside it
    return draw(st.integers(0, 9)) == 7


@st.composite
def function_leaves(draw):
    """Where function JSON wants a number: mostly an ordinary one, often an
    awkward one, now and then a value that is no number."""
    roll = draw(st.integers(0, 9))
    if roll < 6:
        return draw(st.floats(-3.0, 3.0))
    if roll < 9:
        return draw(awkward_values)
    return draw(st.sampled_from([None, True, "1", [1.0], {}]))


@st.composite
def integer_leaves(draw):
    """An arity or an exponent: mostly small, now and then negative, huge or
    no integer at all."""
    if rarely(draw):
        return draw(st.sampled_from([-1, 10**6, 2**63, 2**1100, 1.0, True, "2", None]))
    return draw(st.integers(0, 3))


@st.composite
def scalar_documents(draw):
    """A scalar function object, now and then of no kind, short of a key or
    with a key no kind takes."""
    kind = "sinh" if rarely(draw) else draw(st.sampled_from(["sin", "cos", "tanh", *SCALAR_KEYS]))
    document = {"kind": kind}
    for key in SCALAR_KEYS.get(kind, ()):
        if not rarely(draw):
            document[key] = draw(st.lists(function_leaves(), min_size=int(not rarely(draw)), max_size=4)
                                 if key == "coeffs" else function_leaves())
    if rarely(draw):
        document["extra"] = 1
    return document


@st.composite
def outer_documents(draw, arity):
    """An outer-map object, mostly of the arity its cylinder needs."""
    kind = "quadratic" if rarely(draw) else draw(
        st.sampled_from(["linear", "product", "polynomial", "sin_of_sum", "exp_of_sum"])
    )
    n = draw(st.integers(0, 3)) if rarely(draw) else arity
    if kind in ("linear", "sin_of_sum", "exp_of_sum"):
        document = {"kind": kind, "weights": draw(st.lists(function_leaves(), min_size=n, max_size=n))}
        if kind == "linear" and draw(st.booleans()):
            document["offset"] = draw(function_leaves())
    elif kind == "product":
        document = {"kind": kind, "arity": draw(integer_leaves()) if rarely(draw) else n}
    elif kind == "polynomial":
        term = st.tuples(function_leaves(), st.lists(integer_leaves(), min_size=n, max_size=n)).map(list)
        document = {"kind": kind, "terms": draw(st.lists(term, min_size=int(not rarely(draw)), max_size=3))}
    else:
        document = {"kind": kind}
    return document


@st.composite
def cylinder_documents(draw):
    inner = draw(st.lists(scalar_documents(), min_size=int(not rarely(draw)), max_size=3))
    document = {"inner": inner, "outer": draw(outer_documents(len(inner)))}
    if rarely(draw):
        document["label"] = draw(st.sampled_from(["F", 5]))
    return document


field_documents = st.one_of(
    cylinder_documents().map(lambda cylinder: {"kind": "lifted", "cylinder": cylinder}),
    st.tuples(scalar_documents(), scalar_documents()).map(
        lambda pair: {"kind": "counterexample", "phi": pair[0], "psi": pair[1]}
    ),
    st.sampled_from([{"kind": "zero"}, {"kind": "zero", "cylinder": {}}, {"kind": "lifted"}]),
)


class TestFunctionJsonFuzz:
    """Whatever a cylinder or field file holds, ``dawson`` and ``ftc-check``
    exit 0 or 1 with a strict-JSON report, or 2 with one JSON error object on
    stderr; they never raise."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("function-fuzz")
        (root / "m.json").write_text(json.dumps(THREE_ATOMS))
        return root

    @given(document=cylinder_documents())
    @example(document={"inner": [{"kind": "affine", "a": 1e300, "b": 0}],
                       "outer": {"kind": "polynomial", "terms": [[1, [2]]]}})
    @example(document={"inner": [{"kind": "affine", "a": 1e200, "b": 0}],
                       "outer": {"kind": "exp_of_sum", "weights": [1]}})
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_dawson(self, root, document):
        path = root / "cylinder.json"
        path.write_text(json.dumps(document))
        assert_json_outcome(*run_quiet(["dawson", "--x", "0.5", str(path), str(root / "m.json")]))

    @given(document=field_documents)
    @example(document={"kind": "lifted", "cylinder": {"inner": [{"kind": "affine", "a": 1e200, "b": 0}],
                                                      "outer": {"kind": "exp_of_sum", "weights": [1]}}})
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_ftc_check(self, root, document):
        path = root / "field.json"
        path.write_text(json.dumps(document))
        assert_json_outcome(*run_quiet(["ftc-check", "--samples", "1", "--quad", "2", str(path)]))


class TestSweepWiring:
    # the full battery runs under tests/test_acceptance.py; here only the
    # report/CSV plumbing, with the sweep stubbed out
    @pytest.fixture
    def stub_sweep(self, monkeypatch):
        canned = {
            "sweep": "acceptance",
            "seed": 0,
            "criteria": [
                {
                    "criterion": 1,
                    "name": "discretization_bound",
                    "ok": True,
                    "per_n": [
                        {"n": 2, "K": 1, "w1_bound": 1.5, "w1_actual": 0.2, "atoms_out": 5}
                    ],
                }
            ],
            "all_ok": True,
        }
        import wasserstein_calculus.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_sweep", lambda seed: (canned, {"x": 0.0}))
        return canned

    def test_writes_report_and_csv(self, stub_sweep, capsys, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, ["sweep", "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        assert json.loads(out.read_text())["all_ok"] is True
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,K,w1_bound,w1_actual,atoms_out"
        assert lines[1] == "2,1,1.5,0.2,5"

    def test_failure_exit_code(self, stub_sweep, capsys):
        stub_sweep["all_ok"] = False
        code, _, _ = run_cli(capsys, ["sweep"])
        assert code == 1

    def test_threads_flag_parses_and_changes_nothing(self, stub_sweep, capsys):
        # the stub takes the seed only, so a thread count passed on fails
        plain = run_cli(capsys, ["sweep"])
        for count in ("1", "0", "7"):
            assert run_cli(capsys, ["sweep", "--threads", count]) == plain

    def test_config_threads_accepted(self, stub_sweep, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 3}))
        assert run_cli(capsys, ["sweep", "--config", str(cfg)]) == run_cli(capsys, ["sweep"])


class TestModuleInvocation:
    def test_python_dash_m(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "wasserstein_calculus.cli", "w1", files["d0.json"], files["d1.json"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"w1": 1.0}
