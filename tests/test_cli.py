import argparse
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron import cli
from flbarron.cli import run


@pytest.fixture
def coulomb_spec_file(tmp_path):
    spec = {"n": 3, "N": 2, "masses": [1.0, 1.0],
            "one_particle": [],
            "pairwise": [{"i": 1, "j": 2, "kind": "coulomb", "params": {},
                          "shift": [], "coeff": 1.0}],
            "additive": None}
    p = tmp_path / "coulomb.json"
    p.write_text(json.dumps(spec))
    return str(p)


@pytest.fixture
def gaussian_spec_file(tmp_path):
    spec = {"n": 1, "N": 1, "masses": [1.0],
            "one_particle": [], "pairwise": [],
            "additive": {"kind": "gaussian", "params": {"kappa": 0.05},
                         "shift": [], "coeff": 1.0}}
    p = tmp_path / "gauss.json"
    p.write_text(json.dumps(spec))
    return str(p)


@pytest.fixture
def free_spec_file(tmp_path):
    spec = {"n": 1, "N": 1, "masses": [1.0],
            "one_particle": [], "pairwise": [], "additive": None}
    p = tmp_path / "free.json"
    p.write_text(json.dumps(spec))
    return str(p)


class TestConstants:
    def test_coulomb_constants_include_nu_four(self, coulomb_spec_file, tmp_path):
        out = tmp_path / "const.json"
        code = run(["--out", str(out), "constants", "--spec", coulomb_spec_file,
                    "--alpha", "2.4", "--gamma", "0.5"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["nu_constants"][0]["nu_t_n"] == 4.0
        assert data["mu_tilde_1"] == 1.0
        assert data["big_C_V"] > 0


class TestSolve:
    def test_free_spec_one_iteration(self, free_spec_file, tmp_path):
        out = tmp_path / "solve.json"
        code = run(["--out", str(out), "solve", "--spec", free_spec_file,
                    "--grid", "kind:tensor,extent:6,count:65"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["report"]["iterations"] == 1
        assert data["report"]["oracle_error"] <= 1e-12
        assert (tmp_path / "solve.csv").exists()

    def test_gaussian_solve_and_csv(self, gaussian_spec_file, tmp_path):
        out = tmp_path / "sg.json"
        code = run(["--out", str(out), "solve", "--spec", gaussian_spec_file,
                    "--grid", "kind:tensor,extent:8,count:129"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["report"]["certificate"]["q"] == pytest.approx(0.05, abs=1e-6)
        assert data["report"]["oracle_error"] <= 1e-8
        rows = (tmp_path / "sg.csv").read_text().strip().splitlines()
        assert rows[0] == "iteration,residual"
        assert len(rows) == data["report"]["iterations"] + 1


class TestDeterminism:
    @staticmethod
    def run_twice(argv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["--out", str(out), "--seed", "0"] + argv) == 0
            outs.append(out.read_bytes())
        return outs

    def test_solve_byte_identical(self, gaussian_spec_file, tmp_path):
        a, b = self.run_twice(["solve", "--spec", gaussian_spec_file,
                               "--grid", "kind:tensor,extent:6,count:65"], tmp_path)
        assert a == b

    def test_verify_eigen_byte_identical(self, tmp_path):
        a, b = self.run_twice(["verify-eigen", "--delta", "1", "--n", "3", "--cells", "90"],
                              tmp_path)
        assert a == b

    @pytest.mark.parametrize("op", ["h0_inv", "multiply_v", "t_lambda", "r",
                                    "pk_t_lambda", "pk_r"])
    def test_probe_byte_identical(self, gaussian_spec_file, tmp_path, op):
        a, b = self.run_twice(["probe", "--spec", gaussian_spec_file,
                               "--grid", "kind:tensor,extent:6,count:33", "--op", op,
                               "--alpha", "inf", "--beta", "0.4", "--probes", "5"], tmp_path)
        assert a == b

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_norm_and_decompose_byte_identical(self, data):
        gauss = st.builds(lambda k, w, c: {"kind": "gaussian", "params": {"kappa": k, "width": w},
                                           "shift": [], "coeff": c},
                          st.floats(0.01, 1.0), st.floats(0.3, 2.0), st.floats(-2.0, 2.0))
        power = st.builds(lambda t, c: {"kind": "inverse_power", "params": {"t": t},
                                        "shift": [], "coeff": c},
                          st.floats(0.1, 0.9), st.floats(-2.0, 2.0))
        term = st.one_of(gauss, power)
        spec = {"n": 1, "N": 2, "masses": [1.0, 1.0],
                "one_particle": [{"i": i, **t} for i, t in data.draw(
                    st.lists(st.tuples(st.sampled_from([1, 2]), term), max_size=2))],
                "pairwise": [{"i": 1, "j": 2, **t} for t in data.draw(st.lists(term, max_size=1))],
                "additive": data.draw(st.one_of(st.none(), gauss))}
        argv = data.draw(st.sampled_from([
            ["norm"], ["norm", "--p", "2", "--s", "0.5"], ["norm", "--alpha", "3", "--beta", "0.9"],
            ["decompose"], ["decompose", "--radius", "0.5", "--alpha-prime", "inf", "--s", "-0.3"]]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec))
            outs = []
            for name in ("a.json", "b.json"):
                out = Path(tmp) / name
                code = run(["--out", str(out)] + argv + ["--spec", str(path)])
                outs.append((code, out.read_bytes() if code == 0 else None))
        assert outs[0] == outs[1]

    def test_constants_byte_identical(self, coulomb_spec_file, tmp_path):
        a, b = self.run_twice(["constants", "--spec", coulomb_spec_file,
                               "--alpha", "2.4", "--gamma", "0.5"], tmp_path)
        assert a == b


class TestExitCodes:
    def test_missing_spec_is_config_error(self, tmp_path):
        code = run(["constants", "--spec", str(tmp_path / "nope.json")])
        assert code == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = run(["constants", "--spec", str(p)])
        assert code == 2

    def test_numeric_failure_is_exit_three(self, tmp_path):
        # kappa = 30 gives q = 30 >= 1: NoContractionError inside solve
        spec = {"n": 1, "N": 1, "masses": [1.0], "one_particle": [], "pairwise": [],
                "additive": {"kind": "gaussian", "params": {"kappa": 30.0},
                             "shift": [], "coeff": 1.0}}
        p = tmp_path / "strong.json"
        p.write_text(json.dumps(spec))
        code = run(["solve", "--spec", str(p),
                    "--grid", "kind:tensor,extent:6,count:65"])
        assert code == 3

    def test_probe_without_certificate_is_exit_three(self, gaussian_spec_file):
        code = run(["probe", "--spec", gaussian_spec_file, "--op", "identity",
                    "--grid", "kind:tensor,extent:6,count:9", "--alpha", "inf",
                    "--beta", "0.4", "--probes", "2"])
        assert code == 3


    @pytest.mark.parametrize("flags, name", [(["--rho", "inf"], "rho"),
                                             (["--op", "t_lambda", "--lam", "nan"], "lam"),
                                             (["--op", "r", "--lam", "nan"], "lam"),
                                             (["--op", "pk_r", "--K", "inf"], "K")])
    def test_non_finite_probe_param_is_exit_three(self, gaussian_spec_file, capsys, flags, name):
        code = run(["probe", "--spec", gaussian_spec_file, "--grid", "kind:tensor,extent:6,count:9",
                    "--alpha", "inf", "--beta", "0.4", "--probes", "2"] + flags)
        assert code == 3
        err = capsys.readouterr().err
        assert "[InvalidArgumentError]" in err and f"{name} must be finite" in err

    def test_non_finite_norm_is_exit_three(self, gaussian_spec_file, capsys):
        code = run(["probe", "--spec", gaussian_spec_file, "--s", "nan",
                    "--grid", "kind:tensor,extent:6,count:9", "--alpha", "inf",
                    "--beta", "0.4", "--probes", "2"])
        assert code == 3
        assert ("[InvalidArgumentError]: --s must be finite or +-inf (got nan)"
                in capsys.readouterr().err)

    def test_nan_in_output_is_exit_three(self, coulomb_spec_file, tmp_path, capsys):
        # bare NaN is not JSON; no flag value yields a NaN any more, so a patched bound does
        out = tmp_path / "n.json"
        with mock.patch.object(cli.B, "big_C_V", return_value=math.nan):
            code = run(["--out", str(out), "norm", "--spec", coulomb_spec_file,
                        "--alpha", "2.4", "--beta", "1.0"])
        assert code == 3
        assert "[NonFiniteError]: cli output: big_C_V is NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_overflow_is_exit_three(self, coulomb_spec_file, capsys):
        # c_alpha_beta needs Gamma(alpha*beta), far beyond the float range here
        code = run(["norm", "--spec", coulomb_spec_file, "--alpha", "2.4", "--beta", "1e300"])
        assert code == 3
        assert "[GammaOverflowError]: Gamma(2.4e+300) overflows a float" in capsys.readouterr().err

    def test_infinity_in_output_is_kept(self, gaussian_spec_file, tmp_path):
        out = tmp_path / "c.json"
        assert run(["--out", str(out), "constants", "--spec", gaussian_spec_file,
                    "--alpha", "inf"]) == 0
        assert json.loads(out.read_text())["parameters"]["alpha"] == float("inf")

    def test_probe_default_beta_names_the_fix(self, tmp_path, capsys):
        # n = 3 with the defaults alpha = 2, gamma = 0.5 gives beta = 0.75 = n/(2 alpha)
        spec = {"n": 3, "N": 1, "masses": [1.0], "pairwise": [], "additive": None,
                "one_particle": [{"i": 1, "kind": "gaussian", "params": {"kappa": 0.5},
                                  "shift": [], "coeff": 1.0}]}
        p = tmp_path / "gauss3.json"
        p.write_text(json.dumps(spec))
        code = run(["probe", "--spec", str(p), "--grid", "kind:tensor,extent:4,count:9"])
        assert code == 3
        assert "pass --beta above 0.75, or --gamma below 0.5" in capsys.readouterr().err

    def test_constants_default_gamma_names_the_fix(self, coulomb_spec_file, capsys):
        # n = 3 with the defaults alpha = 2, gamma = 0.5 gives alpha*beta = 1.5 = n/2;
        # constants derives beta from gamma, so only --gamma is offered
        assert run(["constants", "--spec", coulomb_spec_file]) == 3
        err = capsys.readouterr().err
        assert "alpha*beta = 1.5 must exceed n/2 = 1.5: pass --gamma below 0.5\n" in err
        assert run(["constants", "--spec", coulomb_spec_file, "--gamma", "0.4"]) == 0

    @pytest.mark.parametrize("flag, value, error", [
        ("--beta", "inf", "--beta must be finite (got inf)"),
        ("--beta", "-inf", "--beta must be finite (got -inf)"),
        ("--gamma", "inf", "beta = 1 + (s - gamma)/2 must be finite (got -inf from --s 0, "
                           "--gamma inf)"),
        ("--gamma", "-inf", "beta = 1 + (s - gamma)/2 must be finite (got inf from --s 0, "
                            "--gamma -inf)")])
    def test_probe_non_finite_beta_names_the_flag(self, gaussian_spec_file, capsys,
                                                  flag, value, error):
        # the Gaussian spec has only an additive term, which never reads beta in big_C_V
        code = run(["probe", "--spec", gaussian_spec_file, "--grid", "kind:tensor,extent:4,count:9",
                    "--probes", "2", flag, value])
        assert code == 3
        assert capsys.readouterr().err == f"numeric failure [InvalidArgumentError]: {error}\n"

    @pytest.mark.parametrize("value", ["-1e-3", "-0.001"])  # -inf: the float-flag sweep
    def test_negative_value_after_a_space_parses_like_equals(self, coulomb_spec_file, value):
        def outcome(*flag):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["norm", "--spec", coulomb_spec_file, *flag])
            return code, out.getvalue(), err.getvalue()

        spaced = outcome("--s", value)
        assert spaced[0] in (0, 3)
        assert spaced == outcome(f"--s={value}")

    def test_negative_list_after_a_space_parses_like_equals(self, capsys):
        # -0.5,0.7 is not one float, but it is a value: both forms reach the range check
        errors = []
        for flags in (["--gammas", "-0.5,0.7"], ["--gammas=-0.5,0.7"]):
            assert run(["verify-eigen", "--delta", "0.75", *flags]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "[InvalidArgumentError]" in errors[0] and "(0, delta) = (0, 0.75)" in errors[0]

    def test_flags_are_never_joined_as_values(self):
        argv = ["--out", "--s", "--tol", "-inf", "verify-eigen", "--gammas", "-.5", "-h"]
        assert cli._attach_negative_values(argv) == [
            "--out", "--s", "--tol=-inf", "verify-eigen", "--gammas=-.5", "-h"]

    @pytest.mark.parametrize("command", ["norm", "decompose", "constants", "solve", "probe"])
    @pytest.mark.parametrize("term, named", [
        ({"kind": "custom", "params": {"profile": {"kind": "power"}}}, "kind 'custom'"),
        ({"kind": "sharp_example", "params": {"delta": 1.0}}, "kind 'sharp_example'"),
        ({"kind": "gaussian", "params": {"kapa": 0.05}}, "gaussian has no parameter 'kapa'"),
        ({"kind": "inverse_power", "params": {}}, "inverse_power needs parameter 't'"),
        ({"kind": "yukawa", "params": {"mu": "2"}}, "yukawa parameter 'mu'"),
        ({"kind": "gaussian", "params": {"width": "2"}}, "gaussian parameter 'width'"),
        ({"kind": "inverse_power", "params": {"t": None}}, "inverse_power parameter 't'"),
        ({"kind": "inverse_power", "params": {"t": True}}, "inverse_power parameter 't'"),
        ({"kind": "inverse_power", "params": {"t": [1]}}, "inverse_power parameter 't'"),
        ({"kind": "coulomb", "coeff": None}, "coulomb coeff"),
        ({"kind": "gaussian", "shift": ["a"]}, "gaussian shift"),
    ], ids=["custom", "sharp_example", "kapa", "no_t", "mu_str", "width_str", "t_null",
            "t_bool", "t_list", "coeff_null", "shift_str"])
    def test_bad_term_is_exit_three_naming_it(self, tmp_path, capsys, command, term, named):
        # each used to run with a default, or end in a TypeError traceback (exit 1)
        p = tmp_path / "bad_term.json"
        p.write_text(json.dumps({"n": 3, "N": 1, "masses": [1.0], "pairwise": [],
                                 "additive": None, "one_particle": [{"i": 1, **term}]}))
        assert run([command, "--spec", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure [InvalidArgumentError]: ") and named in err

    def test_verify_eigen_gamma_above_delta_is_exit_three(self, capsys):
        # the default --gammas 0.90,0.95,0.99 lie above delta = 0.75
        code = run(["verify-eigen", "--delta", "0.75"])
        assert code == 3
        err = capsys.readouterr().err
        assert "[InvalidArgumentError]" in err and "(0, delta) = (0, 0.75)" in err

    @pytest.mark.parametrize("n, N", [(2.7, 1), (0, 1), (1, 0)])
    @pytest.mark.parametrize("command", ["constants", "norm", "probe"])
    def test_bad_n_or_N_is_exit_three(self, tmp_path, capsys, n, N, command):
        # 2.7 used to run as n = 2; n = 0 and N = 0 failed late or not at all
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": n, "N": N, "one_particle": [], "pairwise": [],
                                 "additive": None}))
        assert run([command, "--spec", str(p)]) == 3
        assert "[InvalidArgumentError]" in capsys.readouterr().err


    @pytest.mark.parametrize("grid, named", [
        ("kind:tensor,extnet:4,count:9", "grid part 'extnet:4'"),
        ("kind:tensor,extent:4,count:9,rmax:5", "grid part 'rmax:5'"),
        ("kind:tensor,extent:4,count:9,count:11", "grid part 'count:9'"),
        ("kind:tensor,extent:4,count", "grid part 'count'"),
        ("kind:sphere,count:9", "unknown grid kind 'sphere'"),
        ("kind:radial,count:30,rmax:5", "unknown grid kind 'radial'"),
        ("kind:tensor,extent:4", "grid has no key 'count'"),
        ("extent:4,count:9", "grid has no key 'kind'"),
    ], ids=["misspelled", "other_kind", "repeated", "no_colon", "unknown_kind", "radial",
            "no_count", "no_kind"])
    @pytest.mark.parametrize("command", ["solve", "probe"])
    def test_bad_grid_descriptor_is_config_error(self, gaussian_spec_file, capsys,
                                                 command, grid, named):
        # the radial kind is gone: solve and probe run on tensor grids only
        assert run([command, "--spec", gaussian_spec_file, "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error [ValueError]: ") and named in err

    def test_non_finite_extent_is_named(self, gaussian_spec_file, capsys):
        assert run(["solve", "--spec", gaussian_spec_file,
                    "--grid", "kind:tensor,extent:inf,count:9"]) == 3
        assert "tensor extent must be finite and positive" in capsys.readouterr().err

    def test_even_count_is_named(self, gaussian_spec_file, capsys):
        # an even count is rejected, not rounded up to the next odd one
        assert run(["solve", "--spec", gaussian_spec_file,
                    "--grid", "kind:tensor,extent:8,count:128"]) == 3
        assert "tensor axis count must be odd" in capsys.readouterr().err


_COULOMB_TERM = {"i": 1, "kind": "coulomb"}


class TestSpecFile:
    """Every key of a spec file is declared once in ``potentials``; anything
    else exits 3 naming its JSON path, before any norm is computed."""

    @pytest.mark.parametrize("spec, named", [
        ({"n": 3, "N": 1, "one_particle": [{**_COULOMB_TERM, "coef": 0.05}]},
         "one_particle[0].coef: unknown key"),
        ({"n": 3, "N": 1, "one_partcle": [_COULOMB_TERM]}, "one_partcle: unknown key"),
        ({"n": 3, "N": 2, "pairwize": [{**_COULOMB_TERM, "j": 2}]}, "pairwize: unknown key"),
        ({"n": 3, "N": 1, "additive": {}}, "additive.kind: required key is missing"),
        ({"n": 3, "N": 1, "additive": {"kind": "gaussian", "scale": 2.0}},
         "additive.scale: unknown key"),
        ({"n": 3, "N": 1, "one_particle": None}, "one_particle must be a list (got null)"),
        ({"n": 3, "N": 1, "masses": None}, "masses must be a list (got null)"),
        ([1], "the spec must be an object (got a list)"),
        ({"n": 3, "N": 1, "additive": [1]}, "additive must be an object or null (got a list)"),
        ({"n": 3, "N": 1, "one_particle": _COULOMB_TERM},
         "one_particle must be a list (got an object)"),
        ({"n": 3, "N": 1, "pairwise": [1]}, "pairwise[0] must be an object (got 1)"),
        ({"n": 3, "N": 1, "one_particle": [{**_COULOMB_TERM, "params": []}]},
         "one_particle[0].params must be an object (got a list)"),
        ({"n": 3, "N": 1, "one_particle": [{"i": 1}]}, "one_particle[0].kind: required key"),
        ({"n": 3, "N": 1, "one_particle": [{"kind": "coulomb"}]},
         "one_particle[0].i: required key"),
        ({"N": 1}, "n: required key is missing"),
        ({"n": 3, "N": 1, "masses": ["1"]}, "masses[0] must be a finite number > 0"),
        ({"n": 3, "N": 1, "masses": [True]}, "masses[0] must be a finite number > 0"),
        ({"n": 3, "N": 1, "masses": ["abc"]}, "masses[0] must be a finite number > 0"),
        # raw text: a key repeated within one object
        ('{"n": 3, "N": 2, "N": 1, "one_particle": [{"i": 1, "kind": "coulomb", "coeff": 0.05}]}',
         "N: key repeated within one object"),
        ('{"n": 3, "N": 1, "one_particle": [{"i": 1, "kind": "coulomb", "coeff": 0.05, '
         '"coeff": 1.0}]}', "coeff: key repeated within one object"),
    ], ids=["coef", "one_partcle", "pairwize", "additive_empty", "additive_unknown_key",
            "one_particle_null", "masses_null", "top_level_list", "additive_list",
            "one_particle_object", "entry_not_object", "params_list", "no_kind", "no_i", "no_n",
            "mass_str", "mass_bool", "mass_abc", "repeated_N", "repeated_coeff"])
    def test_bad_spec_is_exit_three_naming_its_path(self, tmp_path, capsys, spec, named):
        # each used to exit 0 with a key ignored, the last of a repeated key taken or a
        # string read as a number, 1 with a TypeError traceback, or 2 with a bare KeyError
        p = tmp_path / "bad.json"
        p.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        assert run(["constants", "--spec", str(p), "--alpha", "2.4", "--gamma", "0.4"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure [InvalidArgumentError]: ") and named in err

    def test_documented_and_perfbench_shapes_load(self, tmp_path):
        from flbarron.potentials import _ENTRY_KEYS, _SPEC_KEYS, HamiltonianSpec

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("A spec file is JSON:"):readme.index("Exit codes:")]
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        for keys in (_SPEC_KEYS, *_ENTRY_KEYS.values()):
            assert all(f"`{key}`" in section for key in keys)
        term = {"kind": "gaussian", "params": {}, "shift": [], "coeff": 0.5}
        perfbench_shape = {"n": 1, "N": 2, "masses": [1.0, 1.5], "one_particle": [],
                           "pairwise": [{"i": 1, "j": 2, **term}], "additive": None}
        for spec in (example, perfbench_shape, {**perfbench_shape, "additive": term}):
            ham = HamiltonianSpec.from_json_dict(spec)
            assert ham.N == spec["N"] and ham.masses == tuple(spec["masses"])
            p = tmp_path / "spec.json"
            p.write_text(json.dumps(spec))
            assert run(["--out", str(tmp_path / "o.json"), "norm", "--spec", str(p)]) == 0

    def test_absent_keys_take_their_defaults(self):
        from flbarron.potentials import HamiltonianSpec, PotentialTerm

        ham = HamiltonianSpec.from_json_dict({"n": 3, "N": 2, "one_particle": [_COULOMB_TERM]})
        assert ham.masses == (1.0, 1.0)
        assert ham.potential.one_particle == [(1, PotentialTerm("coulomb", {}, (), 1.0))]
        assert ham.potential.pairwise == [] and ham.potential.additive is None


    @pytest.mark.parametrize("argv", [
        ["norm"], ["decompose"], ["constants", "--alpha", "2.4", "--gamma", "0.4"],
        ["solve", "--grid", "kind:tensor,extent:6,count:17"],
        ["--seed", "3", "probe", "--op", "r", "--grid", "kind:tensor,extent:6,count:17",
         "--alpha", "inf", "--beta", "0.4", "--probes", "3"]],
        ids=["norm", "decompose", "constants", "solve", "probe"])
    def test_config_hash_follows_the_spec_content_not_its_path(self, tmp_path, argv):
        spec = {"n": 1, "N": 1, "masses": [1.0], "pairwise": [],
                "one_particle": [{"i": 1, "kind": "gaussian", "params": {"kappa": 0.05}}]}
        where = argv.index("--op") + 2 if "probe" in argv else 1
        first, second = tmp_path / "a.json", tmp_path / "copy" / "b.json"
        second.parent.mkdir()

        def config_hash(path):
            out = tmp_path / "out.json"
            assert run(["--out", str(out), *argv[:where], "--spec", str(path),
                        *argv[where:]]) == 0
            return json.loads(out.read_text())["meta"]["config_hash"]

        first.write_text(json.dumps(spec))
        # the same spec under another name, with its keys in another order and
        # an absent key spelled out at its default
        second.write_text(json.dumps({**dict(reversed(spec.items())), "additive": None},
                                     indent=2))
        assert config_hash(first) == config_hash(second)
        spec["one_particle"][0]["params"]["kappa"] = 0.06  # edited in place
        first.write_text(json.dumps(spec))
        assert config_hash(first) != config_hash(second)

def _float_flags() -> list:
    """(subcommand, flag) for every float-typed flag the parser accepts; the
    global ones (--tol) under every subcommand."""
    parser = cli.build_parser()
    floats = lambda p: [a.option_strings[0] for a in p._actions if a.type is float]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, flag) for name, sp in sub.choices.items()
            for flag in floats(parser) + floats(sp)]


class TestNonFiniteFloatFlags:
    SPECS = {"coulomb": {"n": 3, "N": 2, "masses": [1.0, 1.0], "one_particle": [],
                         "pairwise": [{"i": 1, "j": 2, "kind": "coulomb", "params": {},
                                       "shift": [], "coeff": 1.0}], "additive": None},
             "gauss": {"n": 1, "N": 1, "masses": [1.0], "one_particle": [], "pairwise": [],
                       "additive": {"kind": "gaussian", "params": {"kappa": 0.05},
                                    "shift": [], "coeff": 1.0}}}
    # tiny runs that exit 0 with every flag at its default
    BASE = {"norm": ["--spec", "coulomb", "--alpha", "2.4"],
            "decompose": ["--spec", "coulomb"],
            "constants": ["--spec", "coulomb", "--alpha", "2.4"],
            "solve": ["--spec", "gauss", "--grid", "kind:tensor,extent:4,count:9"],
            "verify-eigen": ["--cells", "20", "--gammas", "0.9"],
            # spacing 0.5: at spacing 1 the discrete norm exceeds the certificate
            # (test_probe_exits_three_on_a_coarse_grid)
            "probe": ["--spec", "gauss", "--grid", "kind:tensor,extent:4,count:17",
                      "--probes", "2"],
            "demo-embeddings": []}
    CASES = [(cmd, flag, value) for cmd, flag in _float_flags() for value in ("nan", "inf", "-inf")]

    def test_probe_exits_three_on_a_coarse_grid(self, tmp_path):
        # the exact norm at p = 1 and p = inf of R on the 9-point grid of
        # extent 4 (spacing 1) exceeds the certificate mu_tilde * C_V = 0.05,
        # a Riemann sum of the kernel too coarse for it; at spacing 0.5 it holds
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(self.SPECS["gauss"]))
        for p, ratio in (("1", 1.005), ("inf", 1.0514)):
            out = tmp_path / f"p{p}.json"
            assert run(["--out", str(out), "probe", "--spec", str(path), "--grid",
                        "kind:tensor,extent:4,count:9", "--probes", "2", "--p", p]) == 3
            rep = json.loads(out.read_text())["report"]
            assert rep["empirical"] / rep["certified"] == pytest.approx(ratio, abs=1e-4)

    def test_every_subcommand_has_a_base_run(self):
        assert set(self.BASE) == {cmd for cmd, _, _ in self.CASES}

    def test_exit_zero_without_nan_or_three_with_a_named_error(self, tmp_path):
        # every case, written as ``--flag=value`` and as ``--flag value``, each with
        # RuntimeWarning as an error: NaN is named before the subcommand loads its spec;
        # +-inf either runs to a NaN-free report or fails with a typed error where it
        # enters, so the output guard's NonFiniteError never fires
        paths = {}
        for name, spec in self.SPECS.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(spec))
        failures = [f"{cmd} {flag}{sep}{value}: {failure}" for cmd, flag, value in self.CASES
                    for sep in ("=", " ")
                    if (failure := self.failure(cmd, flag, value, paths, sep))]
        assert not failures, "\n".join(failures)

    def failure(self, cmd, flag, value, paths, sep):
        """None when the case behaves as stated above, else what it did."""
        def load(path, load_spec=cli._load_spec):
            if value == "nan":
                raise AssertionError("reached the subcommand")
            return load_spec(path)

        argv = [cmd] + [str(paths.get(a, a)) for a in self.BASE[cmd]]
        pair = [f"{flag}={value}"] if sep == "=" else [flag, value]
        argv = pair + argv if flag == "--tol" else argv + pair
        out, err = io.StringIO(), io.StringIO()
        try:
            with (warnings.catch_warnings(), mock.patch.object(cli, "_load_spec", load),
                  contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
                warnings.simplefilter("error", RuntimeWarning)
                code = run(argv)
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
        last = (err.getvalue().splitlines() or [""])[-1]
        if value == "nan":
            named = f"numeric failure [InvalidArgumentError]: {flag} must be finite or +-inf (got nan)"
            return None if (code, last) == (3, named) else f"exit {code}: {last}"
        if code == 0:
            constants = []
            json.loads(out.getvalue(), parse_constant=lambda c: constants.append(c) or float(c))
            return "NaN in the JSON output" if "NaN" in constants else None
        if code == 3 and re.fullmatch(r"numeric failure \[(?!NonFiniteError)\w+Error\]: \S.*", last):
            return None
        return f"exit {code}: {last}"


class TestOtherSubcommands:
    def test_norm_and_decompose(self, coulomb_spec_file, tmp_path):
        out = tmp_path / "n.json"
        assert run(["--out", str(out), "norm", "--spec", coulomb_spec_file,
                    "--alpha", "2.0", "--beta", "1.0"]) == 0
        data = json.loads(out.read_text())
        assert data["big_C_V"] > 0
        out2 = tmp_path / "d.json"
        assert run(["--out", str(out2), "decompose", "--spec", coulomb_spec_file,
                    "--radius", "1.0", "--alpha-prime", "3.0"]) == 0
        d = json.loads(out2.read_text())
        assert d["decompositions"][0]["low_fl1"] == pytest.approx(4.0, rel=1e-10)

    def test_decompose_log_kernel_is_divergent(self, tmp_path, capsys):
        # the log kernel has no tail model: its high part is no finite sum up to the grid's edge
        p = tmp_path / "log.json"
        p.write_text(json.dumps({"n": 1, "N": 2, "one_particle": [{"i": 1, "kind": "log_1d"}],
                                 "pairwise": [{"i": 1, "j": 2, "kind": "coulomb"}]}))
        assert run(["decompose", "--spec", str(p), "--radius", "1", "--alpha-prime", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure [DivergentPartError]: log_1d: ")
        assert run(["norm", "--spec", str(p), "--alpha", "2.5"]) == 3

    def test_role_keys_of_every_term(self, tmp_path):
        # one spec with all three roles: j only on pairwise entries, additive
        # terms not decomposed, one nu entry per power term
        term = {"params": {}, "shift": [], "coeff": 0.1}
        spec = {"n": 3, "N": 2, "masses": [1.0, 1.0],
                "one_particle": [{"i": 2, "kind": "coulomb", **term}],
                "pairwise": [{"i": 1, "j": 2, "kind": "coulomb", **term}],
                "additive": {"kind": "gaussian", **term}}
        p = tmp_path / "roles.json"
        p.write_text(json.dumps(spec))
        out = tmp_path / "o.json"
        assert run(["--out", str(out), "norm", "--spec", str(p)]) == 0
        assert [(r["role"], r["i"], r["j"]) for r in json.loads(out.read_text())["reports"]] == [
            ("one_particle", 2, None), ("pairwise", 1, 2), ("additive", None, None)]
        assert run(["--out", str(out), "decompose", "--spec", str(p)]) == 0
        d = json.loads(out.read_text())["decompositions"]
        assert [(e["role"], e["i"], e.get("j", "absent")) for e in d] == [
            ("one_particle", 2, "absent"), ("pairwise", 1, 2)]
        assert run(["--out", str(out), "constants", "--spec", str(p), "--alpha", "2.4"]) == 0
        assert [e["term"] for e in json.loads(out.read_text())["nu_constants"]] == [
            "one_particle:2", "pairwise:1,2"]

    def test_probe_subcommand(self, gaussian_spec_file, tmp_path):
        out = tmp_path / "p.json"
        code = run(["--out", str(out), "probe", "--spec", gaussian_spec_file,
                    "--grid", "kind:tensor,extent:6,count:65", "--op", "r",
                    "--alpha", "inf", "--beta", "0.4", "--probes", "5"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["satisfied"] is True

    def test_verify_eigen_at_small_delta(self, tmp_path):
        # the transform's QUADPACK fallback raised NonConvergenceError here (exit 3)
        out = tmp_path / "e.json"
        assert run(["--out", str(out), "verify-eigen", "--delta", "0.2", "--gammas", "0.1,0.15",
                    "--cells", "240"]) == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["residual"] < 1e-3
        assert rep["decay_exponent"] == pytest.approx(-3.2, abs=0.1)

    def test_demo_embeddings(self, tmp_path):
        out = tmp_path / "emb.json"
        assert run(["--out", str(out), "demo-embeddings"]) == 0
        data = json.loads(out.read_text())
        lows = [row[1] for row in data["counterexample_lower_bounds"]]
        assert lows == sorted(lows)
        partials = data["coulomb_partial_B_minus1"]
        assert partials == sorted(partials)
