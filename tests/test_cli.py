import json

import pytest

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


    def test_non_finite_norm_is_exit_three(self, gaussian_spec_file, capsys):
        code = run(["probe", "--spec", gaussian_spec_file, "--s", "nan",
                    "--grid", "kind:tensor,extent:6,count:9", "--alpha", "inf",
                    "--beta", "0.4", "--probes", "2"])
        assert code == 3
        assert "[NonFiniteError]" in capsys.readouterr().err

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

    def test_verify_eigen_gamma_above_delta_is_exit_three(self, capsys):
        # the default --gammas 0.90,0.95,0.99 lie above delta = 0.75
        code = run(["verify-eigen", "--delta", "0.75"])
        assert code == 3
        err = capsys.readouterr().err
        assert "[InvalidArgumentError]" in err and "(0, delta) = (0, 0.75)" in err


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

    def test_probe_subcommand(self, gaussian_spec_file, tmp_path):
        out = tmp_path / "p.json"
        code = run(["--out", str(out), "probe", "--spec", gaussian_spec_file,
                    "--grid", "kind:tensor,extent:6,count:65", "--op", "r",
                    "--alpha", "inf", "--beta", "0.4", "--probes", "5"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["satisfied"] is True

    def test_demo_embeddings(self, tmp_path):
        out = tmp_path / "emb.json"
        assert run(["--out", str(out), "demo-embeddings"]) == 0
        data = json.loads(out.read_text())
        lows = [row[1] for row in data["counterexample_lower_bounds"]]
        assert lows == sorted(lows)
        partials = data["coulomb_partial_B_minus1"]
        assert partials == sorted(partials)
