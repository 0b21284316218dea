"""Command-line surface: formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from splinegauss import basis, continuation, rules, solve_asymptotic_system
from splinegauss.cli import main

from tracing import golden, golden_rows


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_points(monkeypatch) -> list:
    """Record ``(degree, points)`` of every ``basis.evaluate_many`` call."""
    calls = []
    evaluate_many = basis.evaluate_many

    def counted(space, xs):
        calls.append((space.degree, len(xs)))
        return evaluate_many(space, xs)

    monkeypatch.setattr(basis, "evaluate_many", counted)
    return calls


class TestRuleCommand:
    def test_uniform_quintic_matches_reference_table(self, capsys, tmp_path):
        out_file = tmp_path / "rule.json"
        code, _, _ = run(
            capsys, ["rule", "-d", "5", "-c", "1", "-N", "10", "-o", str(out_file)]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["nodes"]) == 21
        for i, _, tau, omega, _ in golden_rows("d5_c1_N10"):
            assert abs(doc["nodes"][i - 1] - tau) <= 1e-12
            assert abs(doc["weights"][i - 1] - omega) <= 1e-12
        assert doc["residual_norm"] <= 1e-13
        assert doc["trace"]["status"] == "converged"

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["rule", "-d", "5", "-c", "1", "-N", "4"])
        code2, out2, _ = run(capsys, ["rule", "-d", "5", "-c", "1", "-N", "4"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, ["rule", "-d", "5", "-c", "1", "-N", "4", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element,i,tau,omega"
        assert len(lines) == 1 + 9
        assert len(lines[1].split(",")[2].split(".")[1]) == 20

    def test_parity_violation_exits_nonzero_with_json_error(self, capsys):
        code, _, err = run(capsys, ["rule", "-d", "5", "-c", "2", "-N", "2"])
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "parity"
        assert "odd number of elements" in payload["message"]

    def test_space_without_an_optimal_rule_is_an_invalid_space(
        self, capsys, tmp_path
    ):
        # an even degree, then a knot file whose end knots are not open
        knots = tmp_path / "knots.json"
        knots.write_text(json.dumps({**self.GOOD_KNOTS, "mults": [5, 4, 5]}))
        for argv in (["-d", "4", "-c", "1", "-N", "10"], ["--knots", str(knots)]):
            code, out, err = run(capsys, ["rule", *argv])
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "invalid-space"

    def test_knot_file_input(self, capsys, tmp_path):
        table = golden("d7_varying_N6")
        knots = tmp_path / "knots.json"
        knots.write_text(
            json.dumps(
                {
                    "degree": 7,
                    "breaks": table["breaks"],
                    "mults": table["mults"],
                }
            )
        )
        out_file = tmp_path / "rule.json"
        code, _, _ = run(
            capsys, ["rule", "--knots", str(knots), "-o", str(out_file)]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["nodes"]) == 19
        assert abs(doc["nodes"][0] - 0.01475556054370093982) <= 1e-11

    # knot file text ("dir" names a directory, None no file) and extra args
    GOOD_KNOTS = {"degree": 5, "breaks": [0.0, 1.0, 2.0], "mults": [6, 4, 6]}
    BAD_KNOTS = {
        "missing-file": (None, []),
        "unreadable": ("dir", []),
        "not-json": ("degree: 5\n", []),
        "not-an-object": (json.dumps([0.0, 1.0]), []),
        "missing-breaks": (json.dumps({"degree": 5, "mults": [6, 6]}), []),
        "missing-degree": (
            json.dumps({"breaks": [0.0, 1.0], "mults": [6, 6]}), []
        ),
        "mistyped-breaks": (
            json.dumps({**GOOD_KNOTS, "breaks": "0 1 2"}), []
        ),
        "mistyped-degree": (json.dumps({**GOOD_KNOTS, "degree": "five"}), []),
        "null-mults": (json.dumps({**GOOD_KNOTS, "mults": None}), []),
        "degree-conflict": (json.dumps(GOOD_KNOTS), ["-d", "7"]),
        "nan-break": (json.dumps({**GOOD_KNOTS, "breaks": [0.0, "NaN", 2.0]}), []),
        "infinite-break": (
            json.dumps({**GOOD_KNOTS, "breaks": [0.0, 1.0, float("inf")]}), []
        ),
        "no-supported-interval": (
            json.dumps({"degree": 1, "breaks": [0.0, 1.0, 2.0], "mults": [1, 2, 1]}),
            [],
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_KNOTS))
    def test_bad_knot_file_exits_2_with_json_error(self, capsys, tmp_path, case):
        text, extra = self.BAD_KNOTS[case]
        path = tmp_path / "knots.json"
        if text == "dir":
            path.mkdir()
        elif text is not None:
            path.write_text(text)
        code, out, err = run(capsys, ["rule", "--knots", str(path), *extra])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "invalid-space"

    def test_good_knot_file_takes_a_matching_degree(self, capsys, tmp_path):
        path = tmp_path / "knots.json"
        path.write_text(json.dumps(self.GOOD_KNOTS))
        code, out, _ = run(capsys, ["rule", "--knots", str(path), "-d", "5"])
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 5

    def test_env_var_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLINEGAUSS_TOL", "1e-30")
        code, _, err = run(capsys, ["rule", "-d", "5", "-c", "1", "-N", "4"])
        assert code == 4
        assert json.loads(err)["error"] == "residual"

    def test_stall_exits_3_with_json_error(self, capsys, monkeypatch):
        # the step constants of the library's stall test
        monkeypatch.setattr(continuation, "_INITIAL_STEP", 4e-2)
        monkeypatch.setattr(continuation, "_MIN_STEP", 3.9e-2)
        monkeypatch.setattr(continuation, "_MAX_STEP", 4e-2)
        monkeypatch.setattr(rules, "_NEWTON_MAX_ITERS", 1)
        code, out, err = run(
            capsys, ["rule", "-d", "7", "-c", "1", "-N", "2", "--interval", "0", "1"]
        )
        assert code == 3
        assert json.loads(out)["trace"]["status"] == "stalled"
        payload = json.loads(err)
        assert payload["error"] == "stalled"
        assert payload["message"].startswith("trace stalled at t=")

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, ["rule", "-d", "5"])
        assert code == 2
        assert json.loads(err)["error"] == "invalid-space"

    # interval far from unit scale: exit code and the error kind, if any
    INTERVALS = {
        "wide": (["0", "1e5"], 0, None),
        "narrow": (["0", "1e-4"], 0, None),
        # knots near 1e6 carry an error of 1e-10, so the residual norm is
        # about 2.2e-12, above the default 1e-12
        "far-from-origin": (["1e6", "1000010"], 4, "residual"),
    }

    @pytest.mark.parametrize("case", sorted(INTERVALS))
    def test_interval_scale(self, capsys, case):
        interval, expect, kind = self.INTERVALS[case]
        code, out, err = run(
            capsys, ["rule", "-d", "5", "-c", "1", "-N", "10", "--interval", *interval]
        )
        assert code == expect
        assert json.loads(out)["trace"]["status"] == "converged"
        assert (json.loads(err)["error"] if err else None) == kind

    # end points that are not finite, rejected before any arithmetic
    NON_FINITE = {
        "nan-start": ["nan", "1"],
        "infinite-end": ["0", "inf"],
        "negative-infinite-start": ["-inf", "0"],
    }

    # negative end points in exponent form and the plain form of each
    EXPONENT_FORMS = {
        "exponent": (["-1e6", "-999990"], ["-1000000", "-999990"]),
        "signed-exponent": (["-1E+6", "-9.9999e5"], ["-1000000", "-999990"]),
        "fraction-exponent": (["-.5e1", "0"], ["-5", "0"]),
    }

    @pytest.mark.parametrize("case", sorted(EXPONENT_FORMS))
    def test_exponent_form_interval_equals_the_plain_form(self, capsys, case):
        runs = [
            run(capsys, ["rule", "-d", "5", "-c", "1", "-N", "4", "--interval", *ends])
            for ends in self.EXPONENT_FORMS[case]
        ]
        assert runs[0] == runs[1]
        assert "invalid-option" not in runs[0][2]

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_interval_exits_2_with_json_error(self, capsys, case):
        code, out, err = run(
            capsys,
            ["rule", "-d", "5", "-c", "1", "-N", "4", "--interval",
             *self.NON_FINITE[case]],
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "invalid-space"

    def test_custom_interval(self, capsys):
        code, out, _ = run(
            capsys,
            ["rule", "-d", "5", "-c", "1", "-N", "4", "--interval", "0", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["interval"] == [0.0, 1.0]
        assert all(0.0 <= x <= 1.0 for x in doc["nodes"])


class TestValidateCommand:
    @pytest.fixture
    def rule_doc(self, capsys, tmp_path):
        path = tmp_path / "rule.json"
        code, _, _ = run(
            capsys, ["rule", "-d", "5", "-c", "0", "-N", "3", "-o", str(path)]
        )
        assert code == 0
        return path

    def test_good_document_passes(self, capsys, rule_doc):
        code, out, _ = run(capsys, ["validate", str(rule_doc)])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residual_norm"] <= 1e-13
        assert report["random_spline_max_error"] <= 1e-13
        assert report["samples"] == 100

    def test_perturbed_weight_fails_and_names_worst_basis(
        self, capsys, rule_doc, tmp_path
    ):
        doc = json.loads(rule_doc.read_text())
        doc["weights"][3] += 1e-6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 4
        report = json.loads(out)
        assert report["pass"] is False
        assert report["max_basis_error"] > 1e-8
        assert isinstance(report["worst_basis_index"], int)

    def test_one_basis_evaluation_per_document(
        self, capsys, rule_doc, monkeypatch
    ):
        calls = count_points(monkeypatch)
        code, _, _ = run(capsys, ["validate", str(rule_doc)])
        assert code == 0
        assert calls == [(5, len(json.loads(rule_doc.read_text())["nodes"]))]

    def test_validation_is_seeded_and_deterministic(self, capsys, rule_doc):
        _, out1, _ = run(capsys, ["validate", str(rule_doc)])
        _, out2, _ = run(capsys, ["validate", str(rule_doc)])
        assert out1 == out2

    # document text written from the good document, or None for no file
    MALFORMED = {
        "missing-interval": lambda doc: json.dumps(
            {key: value for key, value in doc.items() if key != "interval"}
        ),
        "not-json": lambda doc: "element,i,tau,omega\n1,1,0.5,1.0\n",
        "missing-file": None,
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document_exits_2_with_json_error(
        self, capsys, rule_doc, tmp_path, case
    ):
        path = tmp_path / "malformed.json"
        make = self.MALFORMED[case]
        if make is not None:
            path.write_text(make(json.loads(rule_doc.read_text())))
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "malformed-document"


class TestAsymptoticCommand:
    def test_tabulated_pattern(self, capsys):
        code, out, _ = run(capsys, ["asymptotic", "-d", "7", "-c", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["period"] == 1
        assert doc["provenance"] == "asymptotic"
        assert abs(doc["nodes"][1] - 0.31101776349538638639) <= 1e-15
        assert abs(doc["weights"][0] - 37 / 135) <= 1e-15

    def test_solver_route_matches(self, capsys):
        _, out1, _ = run(capsys, ["asymptotic", "-d", "5", "-c", "1"])
        _, out2, _ = run(capsys, ["asymptotic", "-d", "5", "-c", "1", "--solve"])
        a, b = json.loads(out1), json.loads(out2)
        assert np.allclose(a["nodes"], b["nodes"], atol=1e-13)
        assert np.allclose(a["weights"], b["weights"], atol=1e-13)

    def test_unsupported_pair(self, capsys):
        code, _, err = run(capsys, ["asymptotic", "-d", "5", "-c", "5"])
        assert code == 2
        assert json.loads(err)["error"] == "unsupported"

    def test_stalled_seed_trace_exits_2_with_json_error(self, capsys, monkeypatch):
        # the step constants of the library's stall test
        monkeypatch.setattr(continuation, "_INITIAL_STEP", 4e-2)
        monkeypatch.setattr(continuation, "_MIN_STEP", 3.9e-2)
        monkeypatch.setattr(continuation, "_MAX_STEP", 4e-2)
        monkeypatch.setattr(rules, "_NEWTON_MAX_ITERS", 1)
        solve_asymptotic_system.cache_clear()
        code, out, err = run(capsys, ["asymptotic", "-d", "7", "-c", "1", "--solve"])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "unsupported"
        assert payload["message"].startswith("seed trace on 13 elements stalled at t=")


class TestHybridCommand:
    def test_shallow_c0_hybrid(self, capsys):
        code, out, _ = run(
            capsys,
            ["hybrid", "-d", "5", "-c", "0", "-N", "101", "--boundary-depth", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"] == "hybrid"
        assert len(doc["nodes"]) == 253
        assert doc["residual_norm"] <= 1e-12

    def test_insufficient_depth_reports_residual(self, capsys):
        code, out, err = run(
            capsys,
            ["hybrid", "-d", "5", "-c", "2", "-N", "31", "--boundary-depth", "1"],
        )
        assert code == 4
        assert json.loads(err)["error"] == "residual"
        doc = json.loads(out)  # the rule is still emitted for inspection
        assert doc["residual_norm"] > 1e-12


    def test_high_degree_hybrid_keeps_the_boundary_node_near_the_knot(
        self, capsys
    ):
        # the last boundary node of degree 11 sits at 0.98007
        code, out, _ = run(
            capsys,
            ["hybrid", "-d", "11", "-c", "0", "-N", "21", "--boundary-depth", "1"],
        )
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 116

    @pytest.mark.parametrize("d, c", [(7, 6), (5, 4)])
    def test_unassemblable_hybrid_exits_3_with_json_error(self, capsys, d, c):
        code, out, err = run(
            capsys,
            ["hybrid", "-d", str(d), "-c", str(c), "-N", "21",
             "--boundary-depth", "1"],
        )
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "hybrid-failed"
        assert "optimal count" in payload["message"]


class TestInvalidOptions:
    # argv and $SPLINEGAUSS_TOL (None leaves it unset) of each bad request
    CASES = {
        "tol-nan": (["hybrid", "-d", "5", "-c", "2", "-N", "31",
                     "--boundary-depth", "1", "--tol", "nan"], None),
        "tol-inf": (["rule", "-d", "5", "-c", "1", "-N", "4", "--tol", "inf"],
                    None),
        "tol-zero": (["rule", "-d", "5", "-c", "1", "-N", "4", "--tol", "0"],
                     None),
        "tol-negative": (["validate", "{doc}", "--tol=-1e-12"], None),
        "env-not-a-number": (["rule", "-d", "5", "-c", "1", "-N", "4"], "abc"),
        "env-nan": (["hybrid", "-d", "5", "-c", "0", "-N", "11",
                     "--boundary-depth", "1"], "nan"),
        "env-negative": (["validate", "{doc}"], "-1"),
        "samples-zero": (["validate", "{doc}", "--samples", "0"], None),
        "samples-negative": (["validate", "{doc}", "--samples", "-1"], None),
        # rejected by the argument parser
        "degree-not-a-number": (["rule", "-d", "five"], None),
        "tol-negative-separate": (["validate", "{doc}", "--tol", "-1e-12"], None),
        "value-missing": (["rule", "-d", "5", "-c", "1", "-N"], None),
        "required-missing": (["hybrid", "-d", "5", "-c", "0"], None),
        "bad-choice": (["rule", "-d", "5", "-c", "1", "-N", "4", "--format",
                        "xml"], None),
        "unknown-option": (["asymptotic", "-d", "7", "-c", "1", "--fast"], None),
        "unknown-command": (["tabulate"], None),
        "no-command": ([], None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_json_error(self, capsys, monkeypatch, tmp_path, case):
        doc = tmp_path / "rule.json"
        assert run(
            capsys, ["rule", "-d", "5", "-c", "0", "-N", "3", "-o", str(doc)]
        )[0] == 0
        argv, env = self.CASES[case]
        if env is not None:
            monkeypatch.setenv("SPLINEGAUSS_TOL", env)
        code, out, err = run(capsys, [a.format(doc=doc) for a in argv])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "invalid-option"

    def test_help_prints_usage_on_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rule", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: splinegauss rule")
        assert captured.err == ""

    def test_uncaught_exception_exits_1_with_json_error(self, capsys, monkeypatch):
        def broken(space):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("splinegauss.cli.trace", broken)
        code, out, err = run(capsys, ["rule", "-d", "5", "-c", "1", "-N", "4"])
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "internal-error",
            "message": "ZeroDivisionError: division by zero",
        }

    def test_tolerance_from_either_source_is_reported(
        self, capsys, monkeypatch, tmp_path
    ):
        doc = tmp_path / "rule.json"
        run(capsys, ["rule", "-d", "5", "-c", "0", "-N", "3", "-o", str(doc)])
        _, out, _ = run(capsys, ["validate", str(doc), "--tol", "1e-11"])
        assert json.loads(out)["tolerance"] == 1e-11
        monkeypatch.setenv("SPLINEGAUSS_TOL", "2e-11")
        _, out, _ = run(capsys, ["validate", str(doc), "--samples", "1"])
        report = json.loads(out)
        assert (report["tolerance"], report["samples"]) == (2e-11, 1)


class TestUnwritableOutput:
    # every command, with its output pointed into a missing directory
    COMMANDS = {
        "rule": ["rule", "-d", "5", "-c", "1", "-N", "4", "-o", "{out}"],
        "rule-csv": ["rule", "-d", "5", "-c", "1", "-N", "4", "--format",
                     "csv", "-o", "{out}"],
        "validate": ["validate", "{doc}", "-o", "{out}"],
        "asymptotic": ["asymptotic", "-d", "7", "-c", "1", "-o", "{out}"],
        "hybrid": ["hybrid", "-d", "5", "-c", "0", "-N", "11",
                   "--boundary-depth", "1", "-o", "{out}"],
        "assemble": ["assemble", "-p", "3", "-k", "2", "-l", "1", "-N", "30",
                     "--out-prefix", "{out}"],
    }

    @pytest.mark.parametrize("case", sorted(COMMANDS))
    def test_exits_2_with_json_error(self, capsys, tmp_path, case):
        doc = tmp_path / "rule.json"
        assert run(
            capsys, ["rule", "-d", "5", "-c", "1", "-N", "4", "-o", str(doc)]
        )[0] == 0
        missing = tmp_path / "missing" / "out"
        argv = [a.format(doc=doc, out=missing) for a in self.COMMANDS[case]]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "unwritable-output"


class TestAssembleCommand:
    def test_savings_and_matrix_files(self, capsys, tmp_path):
        prefix = tmp_path / "demo"
        code, out, _ = run(
            capsys,
            [
                "assemble",
                "-p",
                "2",
                "-k",
                "1",
                "-l",
                "1",
                "-N",
                "11",
                "--out-prefix",
                str(prefix),
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["mass_max_rel_diff"] <= 1e-12
        assert report["stiffness_max_rel_diff"] <= 1e-12
        assert report["optimal_nodes"] == 28
        assert report["classical_nodes"] == 33
        mass = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in (tmp_path / "demo_mass.csv").read_text().splitlines()
            ]
        )
        assert mass.shape == (13, 13)  # trial dimension N(p-k) + k + 1
        assert np.abs(mass - mass.T).max() == 0.0
        assert (tmp_path / "demo_stiffness.csv").exists()

    def test_trial_basis_is_evaluated_once_per_rule(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = count_points(monkeypatch)
        argv = ["assemble", "-p", "3", "-k", "2", "-l", "1", "-N", "30",
                "--out-prefix", str(tmp_path / "run")]
        assert run(capsys, argv)[0] == 0
        # optimal rule, then classical Gauss; the files reuse the first
        assert [n for degree, n in calls if degree == 3] == [91, 120]

    @pytest.mark.parametrize("case", sorted(TestRuleCommand.NON_FINITE))
    def test_non_finite_interval_exits_2_without_writing(
        self, capsys, tmp_path, case
    ):
        code, out, err = run(
            capsys,
            ["assemble", "-p", "2", "-k", "1", "-l", "1", "-N", "11",
             "--interval", *TestRuleCommand.NON_FINITE[case],
             "--out-prefix", str(tmp_path / "demo")],
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "invalid-spec"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(TestRuleCommand.EXPONENT_FORMS))
    def test_exponent_form_interval_equals_the_plain_form(
        self, capsys, tmp_path, case
    ):
        outputs = []
        for form, ends in zip(("exp", "plain"), TestRuleCommand.EXPONENT_FORMS[case]):
            prefix = tmp_path / form
            result = run(
                capsys,
                ["assemble", "-p", "2", "-k", "1", "-l", "1", "-N", "11",
                 "--interval", *ends, "--out-prefix", str(prefix)],
            )
            files = sorted(
                (path.name[len(form):], path.read_bytes())
                for path in tmp_path.glob(f"{form}_*")
            )
            outputs.append((result, files))
        assert outputs[0] == outputs[1]
        assert "invalid-option" not in outputs[0][0][2]

    def test_parity_violation_exits_2_without_writing(self, capsys, tmp_path):
        prefix = tmp_path / "demo"
        code, out, err = run(
            capsys,
            ["assemble", "-p", "2", "-k", "1", "-l", "1", "-N", "10",
             "--out-prefix", str(prefix)],
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "parity"
        assert "odd number of elements" in payload["message"]
        assert list(tmp_path.iterdir()) == []
