import json
import re
import shutil
from pathlib import Path

import pytest

from kstab import cli, runner


def test_suite_green():
    report = runner.run_suite()
    assert not report.failed
    counts = report.summary()
    assert counts["fail"] == 0
    assert counts["pass"] > 60
    # The recorded misprints surface as discrepancy rows, never failures.
    assert counts["discrepancy-noted"] == 5


def test_deterministic_json():
    one = runner.emit_report(runner.run_suite(), "json")
    two = runner.emit_report(runner.run_suite(jobs=4), "json")
    assert one == two


def test_seed_recorded():
    payload = json.loads(runner.emit_report(runner.run_suite(seed=7), "json"))
    assert payload["seed"] == 7


def test_every_expected_value_has_citation():
    for path in runner.bundled_case_paths():
        data = json.loads(Path(path).read_text())
        if data.get("expected") is not None:
            assert data.get("citation"), path.name


def test_isolation(tmp_path):
    src = runner._fixture_root() / "cases"
    dst = tmp_path / "cases"
    shutil.copytree(src, dst)
    full = runner.run_suite()
    removed = sorted(dst.iterdir())[0]
    removed_label = json.loads(removed.read_text())["label"]
    removed.unlink()
    partial = runner.run_suite(cases_dir=dst)
    full_labels = {r.label for r in full.results}
    partial_labels = {r.label for r in partial.results}
    assert full_labels - partial_labels == {removed_label}
    by_label = {r.label: r.row() for r in full.results}
    for r in partial.results:
        assert r.row() == by_label[r.label]


def test_run_single_case(tmp_path):
    case = {
        "schema_version": 1,
        "kind": "formula",
        "label": "adhoc/k3",
        "inputs": {"name": "k3",
                   "params": {"a": "3/2", "d": "4", "mu": "1/2"}},
        "expected": "49/52",
        "citation": "threefold bound anchor",
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    result = runner.run_case(path)
    assert result.status == "pass"


def test_computed_only_row():
    case = {
        "schema_version": 1,
        "kind": "formula",
        "label": "adhoc/no-expectation",
        "inputs": {"name": "res_n", "params": {"n": 3, "a": "3/2", "d": "1"}},
        "expected": None,
        "citation": "",
    }
    result = runner.run_case(case)
    assert result.status == "computed-only"


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(runner.ParseError):
        runner.run_case(bad)
    with pytest.raises(runner.SchemaError):
        runner.run_case({"schema_version": 1, "kind": "nope",
                         "label": "x", "inputs": {}})
    with pytest.raises(runner.SchemaError):
        runner.run_case({"schema_version": 2, "kind": "formula",
                         "label": "x", "inputs": {}})
    with pytest.raises(runner.SchemaError):
        runner.run_case({"schema_version": 1, "kind": "formula",
                         "label": "x", "inputs": {"name": "k3", "params": {}},
                         "expected": "1"})


def test_fixture_missing():
    with pytest.raises(runner.FixtureMissing):
        runner.load_fixture("models", "no-such-model")
    result = runner.run_case({
        "schema_version": 1,
        "kind": "flag_surface",
        "label": "adhoc/missing",
        "inputs": {"flag_case": "no-such-case"},
        "expected": "1",
        "citation": "unused",
    })
    assert result.status == "fail"
    assert "FixtureMissing" in result.detail


def test_text_report_shape():
    text = runner.emit_report(runner.run_suite(), "text")
    assert text.startswith("kstab regression suite")
    assert "discrepancy-noted" in text
    empty = runner.emit_report(runner.StabilityReport(seed=1, results=[]))
    assert "0 cases" in empty


class TestCli:
    def test_suite_exit_code(self, capsys):
        assert cli.main(["suite", "--format", "json", "--jobs", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["fail"] == 0

    def test_suite_matches_golden(self, capsys):
        # The suite JSON stays byte-identical apart from its seed field.
        golden = Path(__file__).resolve().parents[1] / "perfbench" / \
            "golden_suite.json"

        def drop_seed(text):
            text, n = re.subn(r'\n  "seed": \d+,\n', "\n", text)
            assert n == 1
            return text

        assert cli.main(["suite", "--format", "json"]) == 0
        assert drop_seed(capsys.readouterr().out) == \
            drop_seed(golden.read_text())

    def test_formulas_eval(self, capsys):
        assert cli.main(["formulas", "eval", "k3", "--params",
                         '{"a": "3/2", "d": "4", "mu": "1/2"}']) == 0
        assert json.loads(capsys.readouterr().out) == "49/52"

    def test_git_weight(self, capsys):
        assert cli.main(["git", "weight", "--support", "02,12,21,22",
                         "--lambda", "1,2"]) == 0
        assert capsys.readouterr().out.strip() == "-2"

    def test_git_destabilize(self, capsys):
        assert cli.main(["git", "destabilize", "--support",
                         "02,12,21,22"]) == 0
        out = capsys.readouterr().out
        assert "(1, 2)" in out and "-2" in out

    def test_inv_dims(self, capsys):
        assert cli.main(["inv", "dims", "--upto", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True

    def test_inv_check_invariance(self, capsys):
        assert cli.main(["inv", "check-invariance", "--trials", "5",
                         "--seed", "11"]) == 0
        assert json.loads(capsys.readouterr().out)["all_invariant"] is True

    def test_run_case_file(self, tmp_path, capsys):
        case = {
            "schema_version": 1,
            "kind": "barycenter",
            "label": "adhoc/cube",
            "inputs": {"vertices": [[x, y, z] for x in (0, 1)
                                    for y in (0, 1) for z in (0, 1)]},
            "expected": ["1/2", "1/2", "1/2"],
            "citation": "unit cube",
        }
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(case))
        assert cli.main(["run", str(path)]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["run", str(bad)]) == 2


def test_discrepancy_rows_carry_both_values():
    report = runner.run_suite()
    noted = [r for r in report.results if r.status == "discrepancy-noted"]
    assert len(noted) == 5
    for r in noted:
        assert r.printed is not None
        assert r.expected is not None
        assert r.citation


def test_all_beta_rows_positive():
    from fractions import Fraction
    report = runner.run_suite()
    betas = [r for r in report.results if r.kind == "beta"]
    assert betas
    for r in betas:
        assert Fraction(r.computed) > 0
