import json
import re
import shutil
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kstab import _linalg, cli, functionals, invariants, runner, toric, zariski
from kstab.exactcore import DiscontinuousVolume


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
    two = runner.emit_report(runner.run_suite(), "json")
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


@pytest.mark.parametrize("coeffs", [
    {"00": 0.0}, {"10": False}, {"00": "x"}, {"33": "1"},
], ids=["float", "bool", "letter", "index-33"])
def test_fixed_point_coefficients_follow_the_peano_rules(coeffs):
    result = runner.run_case({
        "schema_version": 1,
        "kind": "git",
        "label": "adhoc/fixed-point",
        "inputs": {"op": "fixed_point", "coeffs": coeffs},
        "expected": True,
        "citation": "unused",
    })
    assert result.status == "fail"
    assert result.detail.startswith("InvariantError: ")


def test_support_that_is_not_a_list_fails_its_row_typed():
    result = runner.run_case({
        "schema_version": 1,
        "kind": "git",
        "label": "adhoc/support-number",
        "inputs": {"op": "weight", "support": 5, "subgroup": [1, 2]},
    })
    assert result.status == "fail"
    assert result.detail.startswith("GitError: ")


@pytest.mark.parametrize("coeffs, message", [
    ("12", "inputs.pieces[0].coeffs must be an array of rationals, "
           "got '12'"),
    ("5", "inputs.pieces[0].coeffs must be an array of rationals, got '5'"),
    (["1", "x"], "inputs.pieces[0].coeffs[1]: cannot interpret 'x'"),
    (["1/0"], "inputs.pieces[0].coeffs[0]: cannot interpret '1/0'"),
], ids=["string", "number-string", "letter-entry", "zero-denominator"])
def test_coefficient_errors_name_their_path(coeffs, message):
    with pytest.raises(runner.SchemaError) as exc:
        runner.run_case({
            "schema_version": 1,
            "kind": "volume",
            "label": "adhoc/coeffs",
            "inputs": {"pieces": [{"interval": ["0", "1"], "coeffs": coeffs}],
                       "ample_cube": "1", "quantity": "integral"},
        })
    assert str(exc.value).startswith(f"adhoc/coeffs: {message}")


@pytest.mark.parametrize("family, message", [
    ({"C1": "5"}, "chambers[0].family.C1 must be an array of rationals"),
    ({"C1": ["0", "1"], "C2": ["1", True]},
     "chambers[0].family.C2[1]: cannot interpret True"),
], ids=["string", "bool-entry"])
def test_fixture_family_errors_name_their_path(family, message):
    fields = runner._Fields({"family": family}, "flags/x.chambers[0]",
                            runner.ParseError)
    with pytest.raises(runner.ParseError) as exc:
        fields.family("family")
    assert str(exc.value).startswith(f"flags/x.{message}")


@pytest.mark.parametrize("inputs", [
    {"flag_case": "../models/F0tilde-A2"},
    {"volume": "../flags/a2-flag-C1"},
    {"flag_case": ".hidden"},
    {"flag_case": "..\\models\\F0tilde-A2"},
], ids=["flag-up", "volume-up", "dot", "backslash"])
def test_fixture_name_that_escapes_its_directory(inputs):
    kind = "volume" if "volume" in inputs else "flag_surface"
    result = runner.run_case({
        "schema_version": 1,
        "kind": kind,
        "label": "adhoc/escape",
        "inputs": inputs,
    })
    assert result.status == "fail"
    assert result.detail.startswith("FixtureMissing: ")


def test_fixture_without_a_field_fails_its_row_typed(tmp_path, monkeypatch):
    # A broken fixture fails only its own row, with a ParseError that
    # names the fixture and the field.
    flags = tmp_path / "flags"
    flags.mkdir()
    bundled = runner._fixture_root() / "flags" / "base-tangential.json"
    fixture = json.loads(bundled.read_text())
    del fixture["label"]
    (flags / "no-label.json").write_text(json.dumps(fixture))
    monkeypatch.setattr(runner, "_fixture_root", lambda: tmp_path)
    result = runner.run_case({
        "schema_version": 1,
        "kind": "flag_surface",
        "label": "adhoc/no-label",
        "inputs": {"flag_case": "no-label"},
    })
    assert result.status == "fail"
    assert result.detail.startswith("ParseError: ")
    assert "flags/no-label" in result.detail and "'label'" in result.detail


@pytest.mark.parametrize("kind, inputs, message", [
    ("toric", {"model": "Y0-A1", "table": "triple", "generators": "F0F5"},
     "inputs.generators must be an array of strings, got 'F0F5'"),
    ("toric", {"model": "Y0-A1", "table": "triple", "generators": [1, 2]},
     "inputs.generators must be an array of strings, got [1, 2]"),
    ("toric", {"model": ["Y0-A1"], "table": "triple"},
     "inputs.model must be a string, got ['Y0-A1']"),
    ("flag_point", {"flag_case": "a1-flag-e", "point": ["O"]},
     "inputs.point must be a string, got ['O']"),
], ids=["generators-string", "generators-ints", "model-list", "point-list"])
def test_toric_and_point_inputs_are_read_by_shape(kind, inputs, message):
    # Not iterated character by character, and not passed on to the
    # engine: each raises a SchemaError naming its path.
    with pytest.raises(runner.SchemaError, match=re.escape(message)):
        runner.compute(kind, inputs)


@pytest.mark.parametrize("kind, inputs", [
    ("flag_surface", {"flag_case": ["a1-flag-e"]}),
    ("flag_point", {"flag_case": ["a1-flag-e"], "point": "O"}),
], ids=["surface", "point"])
def test_flag_case_name_is_read_as_a_string(kind, inputs):
    # A list is not looked up in the flag cache (an unhashable TypeError).
    message = "inputs.flag_case must be a string, got ['a1-flag-e']"
    with pytest.raises(runner.SchemaError, match=re.escape(message)):
        runner.compute(kind, inputs)


def test_toric_generators_default_to_the_effective_generators():
    inputs = {"model": "Y0-A1", "table": "triple"}
    listed = dict(inputs, generators=list(
        runner.model("Y0-A1").effective_generators))
    assert runner.compute("toric", inputs) == runner.compute("toric", listed)
    assert runner.compute("toric", dict(inputs, generators=[])) == \
        runner.compute("toric", inputs)


@pytest.mark.parametrize("fixture, edit, message", [
    ("volumes/a1-volume", lambda fx: fx.update(models="Y0-A1"),
     "volumes/broken.models must be an array of strings, got 'Y0-A1'"),
    ("volumes/a1-volume", lambda fx: fx["chambers"][0].update(model=["Y0-A1"]),
     "volumes/broken.chambers[0].model must be a string, got ['Y0-A1']"),
    ("flags/a2-flag-C1", lambda fx: fx.update(flag=["C1"]),
     "flags/broken.flag must be a string, got ['C1']"),
    ("flags/a2-flag-C1", lambda fx: fx["points"][0].update(name=7),
     "flags/broken.points[0].name must be a string, got 7"),
    (None, lambda inputs: inputs.update(vertices=5),
     "inputs.vertices must be an array of points, got 5"),
], ids=["volume-models-string", "chamber-model-list", "flag-list",
        "point-name-int", "vertices-int"])
def test_names_and_arrays_are_read_by_shape(fixture, edit, message,
                                            tmp_path, monkeypatch):
    # A fixture field of the wrong shape fails its row with a ParseError;
    # a case input of the wrong shape is a SchemaError.  Both name the
    # field, and neither is iterated character by character.
    if fixture is None:
        inputs = {}
        edit(inputs)
        with pytest.raises(runner.SchemaError, match=re.escape(message)):
            runner.compute("barycenter", inputs)
        return
    kind, name = fixture.split("/")
    data = json.loads((runner._fixture_root() / f"{fixture}.json")
                      .read_text())
    edit(data)
    (tmp_path / kind).mkdir()
    (tmp_path / kind / "broken.json").write_text(json.dumps(data))
    (tmp_path / "models").symlink_to(runner._fixture_root() / "models")
    monkeypatch.setattr(runner, "_fixture_root", lambda: tmp_path)
    inputs = ({"volume": "broken", "quantity": "integral"}
              if kind == "volumes" else {"flag_case": "broken"})
    result = runner.run_case({
        "schema_version": 1,
        "kind": "volume" if kind == "volumes" else "flag_surface",
        "label": "adhoc/broken",
        "inputs": inputs,
    })
    assert result.status == "fail"
    assert result.detail == f"ParseError: {message}"


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_is_the_integer_one(version):
    with pytest.raises(runner.SchemaError, match="schema_version"):
        runner.run_case({"schema_version": version, "kind": "formula",
                         "label": "x", "inputs": {}})


def test_extra_class_over_an_unknown_curve():
    with pytest.raises(zariski.ZariskiError, match="'C9'"):
        runner.build_lattice({"from_model": "F0tilde-A2",
                              "curves": {"C1": "C1", "C3": "C3"},
                              "extra_classes": {"T": {"C1": "1", "C9": "1"}}})


@pytest.mark.parametrize("value", [True, 1.5, ["C1"], None])
def test_lattice_curve_value_is_a_divisor_name(value):
    # A bool is not read as F1, nor another value passed on untyped.
    lattice = dict(runner.load_fixture("flags", "a2-flag-C1")["lattice"])
    lattice["curves"] = {**lattice["curves"], "C3": value}
    with pytest.raises(toric.ToricError, match=re.escape(repr(value))):
        runner.build_lattice(lattice)


@pytest.mark.parametrize("lattice, path", [
    ({"curves": "AB", "gram": ["11", "11"]}, "lattice.curves"),
    ({"curves": ["A", "B"], "gram": ["11", "11"]}, "lattice.gram"),
    ({"curves": ["A", "B"], "gram": "11"}, "lattice.gram"),
])
def test_gram_form_lattice_is_read_by_type(lattice, path):
    # A string is not read character by character as curve names or rows.
    with pytest.raises(runner.ParseError, match=re.escape(path)):
        runner.build_lattice(lattice)


@pytest.mark.parametrize("extra", [False, True], ids=["curves", "pencil"])
def test_lattice_gram_is_the_intersection_product(extra):
    lattice = dict(runner.load_fixture("flags", "a2-flag-pencil")["lattice"])
    if not extra:
        del lattice["extra_classes"]
    lat = runner.build_lattice(lattice)
    m = runner.model("F0tilde-A2")
    classes = {n: {m.divisor_index(d): 1}
               for n, d in lattice["curves"].items()}
    for t, combo in lattice.get("extra_classes", {}).items():
        classes[t] = {m.divisor_index(lattice["curves"][n]): Fraction(c)
                      for n, c in combo.items()}
    assert lat.curves == tuple(classes)
    for a, row in zip(lat.curves, lat.gram):
        for b, entry in zip(lat.curves, row):
            assert entry == m.intersection_product(classes[a], classes[b])


def test_lattice_from_a_threefold_model_is_refused():
    with pytest.raises(toric.ToricError, match="Y0-A1 needs 3 divisors"):
        runner.build_lattice({"from_model": "Y0-A1",
                              "curves": {"F0": "F0", "F1": "F1"}})


def test_lattice_with_two_extra_classes():
    curves = {"C1": "C1", "C3": "C3", "C4": "C4", "C5": "C5"}
    extra = {"T": {"C1": "1", "C4": "1", "C5": "1"},
             "T2": {"C3": "2", "C5": "-1/2"}}
    base = runner.build_lattice({"from_model": "F0tilde-A2",
                                 "curves": curves})
    lat = runner.build_lattice({"from_model": "F0tilde-A2",
                                "curves": curves, "extra_classes": extra})
    assert lat.curves == ("C1", "C3", "C4", "C5", "T", "T2")
    classes = {c: {c: 1} for c in curves}
    classes.update({t: {n: Fraction(c) for n, c in combo.items()}
                    for t, combo in extra.items()})
    for a, row in zip(lat.curves, lat.gram):
        for b, entry in zip(lat.curves, row):
            assert entry == base.dot(classes[a], classes[b]), (a, b)


def _shift_first_coefficient(piece):
    piece["coeffs"][0] = str(Fraction(piece["coeffs"][0]) + 1)


# Inline pieces that are no volume: the edit of a bundled case's inputs,
# the error and words of its message.
_NOT_VOLUMES = {
    "empty": (lambda inputs: inputs.update(pieces=[]),
              functionals.NotAVolume, "at least one piece"),
    "ample-cube": (lambda inputs: inputs.update(
        ample_cube=str(Fraction(inputs["ample_cube"]) + 1)),
        functionals.NotAVolume, "is not the ample cube"),
    "gap": (lambda inputs: inputs["pieces"][1].update(
        interval=["5/4", inputs["pieces"][1]["interval"][1]]),
        DiscontinuousVolume, "leave a gap"),
    "jump": (lambda inputs: _shift_first_coefficient(inputs["pieces"][1]),
             DiscontinuousVolume, "discontinuity at u = 1: "),
}


@pytest.mark.parametrize("name", ["volume--mm39-sym-s-value",
                                  "beta--mm42-exceptional"])
@pytest.mark.parametrize("broken", sorted(_NOT_VOLUMES))
def test_inline_pieces_must_be_a_volume(name, broken, tmp_path, capsys):
    # Inline pieces meet the rules of a verified volume: one interval, no
    # jump, the ample cube at u = 0 and 0 at the end.  A table that breaks
    # one fails its row with a typed error naming the condition.
    case = json.loads((runner._fixture_root() / "cases"
                       / f"{name}.json").read_text())
    edit, error, words = _NOT_VOLUMES[broken]
    edit(case["inputs"])
    with pytest.raises(error, match=re.escape(words)):
        runner.compute(case["kind"], case["inputs"])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(case))
    assert cli.main(["run", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    (row,) = json.loads(out)["cases"]
    assert row["status"] == "fail"
    assert row["detail"].startswith(f"{error.__name__}: ")
    assert words in row["detail"]
    assert err == ""


@pytest.mark.parametrize("kind, inputs, words", [
    ("volume", {"pieces": [], "ample_cube": "1", "quantity": "bogus"},
     "unknown volume quantity 'bogus'"),
    ("flag_point", {"flag_case": "nope", "point": "x", "quantity": "bogus"},
     "unknown flag_point quantity 'bogus'"),
    ("toric", {"model": "nope", "table": "bogus"},
     "unknown toric table 'bogus'"),
    ("formula", {"name": "bogus"}, "unknown formula 'bogus'"),
    ("git", {"op": "bogus"}, "unknown git op 'bogus'"),
    ("invariant", {"check": "bogus"}, "unknown invariant check 'bogus'"),
])
def test_unknown_name_is_checked_before_any_work(kind, inputs, words,
                                                 tmp_path, capsys):
    # The inputs name no volume, flag case or model that could be built,
    # so only a name check made first gives a SchemaError: exit 2 from
    # `kstab run`, not a failed row.
    with pytest.raises(runner.SchemaError, match=re.escape(words)):
        runner.compute(kind, inputs)
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind,
                                "label": "adhoc/unknown", "inputs": inputs,
                                "expected": "1", "citation": "unused"}))
    assert cli.main(["run", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and words in err


def test_reversed_interval_fails_its_row(tmp_path, capsys):
    case = {
        "schema_version": 1,
        "kind": "volume",
        "label": "adhoc/reversed",
        "inputs": {"pieces": [{"interval": ["1", "0"], "coeffs": ["1"]}],
                   "ample_cube": "1"},
        "expected": "1",
        "citation": "unused",
    }
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(case))
    assert cli.main(["run", str(path), "--format", "json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["cases"]
    assert row["status"] == "fail"
    assert row["detail"].startswith("MalformedInput: ")


def test_wrong_value_fails_its_row(tmp_path, capsys):
    # A value other than the expected one is a fail row, shown with both
    # values, and `kstab run` exits 1.
    case = {"schema_version": 1, "kind": "formula", "label": "adhoc/wrong",
            "inputs": {"name": "res_n", "params": {
                "n": 3, "a": "3/2", "d": "4", "mu": "1/2"}},
            "expected": "0", "citation": "unused"}
    assert runner.run_case(case).status == "fail"
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(case))
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert 'adhoc/wrong  FAIL  "9/52"  (expected "0")\n' in out
    assert err == ""


def test_text_report_shows_the_error_of_a_failed_row(tmp_path, capsys):
    case = {"schema_version": 1, "kind": "volume", "label": "adhoc/empty",
            "inputs": {"pieces": [], "ample_cube": "1"},
            "expected": "1", "citation": "unused"}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(case))
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "  !NotAVolume: a volume needs at least one piece\n" in out
    assert err == ""


def test_run_on_a_missing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: no such file: {path}\n"


def test_text_report_shape():
    text = runner.emit_report(runner.run_suite(), "text")
    assert text.startswith("kstab regression suite")
    assert "discrepancy-noted" in text
    empty = runner.emit_report(runner.StabilityReport(seed=1, results=[]))
    assert "0 cases" in empty


def test_series_match_checks_the_bound_before_the_series(monkeypatch):
    calls = []
    prefix = invariants.hilbert_prefix

    def recorded_prefix(n):
        calls.append(n)
        return prefix(n)

    monkeypatch.setattr(invariants, "hilbert_prefix", recorded_prefix)
    with pytest.raises(invariants.BoundExceeded):
        runner.compute("invariant", {"check": "series_match", "upto": 13})
    assert calls == []


def test_hilbert_check_stops_at_the_bound(monkeypatch):
    # The series alone used to run past the bound the dimensions stop at:
    # upto 13 gave 14 coefficients.
    calls = []
    prefix = invariants.hilbert_prefix

    def recorded_prefix(n):
        calls.append(n)
        return prefix(n)

    monkeypatch.setattr(invariants, "hilbert_prefix", recorded_prefix)
    bound = invariants.ENUMERATION_BOUND
    with pytest.raises(invariants.BoundExceeded, match=f"degree {bound}"):
        runner.compute("invariant", {"check": "hilbert", "upto": bound + 1})
    assert calls == []
    series = runner.compute("invariant", {"check": "hilbert", "upto": bound})
    assert len(series) == bound + 1 and calls == [bound]


class TestCli:
    def test_suite_exit_code(self, capsys):
        assert cli.main(["suite", "--format", "json"]) == 0
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

    @pytest.mark.parametrize("support, line", [
        ("11,12,21,22", "lambda = (0, 1), weight = 0 "
                        "(strictly semistable direction)"),
        ("00,01,02,10,11,12,20,21,22",
         "no certificate: the weight is positive on every subgroup"),
    ])
    def test_git_destabilize_other_outcomes(self, support, line, capsys):
        assert cli.main(["git", "destabilize", "--support", support]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_git_weight_error_names_subcommand_and_field(self, capsys):
        assert cli.main(["git", "weight", "--support", "02",
                         "--lambda", "x,1"]) == 2
        err = capsys.readouterr().err
        assert "git weight" in err and "subgroup.r0" in err

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

    @pytest.mark.parametrize("argv", [
        ["git", "weight", "--support", "33", "--lambda", "1,0"],
        ["git", "weight", "--support", "0", "--lambda", "2,1"],
        ["formulas", "eval", "k3", "--params", "{}"],
        ["formulas", "eval", "k3", "--params", "[1]"],
        ["formulas", "eval", "vol_Da", "--params", '{"n":1,"a":1,"d":1}'],
        ["inv", "dims", "--upto", "13"],
        ["run", "TMP"],
        ["run", "TMP/threshold.json"],
        ["formulas", "eval", "k3", "--params", '{"a":"x","d":1,"mu":1}'],
        ["git", "weight", "--support", "02", "--lambda", "x,1"],
        ["git", "weight", "--support", "02", "--lambda", "1"],
        ["inv", "peano", "--coeffs", '{"0":1}'],
        ["inv", "peano", "--coeffs", '{"ab":1}'],
        ["inv", "peano", "--coeffs", '{"00":"x"}'],
        ["inv", "peano", "--coeffs", "[1]"],
        ["formulas", "eval", "lambda_n", "--params", '{"n":4.9,"a":1,"d":2}'],
        ["formulas", "eval", "vol_Da", "--params", '{"n":"x","a":1,"d":1}'],
        ["formulas", "eval", "vol_Da", "--params", '{"n":"9/2","a":1,"d":1}'],
        ["formulas", "eval", "double_cover_check", "--params",
         '{"n":4,"r":"x"}'],
        ["formulas", "eval", "euler_char", "--params",
         '{"minus_k3":64,"b2":"q","b3":0}'],
        ["formulas", "eval", "euler_char", "--params",
         '{"minus_k3":64,"b2":true,"b3":0}'],
        ["run", "TMP/upto.json"],
        ["formulas", "eval", "k3", "--params", '{"a":true,"d":1,"mu":1}'],
        ["formulas", "eval", "delta_bound", "--params", '{"entries":[[1]]}'],
        ["formulas", "eval", "delta_bound", "--params", '{"entries":[1]}'],
        ["formulas", "eval", "delta_bound", "--params", '{"entries":5}'],
        ["inv", "check-invariance", "--trials", "0"],
        ["inv", "check-invariance", "--trials", "-2"],
        ["run", "TMP/subgroup.json"],
        ["git", "weight", "--support", "1/2", "--lambda", "1,2"],
        ["run", "TMP/one.json"],
        ["run", "TMP/null.json"],
        ["run", "TMP/kind-list.json"],
        ["run", "TMP/label-list.json"],
        ["run", "TMP/inputs-number.json"],
        ["run", "TMP/missing-input.json"],
        ["run", "TMP/interval-string.json"],
        ["run", "TMP/interval-three.json"],
        ["run", "TMP/piece-no-coeffs.json"],
        ["run", "TMP/pieces-object.json"],
    ], ids=["support-33", "support-0", "k3-no-params", "k3-params-list",
            "vol-Da-n1", "inv-dims-13", "run-directory",
            "threshold-inline-pieces", "k3-bad-rational", "lambda-not-int",
            "lambda-one-int", "coeffs-short-key", "coeffs-letter-key",
            "coeffs-bad-value", "coeffs-list", "n-float", "n-letter",
            "n-fraction", "r-letter", "b2-letter", "b2-bool",
            "upto-float-string", "k3-bool", "delta-entry-short",
            "delta-entry-scalar", "delta-entries-scalar", "inv-trials-0",
            "inv-trials-negative", "git-subgroup-one-entry",
            "support-slash", "case-number", "case-null", "case-kind-list",
            "case-label-list", "inputs-not-object", "missing-input",
            "interval-string", "interval-three", "piece-no-coeffs",
            "pieces-object"])
    def test_library_errors_exit_2(self, argv, tmp_path, capsys):
        # A threshold needs a volume fixture; inline pieces are a schema
        # error, not a failed row.
        case = {
            "schema_version": 1,
            "kind": "volume",
            "label": "adhoc/threshold",
            "inputs": {"pieces": [{"interval": ["0", "1"], "coeffs": ["1"]}],
                       "ample_cube": "1", "quantity": "threshold"},
        }
        (tmp_path / "threshold.json").write_text(json.dumps(case))
        upto = {"schema_version": 1, "kind": "invariant",
                "label": "adhoc/upto",
                "inputs": {"check": "dims", "upto": "2.5"}}
        (tmp_path / "upto.json").write_text(json.dumps(upto))
        subgroup = {"schema_version": 1, "kind": "git",
                    "label": "adhoc/subgroup",
                    "inputs": {"op": "weight", "support": ["02", "12"],
                               "subgroup": [1]}}
        (tmp_path / "subgroup.json").write_text(json.dumps(subgroup))
        (tmp_path / "one.json").write_text("1")
        (tmp_path / "null.json").write_text("null")
        (tmp_path / "kind-list.json").write_text(json.dumps(
            {**subgroup, "kind": []}))
        (tmp_path / "label-list.json").write_text(json.dumps(
            {**subgroup, "label": ["x"]}))
        (tmp_path / "inputs-number.json").write_text(json.dumps(
            {**subgroup, "inputs": 5}))
        (tmp_path / "missing-input.json").write_text(json.dumps(
            {**subgroup, "kind": "flag_surface", "inputs": {}}))
        # Nested inputs of the wrong shape are schema errors too, never
        # read character by character or left to a bare KeyError.
        for name, pieces in (
                ("interval-string", [{"interval": "01", "coeffs": ["1"]}]),
                ("interval-three",
                 [{"interval": ["0", "1", "7"], "coeffs": ["1"]}]),
                ("piece-no-coeffs", [{"interval": ["0", "1"]}]),
                ("pieces-object", {"a": 1})):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {**case, "inputs": {"pieces": pieces, "ample_cube": "1",
                                    "quantity": "integral"}}))
        argv = [a.replace("TMP", str(tmp_path)) for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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


def test_flag_work_does_not_outlive_cleared_caches(monkeypatch):
    # A benchmark pass clears the model and flag caches; a cache that
    # survived the clearing would make the second run cheaper than the
    # first.
    counts = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((_linalg, "solve"), (_linalg, "inverse"),
                         (zariski, "_scan")):
        counted(module, name)
    paths = [p for p in runner.bundled_case_paths()
             if p.name.startswith("flag--")]
    runs = []
    for _ in range(2):
        counts.clear()
        for path in paths:
            runner._MODEL_CACHE.clear()
            runner._FLAG_CACHE.clear()
            assert runner.run_case(path).status in ("pass",
                                                    "discrepancy-noted")
        runs.append(dict(counts))
    assert runs[0] == runs[1]
    # The flag path may make no general solve; it must make the others.
    assert all(runs[0].get(name) for name in ("inverse", "_scan"))


def test_printed_comes_from_the_case_file():
    # A row's printed value is its case file's own field, citations
    # stripped; no fixture supplies it.
    for path in runner.bundled_case_paths():
        case = json.loads(path.read_text())
        row = runner.run_case(path).row()
        assert row["printed"] == runner._strip_citations(
            case.get("printed")), path.name


def test_failed_row_strips_citations():
    # A row that fails with an exception has the same shape as a computed
    # row: the citation keys of expected and printed are stripped.
    path = runner._fixture_root() / "cases" / "volume--a2-pieces.json"
    case = json.loads(path.read_text())
    assert "citation" in json.dumps(case["printed"])
    case["inputs"]["volume"] = "no-such-volume"
    row = runner.run_case(case).row()
    assert row["status"] == "fail"
    assert row["expected"] == runner._strip_citations(case["expected"])
    assert row["printed"] == runner._strip_citations(case["printed"])
    assert "citation" not in json.dumps(row["printed"])
