"""Declarative case runner: loads bundled fixtures, replays every
computation, and reports exact pass/fail rows.

A case file holds one computation with an optional expected value and a
citation for where that value comes from.  Comparison is exact rational
(or structural) equality.  The special status ``discrepancy-noted`` marks
rows whose recomputed ground truth disagrees with a recorded printed
value: the suite stays green on those rows and always lists both values.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import (KstabError, formulas, functionals, githm, invariants, toric,
               zariski)
from .exactcore import (Interval, PiecewisePolynomial, Poly,
                        piecewise_integral, rat, rat_str)

SCHEMA_VERSION = 1
DEFAULT_SEED = 20230413


class RunnerError(KstabError):
    pass


class ParseError(RunnerError):
    pass


class SchemaError(RunnerError):
    pass


class FixtureMissing(RunnerError):
    pass


def _int(value, what: str, error: type[KstabError] = SchemaError) -> int:
    """An integer input: an ``int`` other than a bool, or a string of one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def _fixture_root():
    return resources.files("kstab") / "fixtures"


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text() if not hasattr(path, "read_text") \
            else path.read_text()
    except FileNotFoundError:
        raise FixtureMissing(f"no such file: {path}")
    except OSError as exc:
        raise RunnerError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_fixture(kind: str, name: str) -> dict:
    entry = _fixture_root() / kind / f"{name}.json"
    if not entry.is_file():
        raise FixtureMissing(f"fixture {kind}/{name}.json is not bundled")
    return _load_json(entry)


_MODEL_CACHE: dict[str, toric.ToricModel] = {}


def model(name: str) -> toric.ToricModel:
    if name not in _MODEL_CACHE:
        _MODEL_CACHE[name] = toric.parse_model(load_fixture("models", name))
    return _MODEL_CACHE[name]


def _poly(coeffs) -> Poly:
    return Poly.from_coeffs([rat(c) for c in coeffs], "u")


def _family(data: dict) -> dict[str, Poly]:
    return {k: _poly(v) for k, v in data.items()}


def _interval(pair) -> Interval:
    return Interval(rat(pair[0]), rat(pair[1]))


def _pieces(data) -> PiecewisePolynomial:
    return PiecewisePolynomial(
        [(_interval(p["interval"]), _poly(p["coeffs"])) for p in data])


def build_lattice(data: dict) -> zariski.SurfaceLattice:
    """A surface lattice either given by an explicit Gram matrix or derived
    from a bundled toric surface model, optionally extended by classes
    expressed in the named curves."""
    if "from_model" not in data:
        return zariski.SurfaceLattice(
            tuple(data["curves"]),
            [[rat(x) for x in row] for row in data["gram"]])
    m = model(data["from_model"])
    divs = {n: {d: Fraction(1)} for n, d in data["curves"].items()}
    base = zariski.SurfaceLattice(tuple(divs), [
        [m.intersection_product(a, b) for b in divs.values()]
        for a in divs.values()])
    extra = {k: {n: rat(c) for n, c in v.items()}
             for k, v in data.get("extra_classes", {}).items()}
    if not extra:
        return base
    # Each extra class pairs with the curves by its pairing vector, and
    # with every extra class by contracting that vector with its own
    # combination of curves.
    vecs = [base.pairings(combo) for combo in extra.values()]
    rows = [list(row) + [vec[a] for vec in vecs]
            for a, row in zip(base.curves, base.gram)]
    for combo, vec in zip(extra.values(), vecs):
        rows.append([vec[a] for a in base.curves] + [
            sum((c * other[n] for n, c in combo.items()), Fraction(0))
            for other in vecs])
    return zariski.SurfaceLattice(base.curves + tuple(extra), rows)


_FLAG_CACHE: dict[str, functionals.FlagCase] = {}


def flag_case(name: str) -> functionals.FlagCase:
    if name in _FLAG_CACHE:
        return _FLAG_CACHE[name]
    data = load_fixture("flags", name)
    lattice = build_lattice(data["lattice"])
    chambers = [
        functionals.FlagChamber(
            _interval(ch["interval"]),
            _family(ch["family"]),
            _family(ch.get("outer_negative", {})))
        for ch in data["chambers"]
    ]
    points = tuple(
        functionals.FlagPoint(
            p["name"],
            {k: rat(v) for k, v in p.get("mults", {}).items()},
            rat(p.get("log_discrepancy", 1)))
        for p in data.get("points", ()))
    case = functionals.FlagCase(
        label=data["label"],
        lattice=lattice,
        flag=data["flag"],
        dim=_int(data["dimension"], "dimension"),
        ample_power=rat(data["ample_cube"]),
        flag_log_discrepancy=rat(data["flag_log_discrepancy"]),
        chambers=chambers,
        sigma={k: rat(v) for k, v in data.get("sigma", {}).items()},
        points=points,
    )
    _FLAG_CACHE[name] = case
    return case


@dataclass
class VolumeFixture:
    label: str
    models: dict[str, toric.ToricModel]
    family: dict[str, Poly]
    chambers: list[zariski.ThreefoldChamber]
    ample_cube: Fraction
    flag_log_discrepancy: Fraction
    printed_pieces: list | None

    def volume(self) -> PiecewisePolynomial:
        return zariski.threefold_chamber_volume(
            self.models, self.chambers, self.family)


def volume_fixture(name: str) -> VolumeFixture:
    data = load_fixture("volumes", name)
    models = {m: model(m) for m in data["models"]}
    chambers = [
        zariski.ThreefoldChamber(
            _interval(ch["interval"]), ch["model"],
            _family(ch["positive"]), _family(ch.get("negative", {})))
        for ch in data["chambers"]
    ]
    return VolumeFixture(
        label=data["label"],
        models=models,
        family=_family(data["family"]),
        chambers=chambers,
        ample_cube=rat(data["ample_cube"]),
        flag_log_discrepancy=rat(data["flag_log_discrepancy"]),
        printed_pieces=data.get("printed_pieces"),
    )


# -- serialization helpers ---------------------------------------------------


def encode(value):
    """Canonical JSON-able encoding with rationals as 'p/q' strings."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return rat_str(Fraction(value))
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, PiecewisePolynomial):
        return [
            {"interval": [rat_str(p.interval.lo), rat_str(p.interval.hi)],
             "coeffs": [rat_str(c) for c in p.poly.coeffs("u")]}
            for p in value
        ]
    return value


def _canon(value) -> str:
    return json.dumps(encode(value), sort_keys=True)


# -- case evaluation --------------------------------------------------------


@dataclass
class CaseResult:
    label: str
    kind: str
    status: str
    computed: object = None
    expected: object = None
    printed: object = None
    citation: str = ""
    detail: str = ""

    def row(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "status": self.status,
            "computed": encode(self.computed),
            "expected": encode(self.expected),
            "printed": encode(self.printed),
            "citation": self.citation,
            "detail": self.detail,
        }


_REQUIRED_FIELDS = ("schema_version", "kind", "label", "inputs")


def _validate(case: dict, origin: str):
    for f in _REQUIRED_FIELDS:
        if f not in case:
            raise SchemaError(f"{origin}: missing field {f!r}")
    if case["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"{origin}: unsupported schema_version {case['schema_version']!r}")
    if case["kind"] not in _HANDLERS:
        raise SchemaError(f"{origin}: unknown kind {case['kind']!r}")
    if "expected" in case and case["expected"] is not None:
        if not case.get("citation"):
            raise SchemaError(
                f"{origin}: expected value without a citation string")


def _compute_volume(inputs: dict):
    quantity = inputs.get("quantity", "s_value")
    if "volume" in inputs:
        fx = volume_fixture(inputs["volume"])
        vol = fx.volume()
        a, alog = fx.ample_cube, fx.flag_log_discrepancy
        printed = fx.printed_pieces
    elif quantity == "threshold":
        raise SchemaError("a volume threshold needs a volume fixture, "
                          "not inline pieces")
    else:
        vol = _pieces(inputs["pieces"])
        a = rat(inputs["ample_cube"])
        alog = rat(inputs.get("log_discrepancy", 1))
        printed = None
    if quantity == "pieces":
        return vol, printed
    if quantity == "s_value":
        return functionals.s_from_volume(vol, a), None
    if quantity == "integral":
        return piecewise_integral(vol), None
    if quantity == "ratio":
        return alog / functionals.s_from_volume(vol, a), None
    if quantity == "threshold":
        m = fx.models[fx.chambers[0].model]
        return zariski.pseudoeffective_threshold(m, fx.family), None
    raise SchemaError(f"unknown volume quantity {quantity!r}")


def _compute_beta(inputs: dict):
    vol = _pieces(inputs["pieces"])
    return functionals.beta_divisor(
        rat(inputs["log_discrepancy"]), vol, rat(inputs["ample_cube"]))


def _compute_flag_point(inputs: dict):
    case = flag_case(inputs["flag_case"])
    point = inputs["point"]
    quantity = inputs.get("quantity", "s_point")
    if quantity == "s_point":
        return functionals.s_flag_point(case, point)
    if quantity == "f_q":
        return functionals.f_q_term(case, point)
    raise SchemaError(f"unknown flag_point quantity {quantity!r}")


class _Params(dict):
    """Formula parameters; a missing one is a FormulaError."""

    def __init__(self, name: str, params: dict):
        if not isinstance(params, dict):
            raise formulas.FormulaError(
                f"formula {name!r} takes an object of parameters")
        super().__init__(params)
        self.name = name

    def __missing__(self, key):
        raise formulas.FormulaError(
            f"formula {self.name!r} needs the parameter {key!r}")

    def integer(self, key: str) -> int:
        return _int(self[key], f"parameter {key!r} of {self.name!r}",
                    formulas.FormulaError)


# Formulas of one FamilyParams argument, evaluated by their own names.
_FAMILY_FORMULAS = ("vol_Da", "s_sminus", "s_vertical", "res_n", "lambda_n",
                    "k_general")


def _compute_formula(inputs: dict):
    name = inputs["name"]
    params = _Params(name, inputs.get("params", {}))

    def fam():
        return formulas.FamilyParams(
            n=params.integer("n"), a=rat(params["a"]), d=rat(params["d"]),
            mu=rat(params.get("mu", 1)),
            delta_v=rat(params.get("delta_v", 1)))

    if name in _FAMILY_FORMULAS:
        return getattr(formulas, name)(fam())
    if name == "k3":
        return formulas.k3(params["a"], params["d"], params["mu"])
    if name == "gamma":
        v = formulas.gamma_criterion(fam())
        return {"gamma": v.gamma, "entries": list(v.entries),
                "certified": v.polystable_certified}
    if name == "double_cover_check":
        try:
            v = formulas.double_cover_check(
                params.integer("n"), params.integer("r"))
        except formulas.HypothesisViolated:
            return "HypothesisViolated"
        return {"gamma": v.gamma, "certified": v.polystable_certified}
    if name == "fano_signature":
        v = formulas.fano_signature(params["a"], params["a1"], params["a2"])
        return {"is_fano": v.is_fano, "k_unstable": v.k_unstable}
    if name == "euler_char":
        return formulas.euler_char_tangent(
            params["minus_k3"], params.integer("b2"), params.integer("b3"))
    if name == "delta_bound":
        report = functionals.delta_bound_report(params["entries"])
        return {"bound": report.value, "exceeds_one": report.exceeds_one}
    raise SchemaError(f"unknown formula {name!r}")


def _compute_git(inputs: dict):
    op = inputs["op"]
    if op == "weight":
        lam = githm.OneParamSubgroup(
            *[_int(x, "subgroup entry") for x in inputs["subgroup"]])
        return githm.hm_weight(githm.support(inputs["support"]), lam)
    if op == "destabilize":
        cert = githm.find_destabilizer(
            githm.support(inputs["support"]),
            _int(inputs.get("bound", 5), "bound"))
        if cert is None:
            return "none"
        return {"subgroup": [cert.subgroup.r0, cert.subgroup.r1],
                "weight": cert.weight,
                "strictly_semistable": cert.strictly_semistable_direction}
    if op == "fixed_point":
        return githm.fixed_point_singularity(inputs["coeffs"])
    raise SchemaError(f"unknown git op {op!r}")


def _compute_invariant(inputs: dict, seed: int):
    check = inputs["check"]
    if check == "dims":
        return [invariants.invariant_dimension(k)
                for k in range(_int(inputs["upto"], "upto") + 1)]
    if check == "hilbert":
        return invariants.hilbert_prefix(_int(inputs["upto"], "upto"))
    if check == "series_match":
        upto = _int(inputs["upto"], "upto")
        series = invariants.hilbert_prefix(upto)
        return all(invariants.invariant_dimension(k) == series[k]
                   for k in range(upto + 1))
    if check == "peano":
        return list(invariants.peano_invariants(inputs["coeffs"]))
    if check == "invariance":
        trials = invariants.invariance_trials(
            _int(inputs["trials"], "trials"), seed)
        return all(trials)
    if check == "independence":
        return invariants.independence_rank(inputs["coeffs"])
    if check == "swap":
        c = invariants.coeffs(inputs["coeffs"])
        return invariants.peano_invariants(
            invariants.swap_transpose(c)) == invariants.peano_invariants(c)
    raise SchemaError(f"unknown invariant check {check!r}")


def _compute_toric(inputs: dict):
    m = model(inputs["model"])
    table = inputs["table"]
    if table in ("triple", "pair"):
        size, names = ((3, m.effective_generators) if table == "triple"
                       else (2, m.aliases))
        out = {}
        for combo in itertools.combinations_with_replacement(
                inputs.get("generators") or list(names), size):
            divs = [{n: Fraction(1)} for n in combo]
            out[".".join(combo)] = m.intersection_product(*divs)
        return out
    if table == "curves":
        divisors = inputs.get("against") or list(m.effective_generators)
        out = {}
        for cname in inputs.get("curve_names") or list(m.curve_specs):
            out[cname] = {
                d: m.pair_curve_divisor(cname, {d: Fraction(1)})
                for d in divisors
            }
        return out
    raise SchemaError(f"unknown toric table {table!r}")


# kind -> handler(inputs, seed) returning (computed, printed_override).
_HANDLERS = {
    "volume": lambda inputs, seed: _compute_volume(inputs),
    "beta": lambda inputs, seed: (_compute_beta(inputs), None),
    "flag_surface": lambda inputs, seed: (
        functionals.s_flag_surface(flag_case(inputs["flag_case"])), None),
    "flag_point": lambda inputs, seed: (_compute_flag_point(inputs), None),
    "formula": lambda inputs, seed: (_compute_formula(inputs), None),
    "git": lambda inputs, seed: (_compute_git(inputs), None),
    "invariant": lambda inputs, seed: (_compute_invariant(inputs, seed), None),
    "toric": lambda inputs, seed: (_compute_toric(inputs), None),
    "barycenter": lambda inputs, seed: (
        list(toric.polytope_barycenter(inputs["vertices"])), None),
}


def compute_case(case: dict, seed: int = DEFAULT_SEED):
    """Dispatch one validated case to its owning module.

    Returns (computed, printed_override); printed_override comes from
    fixture-level printed data (volume pieces), else the case's own field.
    """
    return _HANDLERS[case["kind"]](case["inputs"], seed)


def run_case(source, seed: int = DEFAULT_SEED) -> CaseResult:
    """Run one case file (path or already-parsed dict)."""
    if isinstance(source, dict):
        case = source
        origin = case.get("label", "<dict>")
    else:
        case = _load_json(source)
        origin = str(source)
    _validate(case, origin)
    label = case["label"]
    kind = case["kind"]
    citation = case.get("citation", "")
    expected = case.get("expected")
    printed = case.get("printed")
    try:
        computed, printed_override = compute_case(case, seed)
    except SchemaError:
        raise
    except Exception as exc:
        # A broken or missing fixture fails exactly this row; the rest of
        # the suite keeps running.
        return CaseResult(label, kind, "fail", None, expected, printed,
                          citation, detail=f"{type(exc).__name__}: {exc}")
    if printed_override is not None:
        printed = printed_override
    if expected is None:
        status = "computed-only"
    elif _canon(computed) == _canon(_strip_citations(expected)):
        if printed is not None and \
                _canon(_strip_citations(printed)) != _canon(_strip_citations(expected)):
            status = "discrepancy-noted"
        else:
            status = "pass"
    else:
        status = "fail"
    return CaseResult(label, kind, status, computed, _strip_citations(expected),
                      _strip_citations(printed), citation)


def _strip_citations(value):
    if isinstance(value, list):
        return [_strip_citations(v) for v in value]
    if isinstance(value, dict):
        return {k: _strip_citations(v) for k, v in value.items()
                if k != "citation"}
    return value


@dataclass
class StabilityReport:
    seed: int
    results: list[CaseResult] = field(default_factory=list)

    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "discrepancy-noted": 0,
                  "computed-only": 0}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        counts["total"] = len(self.results)
        return counts

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)


def bundled_case_paths(cases_dir=None) -> list:
    root = Path(cases_dir) if cases_dir else _fixture_root() / "cases"
    if not root.is_dir():
        raise FixtureMissing(f"case directory {root} is missing")
    return sorted(root.iterdir(), key=lambda p: p.name)


def run_suite(seed: int = DEFAULT_SEED, cases_dir=None) -> StabilityReport:
    """Run every bundled case in order; rows are sorted by label."""
    results = [run_case(p, seed) for p in bundled_case_paths(cases_dir)
               if p.name.endswith(".json")]
    results.sort(key=lambda r: r.label)
    return StabilityReport(seed=seed, results=results)


def emit_report(report: StabilityReport, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "seed": report.seed,
            "summary": report.summary(),
            "cases": [r.row() for r in report.results],
        }
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt != "text":
        raise RunnerError(f"unknown report format {fmt!r}")
    lines = []
    if not report.results:
        return "kstab regression suite\n0 cases\n"
    width = max(len(r.label) for r in report.results)
    lines.append("kstab regression suite")
    for r in report.results:
        comp = json.dumps(encode(r.computed))
        exp = "" if r.expected is None else json.dumps(encode(r.expected))
        mark = {"pass": "ok", "fail": "FAIL",
                "discrepancy-noted": "ok*", "computed-only": "--"}[r.status]
        line = f"{r.label:<{width}}  {mark:<4}  {comp}"
        if exp and r.status == "fail":
            line += f"  (expected {exp})"
        if r.status == "discrepancy-noted":
            line += f"  [printed: {json.dumps(encode(r.printed))}]"
        if r.detail:
            line += f"  !{r.detail}"
        lines.append(line)
    s = report.summary()
    lines.append(
        f"{s['total']} cases: {s['pass']} pass, {s['fail']} fail, "
        f"{s['discrepancy-noted']} discrepancy-noted, "
        f"{s['computed-only']} computed-only (seed {report.seed})")
    return "\n".join(lines) + "\n"
