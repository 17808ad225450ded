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
from fractions import Fraction
from pathlib import Path

from . import (KstabError, _Record, formulas, functionals, githm, invariants,
               toric, zariski)
from .exactcore import (Interval, NotARational, PiecewisePolynomial, Poly,
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


class _Fields(dict):
    """One JSON object of a case or a fixture, read through typed getters.

    A missing key or a nested field of the wrong shape raises ``error``
    naming its path, as in ``inputs.pieces[0]: missing 'coeffs'``: a
    SchemaError for case inputs, a FormulaError for formula parameters and
    a ParseError for fixture files.  So does a coefficient list that is
    not an array of rationals, naming the bad entry.  Any other wrong
    value in a well-shaped field is left to the library's own typed
    error: ``rat`` and ``Interval`` check values.
    """

    __slots__ = ("where", "error")

    def __init__(self, data, where: str, error: type[KstabError]):
        if not isinstance(data, dict):
            raise error(f"{where} must be a JSON object, got {data!r}")
        super().__init__(data)
        self.where, self.error = where, error

    def __missing__(self, key):
        raise self.error(f"{self.where}: missing {key!r}")

    def _shaped(self, key, default, kind: type, what: str, size=None,
                item=None):
        value = self[key] if default is None else self.get(key, default)
        if (isinstance(value, kind) and (size is None or len(value) == size)
                and (item is None or all(isinstance(x, item) for x in value))):
            return value
        raise self.error(f"{self.where}.{key} must be {what}, got {value!r}")

    def integer(self, key) -> int:
        """An ``int`` other than a bool, or a string holding one."""
        value = self._shaped(key, None, (int, str), "an integer")
        try:
            if not isinstance(value, bool):
                return int(value)
        except ValueError:
            pass
        raise self.error(f"{self.where}.{key} must be an integer, "
                         f"got {value!r}")

    def pair(self, key) -> list:
        return self._shaped(key, None, list, "an array of two entries", 2)

    def interval(self, key) -> Interval:
        return Interval(*self.pair(key))

    def fields(self, key, default=None, error=None) -> _Fields:
        """A nested object, read with this reader's error or ``error``."""
        return _Fields(self._shaped(key, default, dict, "a JSON object"),
                       f"{self.where}.{key}", error or self.error)

    def string(self, key) -> str:
        return self._shaped(key, None, str, "a string")

    def array(self, key, item: type, what: str, default=None) -> list:
        """A JSON array whose entries are all of type ``item``."""
        return self._shaped(key, default, list, what, item=item)

    def each(self, key, default=None) -> list[_Fields]:
        """A JSON array of objects."""
        return [_Fields(item, f"{self.where}.{key}[{i}]", self.error)
                for i, item in enumerate(
                    self._shaped(key, default, list, "an array"))]

    def rationals(self, key, default=None) -> dict[str, Fraction]:
        return {k: rat(v) for k, v in
                self._shaped(key, default, dict, "a JSON object").items()}

    def _coeffs(self, path: str, value) -> Poly:
        """The JSON array ``value`` of rationals as sum value[k] * u^k; a
        value that is no array, or an entry that is no rational, raises
        ``error`` naming ``path`` or the entry's path."""
        if not isinstance(value, list):
            raise self.error(
                f"{path} must be an array of rationals, got {value!r}")
        try:
            return Poly.from_coeffs(value)
        except NotARational:
            for k, c in enumerate(value):
                try:
                    rat(c)
                except NotARational as exc:
                    raise self.error(f"{path}[{k}]: {exc}") from None
            raise

    def family(self, key, default=None) -> dict[str, Poly]:
        return {k: self._coeffs(f"{self.where}.{key}.{k}", v) for k, v in
                self._shaped(key, default, dict, "a JSON object").items()}

    def pieces(self, key) -> PiecewisePolynomial:
        return PiecewisePolynomial(
            [(p.interval("interval"),
              p._coeffs(f"{p.where}.coeffs", p["coeffs"]))
             for p in self.each(key)])


_FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_root() -> Path:
    return _FIXTURES


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise FixtureMissing(f"no such file: {path}")
    except OSError as exc:
        raise RunnerError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_fixture(kind: str, name: str) -> _Fields:
    """The bundled fixture ``kind/name.json``, read with ParseError;
    ``name`` must be a bare file stem, not a path."""
    if (not isinstance(name, str) or "/" in name or "\\" in name
            or name.startswith(".")):
        raise FixtureMissing(f"fixture name {name!r} is not a bare name")
    entry = _fixture_root() / kind / f"{name}.json"
    if not entry.is_file():
        raise FixtureMissing(f"fixture {kind}/{name}.json is not bundled")
    return _Fields(_load_json(entry), f"{kind}/{name}", ParseError)


_MODEL_CACHE: dict[str, toric.ToricModel] = {}


def model(name: str) -> toric.ToricModel:
    if name not in _MODEL_CACHE:
        _MODEL_CACHE[name] = toric.parse_model(load_fixture("models", name))
    return _MODEL_CACHE[name]


def build_lattice(data: dict) -> zariski.SurfaceLattice:
    """A surface lattice either given by an explicit Gram matrix or derived
    from a bundled toric surface model, optionally extended by classes
    expressed in the named curves."""
    if not isinstance(data, _Fields):
        data = _Fields(data, "lattice", ParseError)
    if "from_model" not in data:
        return zariski.SurfaceLattice(
            tuple(data.array("curves", str, "an array of strings")),
            data.array("gram", list, "an array of arrays"))
    m = model(data["from_model"])
    names = {n: m.divisor_index(d) for n, d in data.fields("curves").items()}
    # Each extra class is the toric divisor of its combination of curves.
    divs = {n: {d: 1} for n, d in names.items()}
    extra = data.fields("extra_classes", {})
    for k in extra:
        div = divs[k] = {}
        for n, c in extra.rationals(k).items():
            if n not in names:
                raise zariski.ZariskiError(f"lattice has no curve named {n!r}")
            div[names[n]] = div.get(names[n], 0) + c
    return zariski.SurfaceLattice(tuple(divs), m.gram(list(divs.values())))


_FLAG_CACHE: dict[str, functionals.FlagCase] = {}


def flag_case(name: str) -> functionals.FlagCase:
    if name not in _FLAG_CACHE:
        fx = load_fixture("flags", name)
        _FLAG_CACHE[name] = functionals.FlagCase(
            label=fx["label"],
            lattice=build_lattice(fx.fields("lattice")),
            flag=fx.string("flag"),
            dim=fx.integer("dimension"),
            ample_power=rat(fx["ample_cube"]),
            flag_log_discrepancy=rat(fx["flag_log_discrepancy"]),
            chambers=[functionals.FlagChamber(
                ch.interval("interval"), ch.family("family"),
                ch.family("outer_negative", {}))
                for ch in fx.each("chambers")],
            sigma=fx.rationals("sigma", {}),
            points=tuple(functionals.FlagPoint(
                p.string("name"), p.rationals("mults", {}),
                rat(p.get("log_discrepancy", 1)))
                for p in fx.each("points", [])),
        )
    return _FLAG_CACHE[name]


class VolumeFixture(_Record):
    label: str
    models: dict[str, toric.ToricModel]
    family: dict[str, Poly]
    chambers: list[zariski.ThreefoldChamber]
    ample_cube: Fraction
    flag_log_discrepancy: Fraction

    def volume(self) -> PiecewisePolynomial:
        """P^3 on the verified chambers, from the ample cube at u = 0 to 0."""
        vol = zariski.threefold_chamber_volume(
            self.models, self.chambers, self.family)
        functionals.check_volume(vol, self.ample_cube)
        return vol


def volume_fixture(name: str) -> VolumeFixture:
    fx = load_fixture("volumes", name)
    return VolumeFixture(
        label=fx["label"],
        models={m: model(m) for m in
                fx.array("models", str, "an array of strings")},
        family=fx.family("family"),
        chambers=[zariski.ThreefoldChamber(
            ch.interval("interval"), ch.string("model"), ch.family("positive"),
            ch.family("negative", {})) for ch in fx.each("chambers")],
        ample_cube=rat(fx["ample_cube"]),
        flag_log_discrepancy=rat(fx["flag_log_discrepancy"]),
    )


# -- serialization helpers ---------------------------------------------------


def encode(value):
    """Canonical JSON-able encoding with rationals as 'p/q' strings."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, int):
        return rat_str(Fraction(value))
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, PiecewisePolynomial):
        return [
            {"interval": [rat_str(p.interval.lo), rat_str(p.interval.hi)],
             "coeffs": [rat_str(c) for c in p.poly.coeffs()]}
            for p in value
        ]
    return value


def _canon(value) -> str:
    return json.dumps(encode(value), sort_keys=True)


# -- case evaluation --------------------------------------------------------


class CaseResult(_Record):
    label: str
    kind: str
    status: str
    computed: object = None
    expected: object = None
    printed: object = None
    citation: str = ""
    detail: str = ""

    def row(self) -> dict:
        return {f: encode(getattr(self, f)) for f in self._fields}


def _validate(case: _Fields):
    """Check a case's header; its ``inputs`` are read by the handler."""
    origin = case.where
    version = case["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"{origin}: unsupported schema_version {version!r}")
    if not isinstance(case["kind"], str) or case["kind"] not in _HANDLERS:
        raise SchemaError(f"{origin}: unknown kind {case['kind']!r}")
    if not isinstance(case["label"], str):
        raise SchemaError(f"{origin}: label {case['label']!r} is not a string")
    if "expected" in case and case["expected"] is not None:
        if not case.get("citation"):
            raise SchemaError(
                f"{origin}: expected value without a citation string")


def _compute_volume(inputs: _Fields):
    # The name is checked before a fixture is loaded or a volume is
    # checked, so an unknown one is a SchemaError, never a failed row.
    quantity = inputs.get("quantity", "s_value")
    if quantity not in ("pieces", "s_value", "integral", "ratio",
                        "threshold"):
        raise SchemaError(f"unknown volume quantity {quantity!r}")
    if "volume" in inputs:
        fx = volume_fixture(inputs["volume"])
        vol = fx.volume()
        a, alog = fx.ample_cube, fx.flag_log_discrepancy
    elif quantity == "threshold":
        raise SchemaError("a volume threshold needs a volume fixture, "
                          "not inline pieces")
    else:
        vol, a = inputs.pieces("pieces"), rat(inputs["ample_cube"])
        alog = rat(inputs.get("log_discrepancy", 1))
        functionals.check_volume(vol, a)
    if quantity == "pieces":
        return vol
    if quantity == "s_value":
        return functionals.s_from_volume(vol, a)
    if quantity == "integral":
        return piecewise_integral(vol)
    if quantity == "ratio":
        return alog / functionals.s_from_volume(vol, a)
    m = fx.models[fx.chambers[0].model]
    return zariski.pseudoeffective_threshold(m, fx.family)


def _compute_beta(inputs: _Fields):
    alog, vol = rat(inputs["log_discrepancy"]), inputs.pieces("pieces")
    a = rat(inputs["ample_cube"])
    functionals.check_volume(vol, a)
    return functionals.beta_divisor(alog, vol, a)


def _compute_flag_point(inputs: _Fields):
    quantity = inputs.get("quantity", "s_point")
    if quantity not in ("s_point", "f_q"):
        raise SchemaError(f"unknown flag_point quantity {quantity!r}")
    case = flag_case(inputs.string("flag_case"))
    point = inputs.string("point")
    if quantity == "s_point":
        return functionals.s_flag_point(case, point)
    return functionals.f_q_term(case, point)


# Formulas of one FamilyParams argument, evaluated by their own names.
_FAMILY_FORMULAS = ("vol_Da", "s_sminus", "s_vertical", "res_n", "lambda_n",
                    "k_general")


def _compute_formula(inputs: _Fields):
    name = inputs["name"]
    params = inputs.fields("params", {}, formulas.FormulaError)

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


def _compute_git(inputs: _Fields):
    op = inputs["op"]
    if op == "weight":
        sub = _Fields(dict(zip(("r0", "r1"), inputs.pair("subgroup"))),
                      f"{inputs.where}.subgroup", SchemaError)
        lam = githm.OneParamSubgroup(sub.integer("r0"), sub.integer("r1"))
        return githm.hm_weight(githm.support(inputs["support"]), lam)
    if op == "destabilize":
        cert = githm.find_destabilizer(githm.support(inputs["support"]))
        if cert is None:
            return "none"
        return {"subgroup": [cert.subgroup.r0, cert.subgroup.r1],
                "weight": cert.weight,
                "strictly_semistable": cert.strictly_semistable_direction}
    if op == "fixed_point":
        return githm.fixed_point_singularity(inputs["coeffs"])
    raise SchemaError(f"unknown git op {op!r}")


def _compute_invariant(inputs: _Fields, seed: int):
    check = inputs["check"]
    if check in ("dims", "hilbert", "series_match"):
        # Every check of the series stops where the dimensions do, and
        # an upto above the bound is refused before anything is built.
        upto = inputs.integer("upto")
        if upto > invariants.ENUMERATION_BOUND:
            raise invariants.BoundExceeded(
                "weight counting is capped at degree "
                f"{invariants.ENUMERATION_BOUND}")
        if check == "hilbert":
            return invariants.hilbert_prefix(upto)
        dims = invariants.invariant_dimensions(upto)
        return dims if check == "dims" else \
            dims == invariants.hilbert_prefix(upto)
    if check == "peano":
        return list(invariants.peano_invariants(inputs["coeffs"]))
    if check == "invariance":
        trials = invariants.invariance_trials(
            inputs.integer("trials"), seed)
        return all(trials)
    if check == "independence":
        return invariants.independence_rank(inputs["coeffs"])
    if check == "swap":
        c = invariants.coeffs(inputs["coeffs"])
        return invariants.peano_invariants(
            invariants.swap_transpose(c)) == invariants.peano_invariants(c)
    raise SchemaError(f"unknown invariant check {check!r}")


def _compute_toric(inputs: _Fields):
    table = inputs["table"]
    if table not in ("triple", "pair", "curves"):
        raise SchemaError(f"unknown toric table {table!r}")
    m = model(inputs.string("model"))
    if table in ("triple", "pair"):
        size, names = ((3, m.effective_generators) if table == "triple"
                       else (2, m.aliases))
        out = {}
        for combo in itertools.combinations_with_replacement(
                inputs.array("generators", str, "an array of strings", [])
                or list(names), size):
            divs = [{n: 1} for n in combo]
            out[".".join(combo)] = m.intersection_product(*divs)
        return out
    return {c: {d: m.pair_curve_divisor(c, {d: 1})
                for d in m.effective_generators} for c in m.curve_specs}


# kind -> handler(inputs, seed) returning the computed value.
_HANDLERS = {
    "volume": lambda inputs, seed: _compute_volume(inputs),
    "beta": lambda inputs, seed: _compute_beta(inputs),
    "flag_surface": lambda inputs, seed: functionals.s_flag_surface(
        flag_case(inputs.string("flag_case"))),
    "flag_point": lambda inputs, seed: _compute_flag_point(inputs),
    "formula": lambda inputs, seed: _compute_formula(inputs),
    "git": lambda inputs, seed: _compute_git(inputs),
    "invariant": lambda inputs, seed: _compute_invariant(inputs, seed),
    "toric": lambda inputs, seed: _compute_toric(inputs),
    "barycenter": lambda inputs, seed: list(
        toric.polytope_barycenter(
            inputs.array("vertices", list, "an array of points"))),
}


def compute(kind: str, inputs, seed: int = DEFAULT_SEED, where="inputs"):
    """The value of one ``kind`` computation on ``inputs``, the object a
    case file holds under "inputs"; a field of the wrong shape is a
    SchemaError naming ``where``."""
    return _HANDLERS[kind](_Fields(inputs, where, SchemaError), seed)


def run_case(source, seed: int = DEFAULT_SEED) -> CaseResult:
    """Run one case file (path or already-parsed dict)."""
    if isinstance(source, dict):
        case, origin = source, source.get("label", "<dict>")
    else:
        case, origin = _load_json(source), str(source)
    case = _Fields(case, origin, SchemaError)
    _validate(case)
    label, kind, inputs = case["label"], case["kind"], case["inputs"]
    citation = case.get("citation", "")
    expected = _strip_citations(case.get("expected"))
    printed = _strip_citations(case.get("printed"))
    try:
        computed = compute(kind, inputs, seed)
    except SchemaError as exc:
        raise SchemaError(f"{origin}: {exc}") from None
    except Exception as exc:
        # A broken or missing fixture fails exactly this row; the rest of
        # the suite keeps running.
        return CaseResult(label, kind, "fail", None, expected, printed,
                          citation, f"{type(exc).__name__}: {exc}")
    if expected is None:
        status = "computed-only"
    elif _canon(computed) == _canon(expected):
        if printed is not None and _canon(printed) != _canon(expected):
            status = "discrepancy-noted"
        else:
            status = "pass"
    else:
        status = "fail"
    return CaseResult(label, kind, status, computed, expected, printed,
                      citation, "")


def _strip_citations(value):
    if isinstance(value, list):
        return [_strip_citations(v) for v in value]
    if isinstance(value, dict):
        return {k: _strip_citations(v) for k, v in value.items()
                if k != "citation"}
    return value


class StabilityReport(_Record):
    seed: int
    results: list[CaseResult] = []

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
