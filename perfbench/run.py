"""Run one workload of the kstab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports kstab from ``src/`` there
and exits with code 2 when those sources are missing.

Every workload is a closed loop in one single-threaded process:
one item at a time, each pass over all of the workload's items.

    suite         ``kstab suite --format json --seed N`` through
                  ``kstab.cli.main``, caches cleared before each pass and
                  warm across its 90 cases, as in a fresh process.
    toric-volume  the toric--, volume-- and barycenter-- case files, caches
                  cleared before each item, in an order drawn from the seed.
    flag-scan     the flag-- case files, likewise.

Every output is checked: a row fails when its status is not ``pass`` or
``discrepancy-noted``, when it raises, or when it differs from the golden
suite JSON.  With ``--trace 0`` the run reports set-up time, the median
time of a pass and peak memory.  With ``--trace 1`` it alternates untraced
and traced passes and reports per-layer self times and counts.  Times are
scaled to a fixed machine speed (see ``speedref``); the raw medians are
printed too.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import common
import layertrace
import speedref

SETUP_PROBES = 15
FRACTION_PROBES = 2  # per probe point, between two passes
CHILD_TIMEOUT_S = 60


def _child_env() -> dict:
    # Cold starts read compiled bytecode, as those of an installed package
    # do; the cache is kept out of src/.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(common.ROOT / ".perfbench-pycache")
    env["PYTHONPATH"] = str(common.SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child_wall(args) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_child_env(), cwd=common.ROOT,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr}")
    return wall


def setup_sample(workload: str) -> tuple[float, float]:
    """One cold interpreter that imports kstab and parses the workload's
    case files, and a bare interpreter start right after it."""
    wall = _child_wall([str(common.BENCH / "child.py"), workload])
    return wall, _child_wall(["-c", "pass"])


def probe_point() -> float:
    return statistics.fmean(speedref.fraction_probe()
                            for _ in range(FRACTION_PROBES))


class Pass(NamedTuple):
    wall: float
    failed: int
    trace: dict | None = None
    scale: float = 1.0  # to seconds at the reference machine speed


class Workload:
    def __init__(self, name: str, seed: int):
        from kstab import cli, runner
        self.cli, self.runner = cli, runner
        self.name, self.seed = name, seed
        self.cases = common.load_cases(name)
        self.items = len(self.cases)
        self.golden = common.golden_rows()
        self.expected = common.golden_text(seed)
        self.rng = random.Random(seed)
        self.tracer = layertrace.Tracer()

    def _clear_caches(self):
        # ToricModel._prod_cache and FlagCase._inner hang off the cached
        # objects, so they are dropped with them.
        self.runner._MODEL_CACHE.clear()
        self.runner._FLAG_CACHE.clear()

    def run_pass(self, traced: bool) -> Pass:
        self.tracer.reset()
        with self.tracer.installed() if traced else contextlib.nullcontext():
            if self.name == "suite":
                wall, failed = self._suite_pass()
            else:
                wall, failed = self._cases_pass()
        return Pass(wall, failed, self.tracer.summary() if traced else None)

    def _suite_pass(self) -> tuple[float, int]:
        self._clear_caches()
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                self.cli.main(["suite", "--format", "json",
                               "--seed", str(self.seed)])
            except Exception:
                traceback.print_exc()
        return time.perf_counter() - t0, self._suite_failed(out.getvalue())

    def _suite_failed(self, out: str) -> int:
        if out == self.expected:
            return 0
        try:
            rows = {r["label"]: r for r in json.loads(out)["cases"]}
        except (ValueError, KeyError, TypeError):
            return self.items
        return max(1, sum(1 for label, gold in self.golden.items()
                          if self._row_failed(rows.get(label), gold)))

    def _cases_pass(self) -> tuple[float, int]:
        order = list(self.cases)
        self.rng.shuffle(order)
        wall, failed = 0.0, 0
        for case in order:
            self._clear_caches()
            t0 = time.perf_counter()
            try:
                row = self.runner.run_case(case).row()
            except Exception:
                traceback.print_exc()
                row = None
            wall += time.perf_counter() - t0
            failed += self._row_failed(row, self.golden.get(case["label"]))
        return wall, failed

    @staticmethod
    def _row_failed(row, gold: str | None) -> bool:
        return (row is None or row["status"] not in common.OK_STATUSES
                or common.canon(row) != gold)


def run_passes(bench: Workload, seconds: float, traced: bool,
               setup: bool):
    """An untimed warm-up pass, then passes until ``seconds`` are spent;
    with ``traced`` set, untraced and traced passes alternate.

    A probe point between every two passes times the fraction probe; each
    pass is scaled by the mean of the points on its two sides.  With
    ``setup`` set, SETUP_PROBES set-up samples are spread evenly over the
    window.
    """
    kinds = (False, True) if traced else (False,)
    probes = SETUP_PROBES if setup else 0
    warm = bench.run_pass(False)
    passes, setups, point = [], [], probe_point()
    start = time.perf_counter()
    while (len(passes) < len(kinds)
           or time.perf_counter() - start < seconds):
        p = bench.run_pass(kinds[len(passes) % len(kinds)])
        after = probe_point()
        passes.append(p._replace(
            scale=speedref.FRACTION_PROBE_S * 2 / (point + after)))
        point = after
        while (len(setups) < probes and len(setups) * seconds / probes
               <= time.perf_counter() - start):
            setups.append(setup_sample(bench.name))
    while len(setups) < probes:
        setups.append(setup_sample(bench.name))
    return warm, passes, setups


def _layer_metrics(traced: list[Pass], untraced: list[Pass]) -> dict:
    med = statistics.median
    totals = traced[0].trace["totals"]

    def n(*names):
        return sum(totals.get(x, 0) for x in names)

    def scaled(seconds_of):
        return med(seconds_of(p.trace) * p.scale for p in traced), "s"

    solves = n("_linalg.solve")
    metrics = {f"{layer}.self_s": scaled(lambda t, k=layer: t["self"][k])
               for layer in layertrace.LAYERS}
    metrics.update({
        "toric.intersection_calls": (n(
            "toric.intersection_product", "toric.intersection_form",
            "toric.triple_intersection_distinct"), "count"),
        "toric.monomials_computed": (n("toric.monomial_computed"), "count"),
        "toric.barycenter_s": scaled(
            lambda t: t["inclusive"].get("toric.polytope_barycenter", 0.0)),
        "linalg.solve_calls": (solves, "count"),
        "linalg.solve_useful_ratio": (
            (solves - n("_linalg.solve.inconsistent")) / solves
            if solves else 1.0, "ratio"),
        "linalg.det_calls": (n("_linalg.det"), "count"),
        "linalg.rank_calls": (n("_linalg.rank"), "count"),
        "exactcore.integral_calls": (n(
            "exactcore.definite_integral", "exactcore.double_integral",
            "exactcore.piecewise_integral"), "count"),
        "exactcore.interpolate_calls": (n("exactcore.interpolate"), "count"),
        "exactcore.poly_mul_calls": (n("exactcore.poly_mul"), "count"),
        "zariski.scan_calls": (n("zariski.parametric_surface_zariski"),
                               "count"),
        "zariski.scan_splits": (n("zariski.split"), "count"),
        "zariski.surface_calls": (n("zariski.surface_zariski"), "count"),
        "zariski.threefold_calls": (n("zariski.threefold_chamber_volume"),
                                    "count"),
        "functionals.flag_calls": (n(
            "functionals.s_flag_surface_report", "functionals.s_flag_point",
            "functionals.f_q_term"), "count"),
        "invariants.dimension_calls": (n("invariants.invariant_dimension"),
                                       "count"),
        "invariants.peano_calls": (n("invariants.peano_invariants"), "count"),
        "runner.fixture_loads": (n("runner.load_fixture"), "count"),
        "runner.model_parses": (n("toric.parse_model"), "count"),
        "trace.overhead_s": (
            med(p.wall * p.scale for p in traced)
            - med(p.wall * p.scale for p in untraced), "s"),
        "trace.unattributed_s": (med(
            (p.wall - sum(p.trace["self"].values())) * p.scale
            for p in traced), "s"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.PREFIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_checkout_kstab()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    bench = Workload(args.workload, args.seed)
    if not args.trace:
        setup_sample(args.workload)  # fills the bytecode cache; not a sample
    warm, passes, setups = run_passes(bench, args.seconds, bool(args.trace),
                                      setup=not args.trace)
    attempted = bench.items * (1 + len(passes))
    failed = warm.failed + sum(p.failed for p in passes)
    correct = failed == 0
    untraced = [p for p in passes if p.trace is None]
    raw = statistics.median(p.wall for p in untraced)

    if args.trace:
        traced = [p for p in passes if p.trace is not None]
        counts = {json.dumps([p.trace["totals"], p.trace["per_item"]],
                             sort_keys=True) for p in traced}
        if len(counts) != 1:
            print("error: call counts differ between traced passes",
                  file=sys.stderr)
            correct = False
        metrics = _layer_metrics(traced, untraced)
        print(f"{args.workload}: {len(untraced)} untraced and {len(traced)}"
              f" traced passes of {bench.items} items; raw untraced median"
              f" {raw:.4f} s")
    else:
        scaled = [p.wall * p.scale for p in untraced]
        q1, wall, q3 = (statistics.quantiles(scaled, n=4)
                        if len(scaled) > 1 else scaled * 3)
        metrics = {
            "setup_s": (speedref.BARE_START_S * statistics.median(
                w / bare for w, bare in setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{args.workload}: {len(scaled)} passes of {bench.items} items;"
              f" wall_s q1 {q1:.4f} median {wall:.4f} q3 {q3:.4f};"
              f" raw median {raw:.4f} s; setup_s from {len(setups)} cold"
              f" starts, raw median"
              f" {statistics.median(w for w, _ in setups):.4f} s")
    # error_rate is shown but not in the result line, where it would often
    # be 0; the result line carries it as failed / attempted.
    for name, (value, unit) in dict(
            metrics, error_rate=(failed / attempted, "ratio")).items():
        shown = f"{value:.6f}" if isinstance(value, float) else value
        print(f"  {name:30s} {shown:>14} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
