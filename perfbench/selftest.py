"""Checks of the benchmark itself (not part of the kstab test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import sys

import pytest

import common
import layertrace
import run

common.use_checkout_kstab()


@pytest.mark.parametrize("workload", ["toric-volume", "flag-scan"])
def test_per_item_counts_repeat_under_another_order(workload):
    first, second = run.Workload(workload, 1), run.Workload(workload, 2)
    a, b = first.run_pass(traced=True), second.run_pass(traced=True)
    assert a.failed == b.failed == 0
    assert a.trace["per_item"] == b.trace["per_item"]
    assert len(a.trace["per_item"]) == first.items


def test_every_import_binding_is_wrapped():
    mods = layertrace.load_modules()
    bindings = [("functionals", "double_integral"),
                ("functionals", "definite_integral"),
                ("functionals", "parametric_surface_zariski"),
                ("runner", "piecewise_integral"),
                ("invariants", "interpolate")]
    originals = {b: getattr(mods[b[0]], b[1]) for b in bindings}
    with layertrace.Tracer().installed(mods):
        for (mod, name), fn in originals.items():
            assert getattr(mods[mod], name).__wrapped__ is fn
    for (mod, name), fn in originals.items():
        assert getattr(mods[mod], name) is fn


def test_self_times_add_up_to_the_traced_calls():
    trace = run.Workload("flag-scan", 3).run_pass(traced=True).trace
    top = trace["inclusive"][layertrace.ITEM_ENTRY]
    assert sum(trace["self"].values()) == pytest.approx(top, rel=1e-6)


def test_suite_matches_golden_and_flags_a_changed_row():
    bench = run.Workload("suite", 7)
    assert bench.run_pass(traced=False).failed == 0
    traced = bench.run_pass(traced=True)
    assert traced.failed == 0
    assert traced.trace["totals"]["runner.run_case"] == bench.items
    changed = bench.expected.replace('"status": "pass"', '"status": "fail"', 1)
    assert bench._suite_failed(changed) == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
