"""Paths, workload definitions and case loading shared by run.py, its
child processes and the self-test."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CASES = SRC / "kstab" / "fixtures" / "cases"

# Suite JSON captured from the commit that defined this benchmark, with
# its default seed.  Only the "seed" field may differ for another seed.
GOLDEN = BENCH / "golden_suite.json"
GOLDEN_SEED = 20230413

# Case-file prefixes of each workload's items.
PREFIXES = {
    "suite": ("",),
    "toric-volume": ("toric--", "volume--", "barycenter--"),
    "flag-scan": ("flag--",),
}

OK_STATUSES = ("pass", "discrepancy-noted")


class MissingProgram(Exception):
    pass


def use_checkout_kstab():
    """Make ``import kstab`` load this checkout's sources, and only those."""
    if not (SRC / "kstab" / "__init__.py").is_file():
        raise MissingProgram(f"no kstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kstab
    if Path(kstab.__file__).resolve().parent != (SRC / "kstab").resolve():
        raise MissingProgram(f"kstab imported from {kstab.__file__}")


def case_paths(workload: str) -> list[Path]:
    prefixes = PREFIXES[workload]
    return sorted(p for p in CASES.glob("*.json")
                  if p.name.startswith(prefixes))


def load_cases(workload: str) -> list[dict]:
    """Parse the workload's case files; this is the end of set-up."""
    return [json.loads(p.read_text()) for p in case_paths(workload)]


def golden_text(seed: int) -> str:
    text = GOLDEN.read_text()
    old = f'\n  "seed": {GOLDEN_SEED},\n'
    if text.count(old) != 1:
        raise ValueError("golden suite JSON has no single seed field")
    return text.replace(old, f'\n  "seed": {seed},\n')


def golden_rows() -> dict[str, str]:
    """Canonical JSON of each golden row, keyed by label."""
    return {row["label"]: canon(row)
            for row in json.loads(GOLDEN.read_text())["cases"]}


def canon(value) -> str:
    return json.dumps(value, sort_keys=True)
