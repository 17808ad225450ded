"""One cold set-up of the kstab benchmark, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD

Imports kstab, parses the workload's case files and exits; the parent
times the whole process.
"""

import sys

import common

if __name__ == "__main__":
    common.use_checkout_kstab()
    import kstab.cli  # noqa: F401  (imports every kstab module)
    common.load_cases(sys.argv[1])
