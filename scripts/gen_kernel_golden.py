#!/usr/bin/env python
"""Regenerate the kernel-equivalence golden fixture.

Runs the differential grid (approach x scheduler x page-policy) once and
writes every simulation-visible result — per-thread outcomes, command and
refresh totals, engine event counts, and the full metrics-registry
snapshot — to ``tests/data/kernel_golden.json``.

The committed fixture was generated from the full-rescan loop that is now
the test oracle (``tests/reference_kernel.py``), so it pins the production
kernel and the oracle alike to the seed semantics. This script runs the
production controller. Only regenerate the fixture deliberately, when a
simulation-*visible* behaviour change is intended (say so in the commit),
and only once ``tests/test_kernel_equivalence.py`` shows the oracle
reproducing the new file too:

    python scripts/gen_kernel_golden.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from tests.kernelgrid import GRID, golden_document  # noqa: E402

DEFAULT_OUT = os.path.join(_ROOT, "tests", "data", "kernel_golden.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args()
    doc = golden_document()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(doc['runs'])} grid runs ({len(GRID)} specs) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
