"""Differential test: production kernel == full-rescan oracle == golden.

The controller's decision loop (per-bank indexed queues, memoized
best-request cache, wake memo, direct agenda pushes) must be
*bit-identical* to the transparent full rescan it replaced — same commands,
same cycles, same metrics, same engine event counts. The rescan lives on as
a test oracle (``tests/reference_kernel.py``), swapped in where ``System``
looks the controller class up. This test runs every grid spec (all six
schedulers x every partitioning policy x open/closed page x validator-on)
under both controllers and compares the full result document against
``tests/data/kernel_golden.json``, which was generated from the rescan.

A mismatch in anything — even ``engine_events`` — means the production
loop changed simulation-visible behaviour and is a bug (or, if the semantic
change is intended, the fixture must be deliberately regenerated via
``scripts/gen_kernel_golden.py`` and the change called out in the commit).
"""

import json
import os

import pytest

from tests import reference_kernel
from tests.kernelgrid import GRID, run_grid_spec

_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "kernel_golden.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


def _diff_paths(expected, actual, prefix=""):
    """Leaf-level paths where two JSON documents disagree (for messages)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{prefix}.{key} (missing on one side)")
            else:
                out.extend(
                    _diff_paths(expected[key], actual[key], f"{prefix}.{key}")
                )
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{prefix} (length {len(expected)} != {len(actual)})"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_diff_paths(e, a, f"{prefix}[{i}]"))
        return out
    if expected != actual:
        return [f"{prefix}: {expected!r} != {actual!r}"]
    return []


def _roundtrip(doc):
    # The golden was written through json.dump; round-trip the live result
    # the same way so float formatting cannot produce spurious diffs.
    return json.loads(json.dumps(doc))


#: ``fast`` is the production controller, ``reference`` the oracle.
@pytest.mark.parametrize("kernel", ["fast", "reference"])
@pytest.mark.parametrize("spec", GRID, ids=[spec[0] for spec in GRID])
def test_kernel_matches_golden(spec, kernel, golden, monkeypatch):
    if kernel == "reference":
        reference_kernel.swap_in(monkeypatch)
    expected = golden["runs"][spec[0]]
    actual = _roundtrip(run_grid_spec(spec))
    if actual != expected:
        diffs = _diff_paths(expected, actual, prefix=spec[0])
        pytest.fail(
            f"{kernel} kernel diverged from golden on {spec[0]}:\n"
            + "\n".join(diffs[:20])
        )


def test_golden_covers_full_grid(golden):
    assert sorted(golden["runs"]) == sorted(spec[0] for spec in GRID)
