"""Architecture rules: greps over the tree that keep replaced designs gone.

Each rule is one ``grep`` — its pattern and scope exactly as a shell
command would spell them — and passes when nothing matches outside the
lines its ``allow`` filters (``grep -vE`` / ``grep -vF`` over
``path:line:text``) let through. Every rule also has a mutation check: a
planted line that must trip it, and, where it allows something, a line
that must not.

Patterns that would match their own spelling are bracketed
(``obs[e]rvatory``), and mutation lines that the repo-wide rule scans are
assembled at run time, so this file never trips the rules it carries.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Rule:
    """One grep guard; ``scope`` entries are files, or directories
    searched recursively (``grep -r``) for files matching ``include`` and
    not named ``exclude``."""

    name: str
    why: str
    pattern: str
    scope: Tuple[str, ...]
    include: Optional[str] = None
    exclude: Optional[str] = None
    allow: Optional[str] = None
    allow_fixed: Optional[str] = None
    #: (path, line) planted under an empty root: the rule must fire.
    mutant: Tuple[str, str] = ("", "")
    #: (path, line) planted likewise that the rule must let through.
    tolerated: Optional[Tuple[str, str]] = None

    def files(self, root: Path) -> Iterator[Path]:
        for entry in self.scope:
            path = root / entry
            if path.is_file():
                yield path
            elif path.is_dir():
                for found in sorted(path.rglob("*")):
                    if not found.is_file():
                        continue
                    if self.include and not fnmatch.fnmatch(
                        found.name, self.include
                    ):
                        continue
                    if self.exclude and fnmatch.fnmatch(
                        found.name, self.exclude
                    ):
                        continue
                    yield found

    def violations(self, root: Path) -> List[str]:
        """Matching lines as ``path:line:text``, less the allowed ones."""
        pattern = re.compile(self.pattern)
        allow = re.compile(self.allow) if self.allow else None
        hits = []
        for path in self.files(root):
            data = path.read_bytes()
            if b"\0" in data:
                continue  # grep -I: binary files never match
            text = data.decode("utf-8", errors="replace")
            relative = path.relative_to(root).as_posix()
            for number, line in enumerate(text.splitlines(), 1):
                if not pattern.search(line):
                    continue
                hit = f"{relative}:{number}:{line}"
                if allow is not None and allow.search(hit):
                    continue
                if self.allow_fixed is not None and self.allow_fixed in hit:
                    continue
                hits.append(hit)
        return hits


RULES: Tuple[Rule, ...] = (
    Rule(
        "cli-import-boundary",
        "cli.py / __init__.py import the simulator at module level again",
        r"^(from|import) +\.(sim|memctrl|experiments|campaign\.executor)\b",
        ("src/repro/cli.py", "src/repro/__init__.py"),
        mutant=("src/repro/cli.py", "from .sim import runner"),
        tolerated=("src/repro/cli.py", "    from .sim import runner"),
    ),
    Rule(
        "one-controller-kernel",
        "a kernel switch or the reference loop crept back into src/repro "
        "(the full rescan lives in tests/reference_kernel.py)",
        r"REPRO_KERNEL|resolve_kernel|_try_issue_reference|_kc_on",
        ("src/repro",),
        include="*.py",
        mutant=(
            "src/repro/memctrl/controller.py",
            "kernel = os.environ.get('REPRO_KERNEL')",
        ),
    ),
    Rule(
        "columnar-traces",
        "core/generator/.rtrc code reads trace.records or builds a "
        "TraceRecord per record again; index trace.gaps/vlines/writes",
        r"\.records\b|TraceRecord\(",
        (
            "src/repro/cpu/core.py",
            "src/repro/workloads/synthetic.py",
            "src/repro/traces/format.py",
        ),
        mutant=("src/repro/cpu/core.py", "gap = trace.records[i].gap"),
    ),
    Rule(
        "partial-traces-seen-only-by-the-core",
        "only the Core reads a trace's growing prefix (Trace.extend_to and "
        "the live columns); everything else uses the public accessors, "
        "which complete the trace first",
        r"[.](extend_to[(]|_(gaps|vlines|writes|cum)\b)",
        ("src/repro",),
        include="*.py",
        allow=r"^src/repro/cpu/(core|trace)[.]py:",
        mutant=(
            "src/repro/traces/characterize.py",
            "filled = trace.extend_to(len(trace) // 2)",
        ),
        tolerated=(
            "src/repro/cpu/core.py",
            "filled = self.trace.extend_to(wanted)",
        ),
    ),
    Rule(
        "named-callbacks",
        "an agenda/request callback must be a bound method or a "
        "functools.partial of one, so SimProfiler charges its time to the "
        "class owning the method (a lambda is charged to the class that "
        "defined it, not to the work it calls)",
        r"lambda",
        ("src/repro/sim/system.py", "src/repro/cpu/core.py"),
        mutant=("src/repro/sim/system.py", "engine.schedule(t, lambda: 0)"),
    ),
    Rule(
        "no-mid-run-checkpoints",
        "mid-run checkpoints crept back into src/repro; a retried cell "
        "re-runs from scratch, which recovers from every fault",
        r"(?i)safepoint|checkpoint",
        ("src/repro",),
        include="*.py",
        mutant=(
            "src/repro/sim/system.py",
            "    def checkpoint(self) -> bytes:",
        ),
    ),
    Rule(
        "one-artefact-mechanism",
        "a persisted file is written outside repro.artefact again; use "
        "atomic_write/write_json and read_json (Stale/Corrupt)",
        r"os[.]replace|[.]tmp[.]|write_(text|bytes)[(]",
        ("src/repro",),
        include="*.py",
        allow=r"^src/repro/(artefact|faults/injectors)[.]py:",
        allow_fixed='".corrupt"',
        mutant=("src/repro/results/db.py", "path.write_text(doc)"),
        tolerated=("src/repro/artefact.py", "os.replace(tmp, path)"),
    ),
    Rule(
        "no-forced-collection",
        "memory is freed by System._release and reference counting, not "
        "by forcing a cyclic collection in library code",
        r"gc[.]collect",
        ("src/repro",),
        include="*.py",
        mutant=("src/repro/sim/runner.py", "gc.collect()"),
    ),
    Rule(
        "collector-paused-only-in-the-loop",
        "collection is paused only around the event loop, in "
        "System.run",
        r"gc[.]disable",
        ("src/repro",),
        include="*.py",
        allow=r"^src/repro/sim/system[.]py:",
        mutant=("src/repro/sim/engine.py", "gc.disable()"),
        tolerated=("src/repro/sim/system.py", "gc.disable()"),
    ),
    Rule(
        "one-benchmark-system",
        "a second benchmark record crept back in; performance is measured "
        "by benchmarks/e2e/run.py against BENCHMARK.json (tests/test_cli.py "
        "is skipped: it asserts the removed verb stays rejected)",
        r"obs[e]rvatory|perf[-_]trend|bench_[s]amples|BENCH_[S]CHEMA_VERSION",
        ("src", "scripts", "tests", ".github"),
        exclude="test_cli.py",
        mutant=("scripts/report.py", "from " + "obs" + "ervatory import x"),
        tolerated=("tests/test_cli.py", "'perf" + "-trend'"),
    ),
    Rule(
        "one-supervision-mechanism",
        "a second timeout/pool mechanism crept back into src/repro",
        r"SIGALRM|setitimer|SetAsyncExc|ProcessPoolExecutor",
        ("src/repro",),
        include="*.py",
        mutant=(
            "src/repro/campaign/executor.py",
            "from concurrent.futures import ProcessPoolExecutor",
        ),
    ),
    Rule(
        "runner-store-holds-alone-records-only",
        "sim/runner.py touches its store only for alone records; looking "
        "up, running and storing a cell is campaign.executor.execute's job",
        r"store[.][a-z_]+[(]",
        ("src/repro/sim/runner.py",),
        allow=r"store[.](get|put)_alone[(]",
        mutant=("src/repro/sim/runner.py", "hit = self.store.get(key)"),
        tolerated=("src/repro/sim/runner.py", "ipc = self.store.get_alone(key)"),
    ),
    Rule(
        "runs-stored-only-by-the-executor",
        "a run is stored only from campaign/executor.py (its worker "
        "function); everything else reaches the store through execute()",
        r"[.]put[(]",
        ("src/repro",),
        include="*.py",
        allow=r"^src/repro/campaign/executor[.]py:",
        mutant=("src/repro/sim/runner.py", "self.store.put(key, result, 0.0)"),
        tolerated=(
            "src/repro/campaign/executor.py",
            "store.put(key, result, wall, describe=spec.describe())",
        ),
    ),
    Rule(
        "runner-privates-stay-in-runner",
        "code outside sim/runner.py reaches into a Runner's private "
        "attributes; hand it what it needs through its constructor",
        r"runner\._[a-z]",
        ("src/repro",),
        include="*.py",
        allow=r"^src/repro/sim/runner[.]py:",
        mutant=("src/repro/campaign/executor.py", "runner._memo = _MEMO"),
        tolerated=("src/repro/sim/runner.py", "runner._assemble(apps)"),
    ),
    Rule(
        "one-run-cache",
        "a second cache of runs crept back into src/repro; the result "
        "store is the only one, and the campaign memo holds only traces "
        "and alone IPCs",
        r"_run_cache|run_cache_key|_WORKER_RUNNERS",
        ("src/repro",),
        include="*.py",
        mutant=(
            "src/repro/sim/runner.py",
            "self._run_cache: Dict[tuple, RunResult] = {}",
        ),
    ),
    Rule(
        "one-fidelity-tuner",
        "successive halving or its short-horizon screening crept back into "
        "the tuner; every trial runs the study's horizon, and a searcher "
        "stays only if it beats random search at equal budget",
        r"HalvingSearcher|fidelity|\brung\b|survivor|screen_fidelity"
        r"|min_horizon",
        ("src/repro/tuner", "src/repro/commands/tune.py"),
        include="*.py",
        mutant=(
            "src/repro/tuner/searchers.py",
            "    fidelity: float = 1.0",
        ),
        tolerated=(
            "src/repro/campaign/store.py",
            "telemetry — the fidelity check the trace-library smoke makes",
        ),
    ),
    Rule(
        "studies-are-store-documents",
        "the tuner reached into the SQLite index again; a study is its "
        "store document (tuner/studies.py), and the index keeps only the "
        "run rows it can rebuild from the blobs",
        r"sqlite3|ResultIndex|tuning_trials",
        ("src/repro/tuner",),
        include="*.py",
        mutant=(
            "src/repro/tuner/api.py",
            "from ..results.db import ResultIndex, index_path_for",
        ),
    ),
    Rule(
        "one-app-registry",
        "an in-process trace registry or the static trace analysis crept "
        "back into src/repro; a non-synthetic app name means its entry in "
        "the configured library's manifest (traces.source.resolve_app)",
        r"LIBRARY_APPS|register_trace|lookup_registered|clear_registry"
        r"|_autoload|analyze_trace",
        ("src/repro",),
        include="*.py",
        mutant=(
            "src/repro/traces/source.py",
            "    entry = lookup_registered(app, autoload=False)",
        ),
    ),
    Rule(
        "flat-lru-cache",
        "the cache's replacement plug point or its per-line objects and "
        "per-set dicts crept back into src/repro; line state is the flat "
        "tag/stamp/dirty arrays and LRU is the smallest stamp",
        r"ReplacementPolicy|RandomPolicy|LRUPolicy|_tag_to_way|class _Line",
        ("src/repro",),
        include="*.py",
        mutant=(
            "src/repro/cache/cache.py",
            "self._tag_to_way: Dict[int, Dict[int, int]] = {}",
        ),
        tolerated=(
            "src/repro/cache/cache.py",
            "slot = base + stamps.index(min(stamps))",
        ),
    ),
)

_IDS = [rule.name for rule in RULES]


def _plant(root: Path, path: str, line: str) -> None:
    target = root / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(line + "\n", encoding="utf-8")


@pytest.mark.parametrize("rule", RULES, ids=_IDS)
def test_rule_holds(rule):
    assert any(True for _ in rule.files(REPO_ROOT)), "rule scans nothing"
    hits = rule.violations(REPO_ROOT)
    assert not hits, rule.why + "\n" + "\n".join(hits)


@pytest.mark.parametrize("rule", RULES, ids=_IDS)
def test_rule_catches_its_mutant(rule, tmp_path):
    _plant(tmp_path, *rule.mutant)
    assert rule.violations(tmp_path), f"{rule.name} missed {rule.mutant}"


@pytest.mark.parametrize(
    "rule", [r for r in RULES if r.tolerated], ids=lambda r: r.name
)
def test_rule_lets_its_exception_through(rule, tmp_path):
    _plant(tmp_path, *rule.tolerated)
    assert rule.violations(tmp_path) == []
