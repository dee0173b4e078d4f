"""Tests for the reprolint static-analysis framework.

Each rule gets a fixture pair — a snippet that must trigger it and a
nearby clean snippet that must not — linted through the real engine so
the shared-walk dispatch, suppression handling, and severity plumbing
are all exercised.  The suite ends with the self-check: the repository's
own ``src``, ``tests``, and ``scripts`` trees must lint clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, Severity, all_rules, lint_source, run_paths
from repro.lint.cli import main as lint_main
from repro.lint.project import ProjectIndex
from repro.lint.summaries import summarize_module

REPO_ROOT = Path(__file__).resolve().parent.parent

LIBRARY_PATH = "src/repro/example.py"


def lint(source: str, path: str = LIBRARY_PATH, config: LintConfig | None = None):
    return lint_source(textwrap.dedent(source), path=path, config=config)


def rule_ids(source: str, path: str = LIBRARY_PATH) -> list[str]:
    return [f.rule_id for f in lint(source, path=path)]


class TestRegistry:
    def test_all_rules_sorted_and_unique(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_expected_rule_catalog(self):
        ids = {r.id for r in all_rules()}
        assert {
            "REP000",
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP010",
            "REP011",
            "REP012",
            "REP015",
            "REP020",
            "REP021",
            "REP030",
            "REP031",
            "REP040",
            "REP041",
            "REP042",
            "REP043",
            "REP050",
            "REP051",
            "REP052",
            "REP999",
        } <= ids


class TestRep001UnseededRng:
    def test_flags_unseeded_default_rng(self):
        assert "REP001" in rule_ids(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )

    def test_flags_legacy_global_state(self):
        assert "REP001" in rule_ids(
            """
            import numpy as np
            x = np.random.rand(3)
            """
        )

    def test_clean_when_seeded(self):
        assert "REP001" not in rule_ids(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            """
        )

    def test_library_only(self):
        source = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert "REP001" not in [
            f.rule_id for f in lint(source, path="scripts/example.py")
        ]


class TestRep002WallClock:
    def test_flags_time_time(self):
        assert "REP002" in rule_ids(
            """
            import time
            t = time.time()
            """
        )

    def test_flags_from_import(self):
        assert "REP002" in rule_ids(
            """
            from time import perf_counter
            t = perf_counter()
            """
        )

    def test_timing_module_is_allowlisted(self):
        source = """
        import time
        t = time.perf_counter()
        """
        assert "REP002" not in [
            f.rule_id for f in lint(source, path="src/repro/timing.py")
        ]

    def test_monotonic_clock_still_flagged(self):
        assert "REP002" in rule_ids(
            """
            import time
            t = time.monotonic()
            """
        )


class TestRep003UnorderedIteration:
    def test_flags_for_over_set_literal(self):
        assert "REP003" in rule_ids(
            """
            for item in {1, 2, 3}:
                print(item)
            """
        )

    def test_flags_list_of_set(self):
        assert "REP003" in rule_ids(
            """
            values = list({1, 2, 3})
            """
        )

    def test_flags_dict_values_via_local_set(self):
        assert "REP003" in rule_ids(
            """
            seen = {1, 2}
            for item in seen:
                print(item)
            """
        )

    def test_sorted_iteration_is_clean(self):
        assert "REP003" not in rule_ids(
            """
            for item in sorted({1, 2, 3}):
                print(item)
            """
        )

    def test_order_insensitive_sink_is_clean(self):
        assert "REP003" not in rule_ids(
            """
            names = {"a", "b"}
            ok = any(n.startswith("a") for n in names)
            total = sum(len(n) for n in names)
            """
        )


class TestRep004EnvironRead:
    def test_flags_environ_subscript(self):
        assert "REP004" in rule_ids(
            """
            import os
            home = os.environ["HOME"]
            """
        )

    def test_flags_getenv(self):
        assert "REP004" in rule_ids(
            """
            import os
            level = os.getenv("LEVEL", "1")
            """
        )

    def test_scenario_module_is_not_allowlisted(self):
        source = """
        import os
        root = os.environ.get("HOME")
        """
        assert "REP004" in [
            f.rule_id for f in lint(source, path="src/repro/sim/scenario.py")
        ]

    def test_cli_entry_point_is_allowlisted(self):
        source = """
        import os
        jobs = os.getenv("REPRO_JOBS")
        """
        assert "REP004" not in [
            f.rule_id for f in lint(source, path="src/repro/experiments/__main__.py")
        ]


class TestRep010FloatEquality:
    def test_flags_float_literal_equality(self):
        assert "REP010" in rule_ids(
            """
            def check(x: float) -> bool:
                return x == 0.5
            """
        )

    def test_flags_not_equal_and_negative_literals(self):
        assert "REP010" in rule_ids(
            """
            def check(x: float) -> bool:
                return x != -1.0
            """
        )

    def test_integer_literal_equality_is_clean(self):
        assert "REP010" not in rule_ids(
            """
            def check(x: int) -> bool:
                return x == 0
            """
        )

    def test_isclose_is_clean(self):
        assert "REP010" not in rule_ids(
            """
            import math

            def check(x: float) -> bool:
                return math.isclose(x, 0.5)
            """
        )


class TestRep011MutableDefault:
    def test_flags_list_default(self):
        assert "REP011" in rule_ids(
            """
            def collect(items=[]):
                return items
            """
        )

    def test_flags_dict_call_default(self):
        assert "REP011" in rule_ids(
            """
            from collections import defaultdict

            def tally(counts=defaultdict(int)):
                return counts
            """
        )

    def test_none_and_tuple_defaults_are_clean(self):
        assert "REP011" not in rule_ids(
            """
            def collect(items=None, pair=(1, 2)):
                return items, pair
            """
        )


class TestRep012UnusedImport:
    def test_flags_unread_import_and_from_import(self):
        findings = lint(
            """
            import os
            import numpy as np
            from typing import Iterator, Sequence

            def first(xs: Sequence[int]) -> int:
                return np.asarray(xs)[0]
            """
        )
        assert [(f.rule_id, f.line) for f in findings] == [("REP012", 2), ("REP012", 4)]
        assert "'os'" in findings[0].message and "'Iterator'" in findings[1].message

    def test_applies_outside_the_library_too(self):
        assert "REP012" in rule_ids("import json\n", path="tests/test_example.py")

    def test_reads_that_are_not_plain_loads_count(self):
        """``__all__``, string annotations (the ``TYPE_CHECKING`` idiom),
        dotted imports read through their first component, re-export
        aliases, ``__future__`` and optional-dependency fallbacks."""
        assert "REP012" not in rule_ids(
            """
            from __future__ import annotations

            import os.path
            from typing import TYPE_CHECKING

            from repro.geo import Point
            from repro.geo import Rect as Rect

            if TYPE_CHECKING:
                from repro.core.plan import SheddingPlan
                from repro.server import BaseStation

            try:
                import scipy
            except ImportError:
                scipy = None

            __all__ = ["Point", "area"]

            def area(plan: "SheddingPlan", stations: list["BaseStation"]) -> float:
                return float(os.path.getsize(plan.path)) if scipy else 0.0
            """
        )

    def test_package_init_reexports_are_exempt(self):
        source = "from repro.geo import Point, Rect\n"
        assert "REP012" not in rule_ids(source, path="src/repro/shapes/__init__.py")
        assert "REP012" in rule_ids(source, path="src/repro/shapes/core.py")

    def test_function_local_imports_are_not_module_bindings(self):
        assert "REP012" not in rule_ids(
            """
            def registered():
                import repro.lint.rules
                return True
            """
        )

    def test_side_effect_import_is_suppressed_with_its_reason(self):
        source = """
            import repro.lint.rules  # reprolint: disable=REP012 - registers the rules on import
            """
        assert rule_ids(source) == []
        assert rule_ids(source.replace("disable=REP012", "disable=REP011")) == [
            "REP000",
            "REP012",
        ]


def census(source: str, reads: set[str], path: str = LIBRARY_PATH) -> list[tuple[str, int]]:
    """REP015 with ``reads`` standing in for the consumer files' names."""
    source = textwrap.dedent(source)
    project = ProjectIndex([summarize_module(path, source)], reads=frozenset(reads))
    return [(f.rule_id, f.line) for f in lint_source(source, path=path, project=project)]


class TestRep015UnreferencedDef:
    def test_flags_functions_classes_and_methods_no_consumer_reads(self):
        source = """
            import functools

            def orphan():
                return 1

            class Unused:
                def method(self):
                    return 2

                @property
                def size(self):
                    return 3

                @staticmethod
                @functools.lru_cache
                def cached():
                    return 4
            """
        assert census(source, reads=set()) == [
            ("REP015", 4), ("REP015", 7), ("REP015", 8), ("REP015", 11), ("REP015", 15),
        ]
        # Decorated defs are anchored at their first decorator.
        assert census(source, reads={"orphan", "Unused", "method"}) == [
            ("REP015", 11), ("REP015", 15),
        ]

    def test_exempt_defs_do_not_fire(self):
        assert census(
            """
            import abc
            import ast
            from typing import Protocol

            from repro.lint.registry import Rule, register

            class Shape(Protocol):
                def area(self) -> float: ...

            class Base(abc.ABC):
                def __init__(self):
                    self.x = 1

                @abc.abstractmethod
                def run(self): ...

            class Walker(ast.NodeVisitor):
                def visit_Call(self, node):
                    return node

                def helper(self):
                    return 0

            @register
            class SomeRule(Rule):
                id = "REP999"
            """,
            reads={"Shape", "Base", "Walker", "Rule"},
        ) == [("REP015", 22)]

    def test_read_names_and_non_library_files_do_not_fire(self):
        source = """
            def orphan():
                return 1
            """
        assert census(source, reads={"orphan"}) == []
        assert census(source, reads=set(), path="tests/test_example.py") == []

    def test_silent_without_a_consumer_census(self):
        assert rule_ids("def orphan():\n    return 1\n") == []

    def test_suppressed_with_its_reason(self):
        source = """
            import numpy as np

            class Engine:
                # reprolint: disable=REP015 - test seam: parity with the
                # per-node oracle.
                @property
                def counts(self) -> np.ndarray:
                    return np.zeros(3)
            """
        assert census(source, reads={"Engine"}) == []
        assert census(source.replace("REP015", "REP011"), reads={"Engine"}) == [
            ("REP000", 5), ("REP015", 7),
        ]


class TestRep020UnclampedPlan:
    def test_flags_hand_built_thresholds(self):
        assert "REP020" in rule_ids(
            """
            import numpy as np
            from repro.core.plan import SheddingPlan

            def build(bounds, regions):
                thresholds = np.array([5.0, 10.0])
                return SheddingPlan.from_regions(bounds, regions, thresholds, 8)
            """
        )

    def test_clamped_thresholds_are_clean(self):
        assert "REP020" not in rule_ids(
            """
            import numpy as np
            from repro.core.plan import SheddingPlan, clamp_thresholds

            def build(bounds, regions, config):
                thresholds = clamp_thresholds(np.array([5.0, 10.0]), config)
                return SheddingPlan.from_regions(bounds, regions, thresholds, 8)
            """
        )

    def test_greedy_increment_result_is_clean(self):
        assert "REP020" not in rule_ids(
            """
            from repro.core.greedy import greedy_increment
            from repro.core.plan import SheddingPlan

            def build(bounds, regions, reduction, z):
                result = greedy_increment(regions, reduction, z)
                return SheddingPlan.from_regions(
                    bounds, regions, result.thresholds, 8
                )
            """
        )


class TestRep021PolicyInterface:
    def test_flags_undeclared_policy_shape(self):
        assert "REP021" in rule_ids(
            """
            class ShadowPolicyLike:
                def adapt(self, grid, z):
                    pass

                def thresholds_for(self, positions):
                    return positions
            """
        )

    def test_subclassing_shedding_policy_is_clean(self):
        assert "REP021" not in rule_ids(
            """
            from repro.shedding.policy import SheddingPolicy

            class UniformPolicy(SheddingPolicy):
                def adapt(self, grid, z):
                    pass

                def thresholds_for(self, positions):
                    return positions
            """
        )


class TestRep030PoolCallables:
    def test_flags_lambda_in_pool_map(self):
        assert "REP030" in rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda x: x * 2, items))
            """
        )

    def test_flags_nested_function_submitted(self):
        assert "REP030" in rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                def job(x):
                    return x * 2

                with ProcessPoolExecutor() as pool:
                    return [pool.submit(job, x) for x in items]
            """
        )

    def test_module_level_function_is_clean(self):
        assert "REP030" not in rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            def job(x):
                return x * 2

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(job, items))
            """
        )


class TestRep031UnorderedShardIteration:
    def test_flags_bare_shard_dict(self):
        assert "REP031" in rule_ids(
            """
            shard_results = {}
            for shard_id in shard_results:
                print(shard_id)
            """
        )

    def test_flags_dict_view_on_shard_mapping(self):
        assert "REP031" in rule_ids(
            """
            def merge(per_shard):
                return [v for v in per_shard.values()]
            """
        )

    def test_flags_shard_id_set(self):
        assert "REP031" in rule_ids(
            """
            shard_ids = {0, 1, 2}
            for shard in shard_ids:
                print(shard)
            """
        )

    def test_sorted_iteration_is_clean(self):
        assert "REP031" not in rule_ids(
            """
            shard_results = {}
            for shard_id in sorted(shard_results):
                print(shard_id)
            """
        )

    def test_range_over_shard_count_is_clean(self):
        assert "REP031" not in rule_ids(
            """
            def run(n_shards):
                for shard_id in range(n_shards):
                    print(shard_id)
            """
        )

    def test_non_shard_dict_is_clean(self):
        assert "REP031" not in rule_ids(
            """
            totals = {}
            for key in totals:
                print(key)
            """
        )

    def test_shard_list_is_clean(self):
        assert "REP031" not in rule_ids(
            """
            def run(shards):
                for shard in shards:
                    shard.tick()
            """
        )


class TestSuppressions:
    def test_trailing_suppression_masks_finding(self):
        findings = lint(
            """
            def check(x: float) -> bool:
                return x == 0.0  # reprolint: disable=REP010 - exact zero guard
            """
        )
        assert [f.rule_id for f in findings] == []

    def test_standalone_suppression_skips_comment_continuation(self):
        findings = lint(
            """
            def check(x: float) -> bool:
                # reprolint: disable=REP010 - exact guard, with a wrapped
                # justification spilling onto a second comment line.
                return x == 0.0
            """
        )
        assert [f.rule_id for f in findings] == []

    def test_unused_suppression_is_reported(self):
        findings = lint(
            """
            def check(x: int) -> bool:
                return x == 0  # reprolint: disable=REP010
            """
        )
        assert [f.rule_id for f in findings] == ["REP000"]
        assert findings[0].severity is Severity.ERROR

    def test_suppression_only_masks_named_rule(self):
        findings = lint(
            """
            def check(x: float) -> bool:
                return x == 0.0  # reprolint: disable=REP011
            """
        )
        assert sorted(f.rule_id for f in findings) == ["REP000", "REP010"]

    def test_suppression_of_a_rule_that_did_not_run_is_not_unused(self):
        """``--select REP015`` (CI's census step) must not call every other
        rule's suppressions stale."""
        source = """
            def check(x: float) -> bool:
                return x == 0.0  # reprolint: disable=REP010 - exact zero guard
            """
        selected = LintConfig(select=frozenset({"REP015"}))
        assert lint(source, config=selected) == []
        assert [f.rule_id for f in lint(source.replace("0.0", "0"))] == ["REP000"]


class TestParseFailure:
    def test_syntax_error_yields_rep999(self):
        findings = lint("def broken(:\n    pass\n")
        assert [f.rule_id for f in findings] == ["REP999"]
        assert findings[0].line >= 1


class TestFindingFormat:
    def test_text_format_is_path_line_col_rule(self):
        findings = lint(
            """
            import time
            t = time.time()
            """
        )
        rep002 = [f for f in findings if f.rule_id == "REP002"]
        assert rep002
        text = rep002[0].format()
        assert text.startswith(f"{LIBRARY_PATH}:3:")
        assert " REP002 " in text


class TestCli:
    def _write(self, tmp_path: Path, name: str, body: str) -> Path:
        target = tmp_path / name
        target.write_text(textwrap.dedent(body))
        return target

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = self._write(tmp_path, "clean.py", "x = 1\n")
        assert lint_main([str(target)]) == 0

    def test_violations_exit_one_with_location_lines(self, tmp_path, capsys):
        target = self._write(
            tmp_path,
            "dirty.py",
            """
            import time

            def stamp(acc=[]):
                acc.append(time.time())
                return acc
            """,
        )
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:5:" in out
        assert "REP002" in out
        assert "REP011" in out

    def test_json_report(self, tmp_path, capsys):
        target = self._write(
            tmp_path,
            "dirty.py",
            """
            import time
            t = time.time()
            """,
        )
        assert lint_main(["--format", "json", str(target)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 1
        assert report["errors"] >= 1
        assert report["findings"][0]["rule"] == "REP002"

    def test_select_filters_rules(self, tmp_path, capsys):
        target = self._write(
            tmp_path,
            "dirty.py",
            """
            import time

            def stamp(acc=[]):
                acc.append(time.time())
                return acc
            """,
        )
        assert lint_main(["--select", "REP011", str(target)]) == 1
        out = capsys.readouterr().out
        assert "REP011" in out
        assert "REP002" not in out

    def test_run_leaves_nothing_in_the_cwd(self, tmp_path, monkeypatch):
        target = self._write(tmp_path, "dirty.py", "import time\nt = time.time()\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main([target.name]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["dirty.py"]

    def test_unknown_rule_is_usage_error(self, tmp_path):
        target = self._write(tmp_path, "clean.py", "x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--select", "REP777", str(target)])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "REP030" in out


class TestSelfCheck:
    """The repository's own code must satisfy its own linter."""

    def test_repository_lints_clean(self):
        findings, files_checked = run_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "scripts"]
        )
        assert files_checked > 50
        assert [f.format() for f in findings] == []

    def test_module_entry_point_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestInterproceduralDeterminism:
    """REP001/REP002/REP004 through the single-file project index."""

    def test_rep002_flags_call_into_clock_reading_helper(self):
        findings = lint(
            """
            import time

            def helper():
                return time.time()

            def caller():
                return helper()
            """
        )
        ids = [f.rule_id for f in findings]
        assert ids == ["REP002", "REP002"]
        call_site = findings[-1]
        assert "repro.example.helper -> time.time" in call_site.message

    def test_rep001_flags_call_into_unseeded_rng_helper(self):
        ids = rule_ids(
            """
            import numpy as np

            def make_rng():
                return np.random.default_rng()

            def simulate():
                return make_rng()
            """
        )
        assert ids == ["REP001", "REP001"]

    def test_seeded_helper_is_clean_at_call_sites(self):
        assert (
            rule_ids(
                """
                import numpy as np

                def make_rng(seed):
                    return np.random.default_rng(seed)

                def simulate():
                    return make_rng(3)
                """
            )
            == []
        )

    def test_rep004_flags_call_into_environ_reading_helper(self):
        ids = rule_ids(
            """
            import os

            def flag():
                return os.getenv("X")

            def run():
                return flag()
            """
        )
        assert ids == ["REP004", "REP004"]

    def test_method_call_resolves_through_self(self):
        findings = lint(
            """
            import time

            class Runner:
                def stamp(self):
                    return time.time()

                def run(self):
                    return self.stamp()
            """
        )
        assert [f.rule_id for f in findings] == ["REP002", "REP002"]
        assert "repro.example.Runner.stamp" in findings[-1].message


class TestRep040BlockingInAsync:
    def test_direct_blocking_call_flagged(self):
        assert "REP040" in rule_ids(
            """
            import time

            async def pump():
                time.sleep(0.1)
            """
        )

    def test_transitive_blocking_helper_flagged_with_chain(self):
        findings = lint(
            """
            import time

            def backoff():
                time.sleep(0.1)

            async def pump():
                backoff()
            """
        )
        rep040 = [f for f in findings if f.rule_id == "REP040"]
        assert len(rep040) == 1
        assert "repro.example.backoff -> time.sleep" in rep040[0].message

    def test_to_thread_deferral_is_clean(self):
        assert "REP040" not in rule_ids(
            """
            import asyncio
            import time

            async def pump():
                await asyncio.to_thread(time.sleep, 0.1)
            """
        )

    def test_blocking_in_sync_function_not_flagged_by_rep040(self):
        assert "REP040" not in rule_ids(
            """
            import time

            def backoff():
                time.sleep(0.1)
            """
        )

    def test_only_library_code_checked(self):
        assert "REP040" not in rule_ids(
            """
            import time

            async def pump():
                time.sleep(0.1)
            """,
            path="tests/test_example.py",
        )


class TestRep041UnawaitedCoroutine:
    def test_bare_call_of_project_async_def_flagged(self):
        assert "REP041" in rule_ids(
            """
            import asyncio

            async def job():
                await asyncio.sleep(0)

            def kickoff():
                job()
            """
        )

    def test_bare_known_stdlib_coroutine_flagged(self):
        assert "REP041" in rule_ids(
            """
            import asyncio

            async def pump():
                asyncio.sleep(1.0)
            """
        )

    def test_awaited_and_scheduled_calls_clean(self):
        assert "REP041" not in rule_ids(
            """
            import asyncio

            async def job():
                await asyncio.sleep(0)

            async def main():
                await job()
                task = asyncio.create_task(job())
                task.add_done_callback(print)
                await task
            """
        )

    def test_sync_bare_call_clean(self):
        assert "REP041" not in rule_ids(
            """
            def job():
                return 1

            def kickoff():
                job()
            """
        )


class TestRep042BareCreateTask:
    def test_discarded_task_flagged(self):
        assert "REP042" in rule_ids(
            """
            import asyncio

            async def job():
                await asyncio.sleep(0)

            async def main():
                asyncio.create_task(job())
            """
        )

    def test_list_collected_tasks_without_observer_flagged(self):
        ids = rule_ids(
            """
            import asyncio

            async def job():
                await asyncio.sleep(0)

            async def main():
                tasks = [
                    asyncio.create_task(job()),
                    asyncio.create_task(job()),
                ]
                return tasks
            """
        )
        assert ids.count("REP042") == 2

    def test_retained_handle_with_done_callback_clean(self):
        assert "REP042" not in rule_ids(
            """
            import asyncio

            async def job():
                await asyncio.sleep(0)

            async def main():
                task = asyncio.create_task(job())
                task.add_done_callback(print)
                await task
            """
        )

    def test_collected_tasks_with_observer_clean(self):
        assert "REP042" not in rule_ids(
            """
            import asyncio

            async def job():
                await asyncio.sleep(0)

            async def main():
                tasks = [asyncio.create_task(job())]
                for task in tasks:
                    task.add_done_callback(print)
                return tasks
            """
        )


class TestRep043AwaitHoldingLock:
    def test_await_inside_sync_lock_flagged(self):
        assert "REP043" in rule_ids(
            """
            import asyncio
            import threading

            _lock = threading.Lock()

            async def update():
                with _lock:
                    await asyncio.sleep(0)
            """
        )

    def test_locally_constructed_lock_flagged(self):
        assert "REP043" in rule_ids(
            """
            import asyncio
            import threading

            async def update():
                guard = threading.Lock()
                with guard:
                    await asyncio.sleep(0)
            """
        )

    def test_async_with_clean(self):
        assert "REP043" not in rule_ids(
            """
            import asyncio

            async def update(lock):
                async with lock:
                    await asyncio.sleep(0)
            """
        )

    def test_non_lock_context_clean(self):
        assert "REP043" not in rule_ids(
            """
            import asyncio
            import contextlib

            async def update():
                with contextlib.nullcontext():
                    await asyncio.sleep(0)
            """
        )


class TestRep050PoolWorkerGlobalMutation:
    def test_job_mutating_module_global_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            _CACHE = {}

            def job(x):
                _CACHE[x] = x
                return x

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(job, items))
            """
        )
        rep050 = [f for f in findings if f.rule_id == "REP050"]
        assert len(rep050) == 1
        assert "_CACHE" in rep050[0].message

    def test_transitive_mutation_through_helper_flagged(self):
        assert "REP050" in rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            _STATS = {}

            def bump(key):
                _STATS[key] = _STATS.get(key, 0) + 1

            def job(x):
                bump(x)
                return x

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(job, items))
            """
        )

    def test_pure_job_clean(self):
        assert "REP050" not in rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            def job(x):
                return x * 2

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(job, items))
            """
        )

    def test_initializer_mutating_globals_is_sanctioned(self):
        assert "REP050" not in rule_ids(
            """
            from concurrent.futures import ProcessPoolExecutor

            _STATE = {}

            def _init(payload):
                _STATE["cfg"] = payload

            def job(x):
                return _STATE["cfg"], x

            def run(items, payload):
                with ProcessPoolExecutor(
                    initializer=_init, initargs=(payload,)
                ) as pool:
                    return list(pool.map(job, items))
            """
        )


class TestRep051UnorderedCrossShardReduce:
    def test_same_module_callee_left_to_rep031(self):
        ids = rule_ids(
            """
            def merge(shards):
                total = 0.0
                for key in shards.keys():
                    total += shards[key]
                return total

            def reduce_all(shards):
                return merge(shards)
            """
        )
        assert "REP031" in ids
        assert "REP051" not in ids


class TestRep052UnpicklablePoolArgument:
    def test_lambda_in_payload_flagged(self):
        assert "REP052" in rule_ids(
            """
            def run(pool, job):
                return pool.submit(job, lambda: 1)
            """
        )

    def test_lambda_inside_partial_flagged(self):
        assert "REP052" in rule_ids(
            """
            import functools

            def run(pool, job, combine):
                return pool.submit(job, functools.partial(combine, lambda: 2))
            """
        )

    def test_nested_function_keyword_flagged(self):
        assert "REP052" in rule_ids(
            """
            def run(pool, job):
                def local_key(x):
                    return -x

                return pool.submit(job, key=local_key)
            """
        )

    def test_plain_data_payload_clean(self):
        assert "REP052" not in rule_ids(
            """
            import functools

            def run(pool, job, combine):
                return pool.submit(job, 3, functools.partial(combine, 2), key="x")
            """
        )


class TestOutputFormats:
    def _dirty(self, tmp_path: Path) -> Path:
        target = tmp_path / "dirty.py"
        target.write_text("import time\nt = time.time()\n")
        return target

    def test_sarif_report(self, tmp_path, capsys):
        target = self._dirty(tmp_path)
        assert lint_main(["--format", "sarif", str(target)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_index = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "REP002" in rule_index
        result = run["results"][0]
        assert result["ruleId"] == "REP002"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == str(target)
        assert location["region"]["startLine"] == 2

    def test_github_annotations(self, tmp_path, capsys):
        target = self._dirty(tmp_path)
        assert lint_main(["--format", "github", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"::error file={target},line=2," in out
        assert "title=REP002::" in out

    def test_github_escapes_newlines(self):
        from repro.lint.cli import github_line
        from repro.lint.findings import Finding

        line = github_line(
            Finding(rule_id="REP999", path="a.py", line=1, col=1, message="x\ny%z")
        )
        assert "%0A" in line and "%25" in line and "\n" not in line
