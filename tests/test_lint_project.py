"""Tests for the whole-program layer: summaries, taint closure, cache.

The acceptance fixture from the issue lives here: a wall-clock read two
call hops away in another module must be flagged by REP002 at the call
site, while identical code routed through the ``repro.timing`` seam is
clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint import LintConfig, run_paths
from repro.lint.engine import build_project, lint_source
from repro.lint.project import ProjectIndex, SummaryCache, chain_text
from repro.lint.summaries import SUMMARY_VERSION
from repro.lint.summaries import (
    module_name_for,
    source_digest,
    summarize_module,
)


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, body in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body))


def project_of(root: Path, files: dict[str, str]) -> ProjectIndex:
    write_tree(root, files)
    sources = [
        (str(root / name), (root / name).read_text()) for name in sorted(files)
    ]
    return build_project(sources)


class TestModuleNames:
    def test_real_package_walks_init_files(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        assert module_name_for(pkg / "mod.py") == "pkg.sub.mod"

    def test_textual_fallback_strips_src_prefix(self):
        assert module_name_for("src/repro/core/greedy.py") == "repro.core.greedy"
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_bare_stem_for_loose_files(self, tmp_path):
        loose = tmp_path / "a.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "a"


class TestSummaries:
    def test_clock_and_blocking_taints(self, tmp_path):
        path = tmp_path / "m.py"
        source = textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()

            def nap():
                time.sleep(1.0)
            """
        )
        path.write_text(source)
        summary = summarize_module(path, source)
        assert summary.functions["m.stamp"].direct == {"clock": "time.time"}
        assert summary.functions["m.nap"].direct == {"blocks": "time.sleep"}

    def test_executor_reference_recorded_separately(self, tmp_path):
        path = tmp_path / "m.py"
        source = textwrap.dedent(
            """
            import asyncio
            import time

            async def pump():
                await asyncio.to_thread(time.sleep, 0.1)
            """
        )
        path.write_text(source)
        fn = summarize_module(path, source).functions["m.pump"]
        assert fn.is_async
        assert "time.sleep" in fn.executor_calls
        assert "time.sleep" not in fn.calls

    def test_round_trips_through_dict(self, tmp_path):
        path = tmp_path / "m.py"
        source = "import time\n\ndef f():\n    return time.monotonic()\n"
        path.write_text(source)
        summary = summarize_module(path, source)
        from repro.lint.summaries import ModuleSummary

        assert ModuleSummary.from_dict(summary.to_dict()) == summary


class TestTaintClosure:
    def test_two_hop_chain_with_witness(self, tmp_path):
        index = project_of(
            tmp_path,
            {
                "c.py": """
                    import time

                    def deep():
                        return time.time()
                    """,
                "b.py": """
                    from c import deep

                    def helper():
                        return deep()
                    """,
            },
        )
        taints = index.taints_of("b", "helper")
        assert chain_text(taints["clock"]) == "c.deep -> time.time"

    def test_blocks_does_not_cross_executor_seam(self, tmp_path):
        index = project_of(
            tmp_path,
            {
                "w.py": """
                    import asyncio
                    import time

                    def worker():
                        time.sleep(1.0)

                    async def defer():
                        await asyncio.to_thread(worker)
                    """,
            },
        )
        assert "blocks" in index.taints_of("w", "worker")
        assert "blocks" not in index.taints_of("w", "defer")

    def test_constructor_resolves_to_init(self, tmp_path):
        index = project_of(
            tmp_path,
            {
                "k.py": """
                    import time

                    class Timer:
                        def __init__(self):
                            self.t0 = time.monotonic()

                    def build():
                        return Timer()
                    """,
            },
        )
        assert "clock" in index.taints_of("k", "build")


class TestCrossModuleLinting:
    """The issue's acceptance fixture: two hops, another module."""

    FILES = {
        "deep_mod.py": """
            import time

            def read_clock():
                return time.time()
            """,
        "mid_mod.py": """
            from deep_mod import read_clock

            def helper():
                return read_clock()
            """,
        "top_mod.py": """
            from mid_mod import helper

            def entry():
                return helper()
            """,
    }

    def test_two_hop_clock_read_flagged_at_call_site(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        # library_globs match the temp tree so the rules treat it as
        # library code.
        config = LintConfig(library_globs=("*",))
        findings, checked = run_paths([tmp_path], config=config)
        assert checked == 3
        by_file = {Path(f.path).name: f for f in findings}
        top = by_file["top_mod.py"]
        assert top.rule_id == "REP002"
        assert "mid_mod.helper -> deep_mod.read_clock -> time.time" in top.message

    def test_timing_seam_absorbs_the_chain(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/timing.py": """
                    import time

                    def monotonic():
                        return time.monotonic()
                    """,
                "caller.py": """
                    from timing import monotonic

                    def entry():
                        return monotonic()
                    """,
            },
        )
        config = LintConfig(library_globs=("*",))
        findings, _ = run_paths([tmp_path], config=config)
        # The seam file itself is allowlisted and its callers absorb
        # the taint: nothing anywhere.
        assert [f.format() for f in findings] == []


class TestParallelAndCache:
    FILES = {
        "one.py": """
            import time

            def stamp():
                return time.time()
            """,
        "two.py": """
            from one import stamp

            def caller():
                return stamp()
            """,
        "three.py": "x = 1\n",
    }

    def _run(self, root: Path, **kwargs):
        config = LintConfig(library_globs=("*",))
        findings, checked = run_paths([root], config=config, **kwargs)
        return sorted(f.format() for f in findings), checked

    def test_jobs_and_cache_do_not_change_findings(self, tmp_path):
        """REP002 and the REP015 census alike: the tree is a project
        (``pyproject.toml`` + ``src/``), so the consumer reads are cached
        and shipped to the pool workers too."""
        root = tmp_path / "tree"
        write_tree(root, {f"src/{name}": body for name, body in self.FILES.items()})
        (root / "pyproject.toml").write_text("")
        cache_dir = tmp_path / "cache"
        serial = self._run(root / "src")
        parallel = self._run(root / "src", jobs=2)
        cold_cache = self._run(root / "src", cache_dir=cache_dir)
        warm_cache = self._run(root / "src", cache_dir=cache_dir)
        assert serial == parallel == cold_cache == warm_cache
        assert serial[1] == 3
        assert any("REP002" in line for line in serial[0])
        # ``stamp`` is read by two.py; nothing reads ``caller``.
        rep015 = [line for line in serial[0] if "REP015" in line]
        assert len(rep015) == 1 and "'caller'" in rep015[0]

    def test_cache_hits_on_second_build(self, tmp_path):
        write_tree(tmp_path / "tree", self.FILES)
        sources = [
            (str(p), p.read_text()) for p in sorted((tmp_path / "tree").glob("*.py"))
        ]
        cache = SummaryCache(tmp_path / "cache")
        build_project(sources, cache=cache)
        assert cache.hits == 0 and cache.misses == len(sources)
        cache2 = SummaryCache(tmp_path / "cache")
        build_project(sources, cache=cache2)
        assert cache2.hits == len(sources) and cache2.misses == 0

    def test_edit_invalidates_only_the_changed_file(self, tmp_path):
        root = tmp_path / "tree"
        write_tree(root, self.FILES)
        cache_dir = tmp_path / "cache"
        before, _ = self._run(root, cache_dir=cache_dir)
        assert not any("three.py" in line for line in before)
        # Introduce a violation into the previously-clean file; the
        # digest changes, so the stale cached summary cannot mask it.
        (root / "three.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        after, _ = self._run(root, cache_dir=cache_dir)
        assert any("three.py" in line and "REP002" in line for line in after)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        root = tmp_path / "tree"
        write_tree(root, self.FILES)
        cache_dir = tmp_path / "cache"
        self._run(root, cache_dir=cache_dir)
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{not json")
        findings, checked = self._run(root, cache_dir=cache_dir)
        assert checked == 3
        assert any("REP002" in line for line in findings)

    def test_entry_written_at_the_previous_version_misses(self, tmp_path):
        """Summaries carry the module's reads since version 2; an entry
        from before (no reads) must be recomputed, not trusted."""
        write_tree(tmp_path / "tree", self.FILES)
        sources = [
            (str(p), p.read_text()) for p in sorted((tmp_path / "tree").glob("*.py"))
        ]
        build_project(sources, cache=SummaryCache(tmp_path / "cache"))
        for entry in (tmp_path / "cache").glob("*.json"):
            data = json.loads(entry.read_text())
            data["version"] = SUMMARY_VERSION - 1
            del data["reads"]
            entry.write_text(json.dumps(data))
        cache = SummaryCache(tmp_path / "cache")
        project = build_project(sources, cache=cache)
        assert cache.hits == 0 and cache.misses == len(sources)
        assert "stamp" in project.modules["two"].reads

    def test_digest_mixes_module_and_version(self):
        assert source_digest("a", "x = 1\n") != source_digest("b", "x = 1\n")


class TestLintFileUsesSingleFileProject:
    def test_intra_file_interprocedural_findings(self):
        source = textwrap.dedent(
            """
            import time

            def helper():
                return time.time()

            def caller():
                return helper()
            """
        )
        config = LintConfig(library_globs=("*",))
        findings = lint_source(source, path="solo.py", config=config)
        assert [f.rule_id for f in findings] == ["REP002", "REP002"]


class TestConsumerCensus:
    """REP015 over a project: consumers are found from ``pyproject.toml``,
    not from the paths being linted."""

    PROJECT = {
        "pyproject.toml": "",
        "src/repro/__init__.py": """
            from repro.mod import docstring_only, listed_only
            """,
        "src/repro/mod.py": '''
            """Helpers; ``docstring_only`` is only ever named here."""

            __all__ = ["listed_only"]

            def used_in_src():
                return 0

            def read_by_bench():
                return 1

            def read_by_oracle():
                return 2

            def read_by_benchmarks():
                return 3

            def docstring_only():
                return 4

            def listed_only():
                return 5

            def test_only():
                return 6

            def main():
                return used_in_src()
            ''',
        "bench/run.py": """
            from repro.mod import read_by_bench

            read_by_bench()
            """,
        "tests/oracles/ref.py": """
            from repro.mod import read_by_oracle

            read_by_oracle()
            """,
        "tests/test_mod.py": """
            from repro.mod import test_only

            def test_it():
                assert test_only() == 6
            """,
        "benchmarks/test_speed.py": """
            from repro.mod import read_by_benchmarks

            def test_speed():
                read_by_benchmarks()
            """,
        "scripts/run.py": """
            from repro.mod import main

            main()
            """,
        "examples/demo.py": "x = 1\n",
    }

    @staticmethod
    def _flagged(root: Path, *paths: str) -> list[str]:
        config = LintConfig(select=frozenset({"REP015"}))
        findings, _ = run_paths([root / p for p in paths], config=config)
        return sorted(f.message.split("'")[1] for f in findings)

    def test_reads_in_bench_and_oracles_count(self, tmp_path):
        write_tree(tmp_path, self.PROJECT)
        flagged = self._flagged(tmp_path, "src")
        assert "read_by_bench" not in flagged
        assert "read_by_oracle" not in flagged
        assert "read_by_benchmarks" not in flagged and "main" not in flagged

    def test_docstring_all_and_other_tests_are_not_reads(self, tmp_path):
        write_tree(tmp_path, self.PROJECT)
        assert self._flagged(tmp_path, "src") == [
            "docstring_only", "listed_only", "test_only",
        ]

    def test_src_alone_matches_the_ci_path_set(self, tmp_path):
        write_tree(tmp_path, self.PROJECT)
        ci = self._flagged(tmp_path, "src", "tests", "scripts", "benchmarks", "examples")
        assert ci == self._flagged(tmp_path, "src")
        assert self._flagged(tmp_path, "src/repro/mod.py") == ci

    def test_snippet_without_a_project_never_reports(self, tmp_path):
        write_tree(tmp_path, self.PROJECT)
        path = tmp_path / "src/repro/mod.py"
        findings = lint_source(path.read_text(), path=str(path))
        assert [f for f in findings if f.rule_id == "REP015"] == []
        assert self._flagged(tmp_path, "src")  # the same file in its project does
