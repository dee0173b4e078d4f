"""Tests for the whole-program layer: summaries, taint closure, execution.

The acceptance fixture from the issue lives here: a wall-clock read two
call hops away in another module must be flagged by REP002 at the call
site, while identical code routed through the ``repro.timing`` seam is
clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, run_paths
from repro.lint import engine
from repro.lint.engine import build_project, lint_source
from repro.lint.project import ProjectIndex, chain_text
from repro.lint.summaries import module_name_for, summarize_module


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


class TestExecution:
    """The engine picks serial or pooled execution itself; both give the
    same findings, and a small project never starts a pool."""

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

    def _run(self, root: Path):
        config = LintConfig(library_globs=("*",))
        findings, checked = run_paths([root], config=config)
        return sorted(f.format() for f in findings), checked

    def _project(self, tmp_path: Path) -> Path:
        """A project (``pyproject.toml`` + ``src/``) with a cross-module
        clock taint and one def nothing reads."""
        root = tmp_path / "tree"
        write_tree(root, {f"src/{name}": body for name, body in self.FILES.items()})
        (root / "pyproject.toml").write_text("")
        return root

    def test_pooled_equals_serial(self, tmp_path, monkeypatch):
        """REP002 through the taint closure and the REP015 census alike:
        the consumer reads reach the pool workers too."""
        root = self._project(tmp_path)
        monkeypatch.setattr(engine, "_pool_workers", lambda n_files: 1)
        serial = self._run(root / "src")
        monkeypatch.setattr(engine, "_pool_workers", lambda n_files: 2)
        pooled = self._run(root / "src")
        assert serial == pooled
        assert serial[1] == 3
        assert any("two.py" in line and "REP002" in line for line in serial[0])
        # ``stamp`` is read by two.py; nothing reads ``caller``.
        rep015 = [line for line in serial[0] if "REP015" in line]
        assert len(rep015) == 1 and "'caller'" in rep015[0]

    def test_small_project_never_starts_a_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a few-file project started a process pool")

        root = self._project(tmp_path)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        findings, checked = self._run(root / "src")
        assert checked == 3
        assert any("REP015" in line for line in findings)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_pool_only_with_files_and_cpus_to_spare(self, monkeypatch, cpus):
        monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
        monkeypatch.setattr("repro.parallel.usable_cpus", lambda: cpus)
        assert engine._pool_workers(engine._POOL_MIN_FILES - 1) == 1
        assert engine._pool_workers(engine._POOL_MIN_FILES) == (cpus if cpus > 1 else 1)


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

    def test_lazy_reexport_table_is_not_a_read(self, tmp_path):
        """A package ``__init__.py`` that re-exports on first access
        (PEP 562) names its exports in strings: like the eager re-import
        it replaces, that is an export list, not a read."""
        write_tree(tmp_path, {**self.PROJECT, "src/repro/__init__.py": '''
            _HOMES = {"repro.mod": ("docstring_only", "listed_only")}
            '''})
        assert self._flagged(tmp_path, "src") == [
            "docstring_only", "listed_only", "test_only",
        ]

    def test_package_init_registry_values_are_reads(self, tmp_path):
        """Only the strings of a package ``__init__.py``'s assignments are
        export lists: a registry there (``{"k": fn}``) reads ``fn``."""
        write_tree(tmp_path, {**self.PROJECT, "src/repro/__init__.py": '''
            from repro.mod import docstring_only

            REGISTRY = {"listed_only": docstring_only}
            '''})
        assert self._flagged(tmp_path, "src") == ["listed_only", "test_only"]

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
