"""Smoke tests for the example scripts.

Every example must at least import cleanly (no bit-rot against the
public API); the three fastest also run end to end.  Examples print a lot
— output is captured and sanity-checked, not asserted line by line.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesImport:
    def test_expected_examples_exist(self):
        for required in (
            "quickstart.py",
            "city_monitoring.py",
            "adaptive_overload.py",
            "fairness_tuning.py",
            "full_system.py",
        ):
            assert required in ALL_EXAMPLES

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_imports_and_has_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), f"{name} lacks main()"


class TestExamplesRun:
    def test_quickstart_runs(self, capsys):
        load_example("quickstart.py").main()
        out = capsys.readouterr().out
        assert "lira" in out
        assert "random-drop" in out

    def test_full_system_answers_a_snapshot_query_from_its_archive(self, capsys):
        load_example("full_system.py").main()
        out = capsys.readouterr().out
        match = re.search(r"Snapshot query .* (\d+) believed / ", out)
        assert match, out
        assert int(match.group(1)) > 0


class TestPackageEntryPoint:
    def test_python_dash_m_repro(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "LIRA" in out
        assert "experiments" in out
