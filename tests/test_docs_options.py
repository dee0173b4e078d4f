"""DESIGN.md §8 "Options, before → after" states the code's option counts.

The last column of that table is the number of constructor parameters
(fields, for a dataclass) each named class has now; an added or removed
knob fails here until the table says so.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import repro.core
import repro.server
import repro.service
import repro.trace

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
PACKAGES = (repro.core, repro.server, repro.service, repro.trace)


def test_options_table_matches_the_signatures():
    table = DESIGN.read_text().split("**Options, before → after.**")[1].split("\n\n")[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    counts = {
        name.group(1): int(row[-1])
        for row in rows
        if (name := re.fullmatch(r"`(\w+)`", row[0])) and row[-1].isdigit()
    }
    assert {"LiraSystem", "ShardRouter", "LiraService", "ServiceConfig"} <= counts.keys()
    assert int(rows[-1][-1].strip("*")) == sum(counts.values()), "the total row is stale"
    for name, documented in counts.items():
        cls = next(getattr(pkg, name) for pkg in PACKAGES if hasattr(pkg, name))
        if dataclasses.is_dataclass(cls):
            actual = len(dataclasses.fields(cls))
        else:
            actual = len(inspect.signature(cls).parameters)
        assert actual == documented, f"{name}: DESIGN.md says {documented}, code has {actual}"
