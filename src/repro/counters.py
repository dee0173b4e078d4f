"""Named monotonic counts: the one counter shape in this library.

``c.name += n`` bumps a count (a misspelt name raises
``AttributeError``), ``c.snapshot()`` reads them all by name, and a
period is ``c.since(mark)`` over an earlier snapshot, never a second
set of counts reset by hand.  A part is a component's own
:class:`Counters`, kept where it bumps them; a snapshot flattens it
under its name (part ``gain``, count ``table_entries``:
``gain_table_entries``).  Imports nothing from ``repro``.
"""

from typing import TYPE_CHECKING


class Counters:
    """Named integer counts in the instance dict (see the module docstring)."""

    def __init__(self, *names: str, **parts: "Counters") -> None:
        self.__dict__.update(dict.fromkeys(names, 0), **parts)

    if TYPE_CHECKING:  # a count is any attribute, read and written as an int

        def __getattr__(self, name: str) -> int: ...

        def __setattr__(self, name: str, value: int) -> None: ...

    def snapshot(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, value in self.__dict__.items():
            if isinstance(value, Counters):
                out.update({f"{name}_{k}": v for k, v in value.snapshot().items()})
            else:
                out[name] = value
        return out

    def since(self, mark: dict[str, int]) -> dict[str, int]:
        """Each count minus its value in ``mark``, an earlier snapshot."""
        return {name: value - mark[name] for name, value in self.snapshot().items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Counters) and self.snapshot() == other.snapshot()

    def __repr__(self) -> str:
        return f"Counters({self.snapshot()})"
