"""Determinism rules: the same seed and spec must give identical bits.

Everything downstream — scenarios rebuilt from their spec, pool-vs-serial
equivalence, the fault-injection regression suite — assumes simulation
output is a pure function of ``(spec, seed)``.  These rules flag the
classic ways that promise quietly breaks: unseeded or global-state RNGs,
wall-clock reads, iteration over unordered containers, and environment
variables steering library behavior.

REP001/REP002/REP004 are *interprocedural*: alongside the direct
primitive reference, each also fires on any call whose callee —
resolved through the project index — transitively performs the effect.
A helper that reads ``time.time()`` three modules away is flagged at
every reachable call site, with the witness chain in the message.
Routing through a seam module (``repro.timing`` for clocks, the
CLI/sanitizer modules for the environment) absorbs the taint; see
:mod:`repro.lint.project`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import knowledge
from repro.lint.engine import FileContext
from repro.lint.findings import Finding
from repro.lint.project import chain_text
from repro.lint.registry import Rule, register

_NP_LEGACY = knowledge.NP_LEGACY_GLOBAL_FNS
_STDLIB_RANDOM = knowledge.STDLIB_RANDOM_FNS
_RNG_CONSTRUCTORS = knowledge.RNG_CONSTRUCTORS
_CLOCKS = knowledge.CLOCK_READS
_ENV_READS = knowledge.ENV_READS


@register
class UnseededRng(Rule):
    """Unseeded RNG construction or global-state random APIs.

    ``np.random.default_rng()`` without a seed draws OS entropy; the
    legacy ``np.random.*`` / ``random.*`` module functions mutate
    process-wide state that any import can perturb.  Every RNG in
    library code must be a generator constructed from an explicit seed
    (or be passed one, like the trace engines do).  Calls into project
    functions that transitively draw unseeded randomness are flagged
    too.
    """

    id = "REP001"
    name = "unseeded-rng"
    summary = "unseeded default_rng()/Random() or global np.random/random call"
    library_only = True
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        qualname = ctx.resolve(node.func)
        if qualname is None:
            yield from self._check_transitive(node, ctx)
            return
        if qualname in _RNG_CONSTRUCTORS:
            seeded = bool(node.args or node.keywords)
            if node.args and isinstance(node.args[0], ast.Constant):
                seeded = node.args[0].value is not None
            if not seeded:
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname}() without a seed draws OS entropy; pass an "
                    "explicit seed so runs are reproducible",
                )
            return
        prefix, _, tail = qualname.rpartition(".")
        if prefix == "numpy.random" and tail in _NP_LEGACY:
            yield self.finding(
                ctx,
                node,
                f"numpy.random.{tail} uses numpy's global RNG state; use a "
                "seeded np.random.default_rng(seed) generator instead",
            )
        elif (
            prefix == "random"
            and tail in _STDLIB_RANDOM
            and ctx.imports.get("random") == "random"
        ):
            yield self.finding(
                ctx,
                node,
                f"random.{tail} uses the shared module-level RNG; use a "
                "seeded random.Random(seed) (or numpy generator) instead",
            )
        else:
            yield from self._check_transitive(node, ctx)

    def _check_transitive(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        chain = ctx.project_taints(node).get("rng")
        if chain is not None:
            yield self.finding(
                ctx,
                node,
                "call reaches an unseeded/global RNG draw "
                f"({chain_text(chain)}); thread an explicit seeded generator "
                "through instead",
            )


@register
class WallClockRead(Rule):
    """Wall-clock reads outside the timing-harness seam.

    A clock read in simulation or algorithm code makes output depend on
    the host's scheduler.  All timing goes through
    :mod:`repro.timing` (re-exported by ``repro.metrics.cost``), the one
    allowlisted module; everything else must take durations as data.
    Calls to project functions that transitively read a clock are
    flagged at the call site with the witness chain — unless the chain
    passes through the timing seam, which absorbs it.
    """

    id = "REP002"
    name = "wall-clock-read"
    summary = "wall-clock read outside the repro.timing harness"
    default_allow = knowledge.CLOCK_SEAM_PATHS
    node_types = (ast.Attribute, ast.Name, ast.Call)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            chain = ctx.project_taints(node).get("clock")
            if chain is not None:
                yield self.finding(
                    ctx,
                    node,
                    "call reaches a wall-clock read outside the timing "
                    f"harness ({chain_text(chain)}); route through "
                    "repro.timing instead",
                )
            return
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Load):
                return
            qualname = ctx.from_imports.get(node.id)
        else:
            assert isinstance(node, ast.Attribute)
            qualname = ctx.resolve(node)
        if qualname in _CLOCKS:
            yield self.finding(
                ctx,
                node,
                f"{qualname} read outside the timing harness; route through "
                "repro.timing.Stopwatch",
            )


def _is_set_expr(node: ast.AST, ctx: FileContext, _depth: int = 0) -> bool:
    """True when ``node`` statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, ctx, _depth) or _is_set_expr(
            node.right, ctx, _depth
        )
    if isinstance(node, ast.Name) and _depth < 4:
        value = ctx.local_value(node.id)
        if value is not None and value is not node:
            return _is_set_expr(value, ctx, _depth + 1)
    return False


@register
class UnorderedIteration(Rule):
    """Iterating a set where the order can leak into output.

    Set iteration order depends on insertion history and — for strings
    — on per-process hash randomization, so any ordered artifact built
    from it (lists, files, report rows) can differ between runs.  Sort
    first (``sorted(...)`` with an explicit key) or keep insertion
    order with a dict.  Dict/dict-view iteration is insertion-ordered
    in Python 3.7+ and is deliberately not flagged.
    """

    id = "REP003"
    name = "unordered-iteration"
    summary = "iteration over a set feeds order-sensitive output"
    node_types = (ast.For, ast.comprehension, ast.Call)

    #: Callables that materialize their argument's iteration order.
    _ORDERING_SINKS = ("list", "tuple", "enumerate", "iter", "next")

    #: Reducers whose result does not depend on iteration order: a
    #: comprehension consumed directly by one of these is safe.
    _ORDER_INSENSITIVE = (
        "any", "all", "sum", "max", "min", "len", "sorted", "set",
        "frozenset", "math.fsum",
    )

    def _in_order_insensitive_sink(self, ctx: FileContext) -> bool:
        """True when the visited comprehension feeds an unordered reducer."""
        if not ctx.stack:
            return False
        owner = ctx.stack[-1]  # the GeneratorExp/ListComp/SetComp/DictComp
        if isinstance(owner, ast.SetComp):
            return True  # a set built from a set stays unordered
        if isinstance(owner, (ast.GeneratorExp, ast.ListComp)) and len(ctx.stack) > 1:
            call = ctx.stack[-2]
            return (
                isinstance(call, ast.Call)
                and bool(call.args)
                and call.args[0] is owner
                and ctx.resolve(call.func) in self._ORDER_INSENSITIVE
            )
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node, ast.comprehension) and self._in_order_insensitive_sink(
                ctx
            ):
                return
            iterable = node.iter
            if _is_set_expr(iterable, ctx):
                yield self.finding(
                    ctx,
                    iterable,
                    "iterating a set: the order is not deterministic across "
                    "runs; wrap in sorted(...) or use an insertion-ordered "
                    "dict",
                )
        elif isinstance(node, ast.Call):
            if (
                ctx.resolve(node.func) in self._ORDERING_SINKS
                and node.args
                and _is_set_expr(node.args[0], ctx)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "materializing a set's iteration order; wrap in "
                    "sorted(...) before building ordered output",
                )


@register
class EnvironRead(Rule):
    """``os.environ`` reads outside the documented configuration seams.

    Environment variables are invisible inputs: two runs of the same
    command can differ without any change to spec or seed.  Only CLI
    entry points and the opt-in runtime sanitizer switches may consult
    them; library code takes parameters.  Calls into project functions
    that transitively read the environment are flagged too.
    """

    id = "REP004"
    name = "environ-read"
    summary = "os.environ access outside CLI entry points and sanitize/"
    library_only = True
    default_allow = knowledge.ENV_SEAM_PATHS
    node_types = (ast.Attribute, ast.Name, ast.Call)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            chain = ctx.project_taints(node).get("env")
            if chain is not None:
                yield self.finding(
                    ctx,
                    node,
                    "call reaches an os.environ access outside the config "
                    f"seams ({chain_text(chain)}); pass explicit parameters "
                    "instead",
                )
            return
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Load):
                return
            qualname = ctx.from_imports.get(node.id)
        else:
            assert isinstance(node, ast.Attribute)
            qualname = ctx.resolve(node)
        if qualname in _ENV_READS:
            yield self.finding(
                ctx,
                node,
                f"{qualname} accessed outside the config seams "
                "(__main__ entry points, repro.sanitize); pass explicit "
                "parameters instead",
            )
