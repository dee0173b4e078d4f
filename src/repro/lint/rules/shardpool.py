"""Shard & pool rules: work crossing process boundaries stays pure.

The sweep engine (:mod:`repro.experiments.runner`) fans whole
simulations over a process pool, and the sharded deployment
(:mod:`repro.server.system`) merges per-shard results in one process.
A job callable that mutates module globals diverges between
in-process and spawned execution (REP050); a reduction helper that
iterates shard-keyed containers unordered makes merge results depend on
insertion history (REP051, the interprocedural face of REP031); and an
unpicklable object anywhere in a pool call's *arguments* — not just the
callable slot REP030 guards — explodes only under spawn (REP052).

Pool ``initializer=`` callables are deliberately exempt from REP050:
installing per-worker module globals is exactly what an initializer is
for (each process owns its copy), and the sweep engine uses that
sanctioned pattern.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext
from repro.lint.findings import Finding
from repro.lint.project import chain_text
from repro.lint.registry import Rule, register
from repro.lint.rules.pools import _POOL_METHODS, _is_pool, _unpicklable


def _pool_job_call(node: ast.Call, ctx: FileContext) -> ast.Attribute | None:
    """The ``pool.method`` attribute when ``node`` ships work to a pool."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _POOL_METHODS
        and _is_pool(func.value, ctx)
        and node.args
    ):
        return func
    return None


@register
class PoolWorkerGlobalMutation(Rule):
    """Job callable that (transitively) mutates module-global state."""

    id = "REP050"
    name = "pool-worker-global-mutation"
    summary = "pool job callable mutates module globals"
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if _pool_job_call(node, ctx) is None or ctx.project is None:
            return
        job = node.args[0]
        if not isinstance(job, (ast.Name, ast.Attribute)):
            return
        taints = ctx.project.taints_of(ctx.module_name, ctx.resolve(job))
        chain = taints.get("global_mutation")
        if chain is not None:
            yield self.finding(
                ctx,
                job,
                "pool job callable mutates module-global state "
                f"({chain_text(chain)}): workers diverge from in-process "
                "runs; return results and merge in the parent (per-worker "
                "state belongs in the pool initializer)",
            )


@register
class UnorderedCrossShardReduce(Rule):
    """Call into a helper that iterates shard maps unordered.

    REP031 flags the iteration at its definition; this rule carries the
    taint across module boundaries so the *reduction call site* is
    flagged even when the unordered combine lives elsewhere.  Same-file
    callees are left to REP031 to avoid double reports.
    """

    id = "REP051"
    name = "unordered-cross-shard-reduce"
    summary = "cross-module call reaches unordered shard iteration"
    library_only = True
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if ctx.project is None:
            return
        callee = ctx.resolve_call(node)
        chain = ctx.project.taints_of(ctx.module_name, callee).get("shard_iter")
        if chain is None:
            return
        if ctx.project.defining_module(ctx.module_name, callee) == ctx.module_name:
            return
        yield self.finding(
            ctx,
            node,
            "call reaches unordered iteration over a shard-keyed container "
            f"({chain_text(chain)}); combine shard results in sorted shard-id "
            "order so floating-point reduction order is fixed",
        )


@register
class UnpicklablePoolArgument(Rule):
    """Lambda/closure anywhere in a pool call's argument payload.

    REP030 guards the callable slot; this rule covers the rest of the
    payload — positional arguments, keywords, and callables tucked
    inside ``functools.partial(...)`` — all of which must pickle to
    reach a spawned worker.
    """

    id = "REP052"
    name = "unpicklable-pool-argument"
    summary = "unpicklable object in pool call arguments"
    node_types = (ast.Call,)

    _PARTIALS = ("functools.partial", "partial")

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        method = _pool_job_call(node, ctx)
        if method is None:
            return
        payload = list(node.args[1:]) + [kw.value for kw in node.keywords]
        for expr in payload:
            yield from self._flag_unpicklable(expr, method.attr, ctx)

    def _flag_unpicklable(
        self, expr: ast.expr, method: str, ctx: FileContext
    ) -> Iterator[Finding]:
        if _unpicklable(expr, ctx):
            kind = "lambda" if isinstance(expr, ast.Lambda) else "nested function"
            yield self.finding(
                ctx,
                expr,
                f"{kind} in {method}() arguments does not pickle under the "
                "spawn start method; pass module-level callables and plain "
                "data across the pool seam",
            )
            return
        if isinstance(expr, ast.Call) and ctx.resolve(expr.func) in self._PARTIALS:
            for sub in list(expr.args) + [kw.value for kw in expr.keywords]:
                yield from self._flag_unpicklable(sub, method, ctx)
