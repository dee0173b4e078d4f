"""Paper-invariant rules: LIRA's Δ-bounds, fairness, and policy surface.

The paper's contract for any shedding plan is Δ⊢ ≤ Δᵢ ≤ Δ⊣ with
``max Δᵢ − min Δᵢ ≤ Δ⇔`` (fairness).  Two seams enforce it at runtime:
``greedy_increment`` (which constructs thresholds inside the bounds) and
``clamp_thresholds`` (which projects hand-built thresholds into them).
These rules make sure no plan construction bypasses those seams, and
that everything quacking like a shedding policy declares the common
interface the experiment harness dispatches on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Callables whose result satisfies the Δ-bound/fairness invariants.
_BLESSED_PRODUCERS = ("greedy_increment", "clamp_thresholds")


def _producer_name(node: ast.AST, ctx: FileContext) -> str | None:
    """The blessed producer behind a call expression, if any."""
    if isinstance(node, ast.Call):
        qualname = ctx.resolve(node.func)
        if qualname is not None and qualname.rpartition(".")[2] in _BLESSED_PRODUCERS:
            return qualname.rpartition(".")[2]
    return None


def _is_blessed_thresholds(node: ast.AST, ctx: FileContext, depth: int = 0) -> bool:
    """True when the thresholds expression routes through a blessed seam.

    Recognized shapes (following simple local assignments):

    * ``clamp_thresholds(...)`` directly;
    * ``greedy_increment(...).thresholds``;
    * ``result.thresholds`` where ``result = greedy_increment(...)``;
    * a name bound to any of the above.
    """
    if depth > 4:
        return False
    if _producer_name(node, ctx) is not None:
        return True
    if isinstance(node, ast.Attribute) and node.attr == "thresholds":
        base = node.value
        if _producer_name(base, ctx) is not None:
            return True
        if isinstance(base, ast.Name):
            value = ctx.local_value(base.id)
            if value is not None and _producer_name(value, ctx) is not None:
                return True
        return False
    if isinstance(node, ast.Name):
        value = ctx.local_value(node.id)
        if value is not None and value is not node:
            return _is_blessed_thresholds(value, ctx, depth + 1)
    return False


@register
class UnclampedPlanConstruction(Rule):
    """Plan built without the Δ-bound / fairness clamping seam.

    ``SheddingPlan.from_regions`` validates raster alignment but trusts
    its thresholds; handing it raw numbers skips the Δ⊢/Δ⊣ domain and
    Δ⇔ fairness guarantees every consumer (the simulator, the broadcast
    layer) relies on.  Thresholds must come from
    ``greedy_increment(...)`` or be projected with
    ``clamp_thresholds(...)``; the bare ``SheddingPlan(...)``
    constructor is reserved for ``repro.core.plan`` itself.
    """

    id = "REP020"
    name = "unclamped-plan"
    summary = "plan thresholds bypass greedy_increment/clamp_thresholds"
    library_only = True
    default_allow = ("*/repro/core/plan.py",)
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "SheddingPlan":
            yield self.finding(
                ctx,
                node,
                "direct SheddingPlan(...) construction skips raster and "
                "threshold validation; build plans via "
                "SheddingPlan.from_regions(...)",
            )
            return
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "from_regions"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("SheddingPlan", "cls")
        ):
            return
        thresholds = next(
            (kw.value for kw in node.keywords if kw.arg == "thresholds"),
            node.args[2] if len(node.args) > 2 else None,
        )
        if thresholds is None or _is_blessed_thresholds(thresholds, ctx):
            return
        yield self.finding(
            ctx,
            thresholds,
            "thresholds handed to SheddingPlan.from_regions without the "
            "clamping seam; route them through greedy_increment(...) or "
            "clamp_thresholds(...) so Δ⊢ ≤ Δᵢ ≤ Δ⊣ and the fairness "
            "spread hold",
        )


@register
class UndeclaredPolicyInterface(Rule):
    """A shedding-policy lookalike that skips the common interface.

    Classes implementing both ``adapt`` and ``thresholds_for`` are
    policies in every way that matters to the experiment harness — but
    unless they subclass :class:`repro.shedding.policy.SheddingPolicy`
    they silently miss the shared surface (``admission_fraction``,
    ``describe``, the ``name``/``alpha`` declarations) the harness and
    the systems loop dispatch on.
    """

    id = "REP021"
    name = "undeclared-policy"
    summary = "policy-shaped class does not subclass SheddingPolicy"
    library_only = True
    node_types = (ast.ClassDef,)

    _EXEMPT_BASES = {"ABC", "Protocol", "SheddingPolicy"}

    def check(self, node: ast.ClassDef, ctx: FileContext) -> Iterator[Finding]:
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not {"adapt", "thresholds_for"} <= methods:
            return
        base_names = set()
        for base in node.bases:
            qualname = ctx.resolve(base)
            if qualname is not None:
                base_names.add(qualname.rpartition(".")[2])
        if node.name == "SheddingPolicy" or base_names & self._EXEMPT_BASES:
            return
        if any(name.endswith("Policy") for name in base_names):
            return  # subclass of a concrete policy inherits the interface
        yield self.finding(
            ctx,
            node,
            f"class {node.name} implements adapt()/thresholds_for() but "
            "does not subclass repro.shedding.policy.SheddingPolicy; "
            "declare the common policy interface",
        )
