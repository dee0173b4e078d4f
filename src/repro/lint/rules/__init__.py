"""Rule modules; importing this package registers every rule.

Rule families:

* ``determinism`` — REP001-REP004: seeded randomness, wall-clock reads,
  unordered iteration, environment reads.
* ``numeric`` — REP010-REP011: float equality, mutable defaults.
* ``imports`` — REP012: module-level imports the module never reads.
* ``invariants`` — REP020-REP021: the paper's Δ-bound/fairness clamping
  seam and the shedding-policy interface.
* ``pools`` — REP030: picklability of process-pool callables.
* ``sharding`` — REP031: ordered iteration over shard-keyed containers.
* ``async_rules`` — REP040-REP043: blocking calls on the event loop,
  unawaited coroutines, unobserved tasks, awaits under sync locks.
* ``shardpool`` — REP050-REP052: pool workers mutating globals,
  cross-module unordered shard reduction, unpicklable pool payloads.
* ``meta`` — REP000 (unused suppression), REP999 (parse failure).
"""

from repro.lint.rules import (  # noqa: F401 - imported for registration
    async_rules,
    determinism,
    imports,
    invariants,
    meta,
    numeric,
    pools,
    sharding,
    shardpool,
)
