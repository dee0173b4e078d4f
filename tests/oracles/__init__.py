"""Reference implementations the runtime kernels are validated against.

Every module here is the readable, per-element form of an algorithm
whose only runtime implementation under ``src/`` is the array form:
the scalar GREEDYINCREMENT heap loop, per-node CALCERRGAIN/GRIDREDUCE,
the per-``MobileNode`` systems loop with its per-message bounded queue,
the node engine's every-row threshold gather, the per-``Vehicle``
trace loop, the churning-workload loop ``Simulation`` absorbed, and the
one-node dead-reckoning tracker.  The equivalence suites call them
directly; nothing under ``src/`` imports them.
"""
