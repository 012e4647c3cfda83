"""Experiment harness: one function per paper table/figure.

Each experiment builds matched "Base" (vanilla) and "SS" (scan sharing)
database instances, runs the same workload on both, and returns a typed
result object whose ``metrics()`` is the JSON-safe dict the runner
caches and digests and whose ``render()`` reproduces the corresponding
table or figure as text.  EXPERIMENTS.md records paper-vs-measured for
each.

Import what you need from the submodules: ``harness`` (settings,
``run_mode``), ``experiments``/``policies``/``striped``/``aggregation``
(the experiment functions), ``registry`` (ids) and ``runner`` (suites).
"""
