"""Static analysis for the determinism contract.

Two halves:

* :mod:`repro.analysis.linter` — a lint framework with registered rules
  (``RPR001``...) that prove, at parse time, the disciplines the test
  suite can only spot-check: no unseeded RNGs, no stray wall-clock
  reads, no unregistered telemetry kinds, no hash-ordered accounting,
  no config read outside the cache key, no shared state or unpicklable
  capture behind a shard fan-out.  One pass: each file is parsed once
  and every rule runs over the same whole-program index.
* :mod:`repro.analysis.flowcheck` — deep structural checks over
  :class:`~repro.core.dataflow.DataFlow` graphs (``FLW001``...): named
  cycles, dangling datasets, volume-conservation bounds, transport site
  consistency, and unit-checked volume declarations.

Run both from the command line::

    python -m repro.analysis src/            # lint (exit 1 on findings)
    python -m repro.analysis --flowcheck src/  # lint + figure flow checks
"""
