"""perfbench: absolute, layer-attributed benchmark for the three flows.

Lives outside ``src/`` on purpose: every layer is measured from outside,
by timing calls into its public functions.  See ``perfbench/README.md``.
"""
