"""The calibrated performance harness (see README.md in this directory).

Five workloads through the real stack, eight end-to-end metrics each, and
a per-layer budget from spans recorded around the layers' public entry
points. ``BENCHMARK.json`` at the repository root is the specification:
metric names, units, directions and bounds are read from it, never
repeated here.
"""
