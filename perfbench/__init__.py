"""End-to-end benchmark of the PerPos reproduction, with a layer trace.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
modules split the benchmark into seeded input generation (``inputs``),
the programs under test and their closed-loop replays (``programs``),
the outside-in span tracer (``spans``) and the statistics rules
(``stats``).
"""
