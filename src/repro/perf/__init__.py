"""Cost models, the trace layer and its report, behind the benchmark
harnesses.  Import the submodules directly: the OT and GC layers import
:mod:`repro.perf.trace`, and that must not load the cost model and,
through it, the whole protocol."""
