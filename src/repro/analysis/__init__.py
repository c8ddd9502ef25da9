"""Static analysis: ``repro analyze``.

One tool enforces the conventions the reproduction's correctness claims
rest on — bit-identical seeded runs, paper-faithful welfare numbers,
crash-safe distributed state.  It parses a package once and runs two
kinds of rules over it:

* **per-file ``RPL`` rules** (:mod:`repro.analysis.rules`) — one module
  at a time: seeded determinism, no wall clock, protocol purity, the
  stable event merge, float comparisons, shared mutables, swallowed
  errors, fork safety, no print in experiments, supervised retries,
  event-kind constants.  Loose files outside the package
  (``benchmarks/``, ``examples/``) get these only.
* **whole-program ``RPA`` checks** (:mod:`repro.analysis.checkers`) —
  over a module + call graph and a fixed-point effect inference
  (unseeded RNG, wall clock, set-iteration order, raw vs. atomic
  filesystem writes, dynamic calls): RPA001 determinism boundary,
  RPA002 durability, RPA003/RPA004 trace-schema drift.  Findings print
  the full inter-procedural propagation path.

Which callee is an unseeded RNG or a clock read is decided once, in
:mod:`repro.analysis.effects`: the per-file RPL001/RPL002 rules and
RPA001 classify through the same tables.

Suppressions are ``# repro-lint: ignore[CODE]`` comments (see
:mod:`repro.analysis.suppressions`).  Product modules import the
runtime-no-op ``declared_effects`` marker from
:mod:`repro.analysis.annotations` only, so they never load the analyzer
itself.  See ``docs/static_analysis.md``.
"""
