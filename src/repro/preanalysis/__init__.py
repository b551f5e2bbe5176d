"""Flow-insensitive whole-program pre-analysis (PR: resolution &
reachability).

Three cooperating passes that run between parsing and lowering, in the
spirit of JSAI's cheap specialization pre-passes. Resolution and
pruning read one walk of the parsed files
(:func:`repro.lint.surface.scan_programs`), the same one that feeds the
prefilter and the node count:

- **computed-property resolution** — a constant-string lattice over
  :mod:`repro.domains.stringset` resolves ``obj[k]`` sites to finite
  name sets where provable, so the relevance prefilter only refuses on
  the truly dynamic residue;
- **points-to / call graph** — Andersen-style name-binding constraints
  give a callee set per call site and an entry-reachable function set
  (lint rules CG001/CG002, ``vet --explain``; built on demand, never
  while vetting);
- **sound pruning** — top-level functions no live code references are
  removed before lowering, signature-preservation proven bit-identical
  corpus-wide, with a typed refusal ladder mirroring the prefilter's.

See DESIGN.md §5j for the constraint rules and the soundness argument.
"""

from repro.preanalysis.callgraph import CallGraph, CallSite, FunctionInfo, build_callgraph
from repro.preanalysis.constants import (
    KEY_BOTTOM,
    KEY_TOP,
    KEY_UNDEFINED,
    ConstantStringEnv,
    KeyValue,
    environment_global_names,
    key_plus,
    key_string,
    solve_constraints,
)
from repro.preanalysis.pipeline import (
    Preanalysis,
    Resolution,
    preanalyze,
    resolve_computed_sites,
)
from repro.preanalysis.prune import PruneDecision, PruneResult, prune_programs

__all__ = [
    "KEY_BOTTOM",
    "KEY_TOP",
    "KEY_UNDEFINED",
    "CallGraph",
    "CallSite",
    "ConstantStringEnv",
    "FunctionInfo",
    "KeyValue",
    "Preanalysis",
    "PruneDecision",
    "PruneResult",
    "Resolution",
    "build_callgraph",
    "environment_global_names",
    "key_plus",
    "key_string",
    "preanalyze",
    "prune_programs",
    "resolve_computed_sites",
    "solve_constraints",
]
