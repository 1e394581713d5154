"""Decompilation-hypothesis scoring: the paper's evaluation loop.

SLaDe's contribution is judging candidate decompilations by **IO
equivalence against the original binary**, not text similarity.  This
package reproduces that loop end to end on the Mini-C pipeline:

* :mod:`repro.eval.dataset` — the ExeBench role: materialises (assembly,
  reference C, IO-vector) triples from the corpus and the seeded program
  generator across {x86, arm} x {O0, O3}
  (``python -m repro.eval.dataset``);
* :mod:`repro.eval.mutate` — a mutation-based pseudo-decompiler that
  manufactures candidate sets with *certified* ground-truth labels
  (semantics-preserving renames/commutes/loop-refactors vs. breaking
  off-by-ones/sign-flips/dropped-casts vs. front-end-invalid candidates),
  so the scorer's verdicts are testable without a neural model;
* :mod:`repro.eval.score` — the scorer itself
  (``python -m repro.eval.score``): every candidate runs
  parse -> typecheck -> compile -> execute-on-IO-vectors and receives one
  of six verdicts, with the N candidates of one function executed as a
  single :class:`repro.testing.native.NativeBatch` and a normalized edit
  similarity as the secondary metric;
* :mod:`repro.eval.repair` — the permuter on top of the scorer
  (``python -m repro.eval.repair``): near-miss candidates (``io_mismatch``
  / ``type_error`` / ``trap``) are beam-searched toward ``io_equivalent``
  over the reversed mutation inventory, with resumable campaign state.
"""

import importlib
from typing import Dict, List

#: Every export, mapped to the submodule that defines it; imported lazily.
_EXPORTS: Dict[str, str] = {
    "DatasetEntry": "dataset",
    "Observation": "dataset",
    "build_dataset": "dataset",
    "generated_entries": "dataset",
    "classify_observations": "dataset",
    "classify_with_diffs": "dataset",
    "observation_diff": "dataset",
    "front_end_gate": "dataset",
    "Candidate": "mutate",
    "Mutator": "mutate",
    "make_candidates": "mutate",
    "repair_neighbors": "mutate",
    "CandidateScore": "score",
    "score_candidates": "score",
    "score_dataset": "score",
    "score_entry_sets": "score",
    "build_report": "score",
    "edit_similarity": "score",
    "RepairConfig": "repair",
    "repair_campaign": "repair",
    "ScoringService": "service",
    "ServiceClient": "service",
}

__all__: List[str] = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
