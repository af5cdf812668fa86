"""Exact decision engine for the mortality problem of 2x2 rational matrix sets.

A finite set of matrices is mortal when some finite product of its members
(repetition allowed) equals the zero matrix.  For 2x2 rational matrices the
question is decided here exactly, with verifiable witness words, whenever the
set contains at most one invertible matrix or no singular one (invertible
members alone are Immortal, however many); sets with two or more invertible
members and a singular one receive a bounded-search Unknown verdict.

The package exports what callers of the decider use; the layers below it
(`linalg`, `spectral`, `pairs`) are imported from their modules.
"""

from .linalg import InternalError, Mat2, RankError
from .decider import Immortal, Instance, Mortal, Unknown, Verdict, Word, decide, verify_witness
from .oracle import EntryRange, fuzz_compare, search

__all__ = [
    "EntryRange",
    "Immortal",
    "Instance",
    "InternalError",
    "Mat2",
    "Mortal",
    "RankError",
    "Unknown",
    "Verdict",
    "Word",
    "decide",
    "fuzz_compare",
    "search",
    "verify_witness",
]
