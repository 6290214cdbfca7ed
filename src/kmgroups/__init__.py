"""Exact computations in simply-laced hyperbolic Kac-Moody groups over Z.

Submodules:
  cartan    generalized Cartan matrices, classification, hyperbolicity
  roots     real-root enumeration, prenilpotent pairs, commutation intervals
  weightmod depth-truncated Z-forms of highest-weight modules
  groupgen  group generators as windowed sparse matrices
  verifier  relation verification and kernel probe
  cli       command-line interface
"""

from .cartan import (
    GeneralizedCartanMatrix,
    classify,
    is_hyperbolic,
    validate_gcm,
)
from .roots import Root, enumerate_real_roots, is_real_root
from .weightmod import DominantWeight, build_module
from .groupgen import chi_minus, chi_plus, evaluate_word, h_element, w_tilde
from .verifier import kernel_probe, resolve_commutator_sign, verify_all

__version__ = "0.1.0"

__all__ = [
    "GeneralizedCartanMatrix",
    "classify",
    "is_hyperbolic",
    "validate_gcm",
    "Root",
    "enumerate_real_roots",
    "is_real_root",
    "DominantWeight",
    "build_module",
    "chi_plus",
    "chi_minus",
    "w_tilde",
    "h_element",
    "evaluate_word",
    "verify_all",
    "resolve_commutator_sign",
    "kernel_probe",
    "__version__",
]
