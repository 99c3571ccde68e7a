"""Constant solutions of the 2x2 plus/minus identity congruence.

For k mod n, the package computes the minimal size at which the constant
tuple (k, ..., k) multiplies to plus or minus the identity, assembles
that size from the prime-power factors of n, decides whether the minimal
solution reduces into shorter ones, and sweep-checks the structural laws
relating all of the above.
"""

from importlib import import_module

# Each public name and the module that defines it. The module is imported
# on first use of one of its names (PEP 562), so a command loads only the
# modules it runs.
_HOMES = {
    "cycles": ("Cycle", "canonical_form", "equivalence_class", "equivalent",
               "oplus", "reversal", "rotations"),
    "modmat": ("m_n", "solution_sign"),
    "monomial": ("Component", "LawCheck", "MonomialProfile", "SizeLaw",
                 "check_half_n_law", "check_prime_size_law",
                 "component_profile", "minimal_monomial_size",
                 "monomial_profile", "prime_power_ladder",
                 "shared_factor_size", "size_via_crt"),
    "reduce": ("MonomialVerdict", "ReductionWitness", "is_irreducible_monomial",
               "monomial_reduction_witness"),
    "ring": ("Residue", "SizeCapExceeded", "factorize", "is_prime"),
    "verify": ("VERIFIERS", "Counterexample", "SurveyRow", "TheoremReport",
               "monomial_row", "run_all", "run_verifier", "survey_rows"),
}
_MODULE_OF = {name: mod for mod, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
