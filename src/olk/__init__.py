"""Orlicz-Lorentz function and sequence spaces: norms, duals, witnesses.

The package namespace is lazy: `import olk` loads no submodule, and each
public name imports its home module on first access, so a process pays
only for the modules it uses.
"""

import sys

__version__ = "0.1.0"

# each public name, listed once, under the module that defines it
_EXPORTS = {
    "errors": (
        "OlkError", "DomainError", "ValidationError", "NotInSpaceError",
        "ConvergenceError", "UndecidedError", "InfeasibleParameterError"),
    "orlicz": (
        "OrliczFunction", "PowerOrlicz", "ExpOrlicz", "LogOrlicz",
        "FlatZeroOrlicz", "TabulatedOrlicz", "NumericConjugate", "young_gap",
        "delta2_classify"),
    "rearrange": (
        "StepFunction", "FiniteSequence", "distribution", "equimeasurable",
        "disjoint_sum", "element_setting"),
    "profiles": (
        "LogTailProfile", "PowerTailProfile", "BandRestriction",
        "BandComplement", "PowerSeqTail", "LogSeqTail", "ShiftedSeqTail",
        "StepWeight", "PowerWeight", "ConstantSeqWeight",
        "HarmonicSeqWeight", "PowerSeqWeight", "ExplicitSeqWeight"),
    "level": (
        "LevelInterval", "LevelDecomposition", "level_function",
        "level_sequence", "evaluate_level"),
    "norms": (
        "KInterval", "rho_modular", "luxemburg_norm", "orlicz_norm_amemiya",
        "k_interval", "orlicz_norm_dual_sup_oracle", "truncate",
        "truncation_remainder", "theta", "amemiya_pairing_report"),
    "duality": (
        "YoungWitness", "FunctionalNormReport", "P_modular",
        "P_modular_oracle", "dual_luxemburg_norm", "dual_orlicz_norm",
        "young_witness", "rearranged_pairing",
        "functional_norm_luxemburg_side", "functional_norm_orlicz_side",
        "functional_norm_report", "non_m_ideal_witness", "holder_check"),
    "specio": ("SpaceSpec", "parse_space", "parse_element"),
    "verify": ("verify_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "solvers"))

__all__ = [*_HOME, "__version__"]


def _submodule(name):
    # __import__ rather than importlib.import_module: it runs the import
    # statement's machinery, which `python -X importtime` reports
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
