"""melcert: exact first-order averaged integrals for a perturbed circular
center, with certified zero counts and numerical cross-validation.

Every public name, and each of its five home modules, loads on first use
(PEP 562): `import melcert` alone imports no submodule, so a command pays
only for the modules it runs.
"""

import sys

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "polynomials": (
        "Polynomial",
        "count_real_roots",
        "isolate_roots",
        "refine_root",
        "squarefree_part",
    ),
    "intervals": ("RatInterval", "pi_interval", "sqrt_rational"),
    "melnikov": (
        "AssemblyError",
        "ConfluentNormalForm",
        "MelnikovNormalForm",
        "PerturbCoeffs",
        "SystemFamily",
        "assemble",
        "circle_moment",
        "evaluate_normal_form",
    ),
    "zeros": (
        "CertifiedZero",
        "PrescribeError",
        "ZeroReport",
        "count_zeros",
        "eliminate_radicals",
        "prescribe_zeros",
        "theorem_bound",
    ),
    "flow": (
        "CycleReport",
        "DetectedCycle",
        "FlowConfig",
        "FlowError",
        "QuadratureError",
        "displacement",
        "find_limit_cycles",
        "numeric_melnikov",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOMES:
        # through __import__, which -X importtime reports, where
        # importlib.import_module would load the module unreported
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value  # bound here, so later lookups skip this function


def __dir__():
    return sorted({*globals(), *_HOMES, *__all__})
