"""Exact extension-dimension computations for characters of affine
pro-p Iwahori-Hecke algebras: a closed-form engine, an independent
linear-algebra oracle over the prime field, block decomposition and
diagram-orbit comparison, plus ready-made group datums.

Each public name is imported from its module on first use, so a command
that never runs the oracle never loads it."""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "coxeter": ("INFINITE", "AffineCoxeterDatum", "CoxeterError"),
    "document": (
        "DocumentError", "GroupDatum", "dump_document", "load_document",
        "parse_document",
    ),
    "formula": ("ExtResult", "ext_dimension"),
    "hecke": (
        "HeckeCharacter", "HeckeCharacterError", "enumerate_hecke_characters",
        "format_spec", "hecke_character", "is_supersingular", "parse_spec",
    ),
    "oracle": ("TheoryMismatchError", "oracle_ext_dimension", "verify_solution"),
    "presets": ("Preset", "PresetError", "build_preset", "sl2", "sl_n", "u11", "u21"),
    "quiver": (
        "DiagramAutomorphism", "ExtQuiver", "blocks", "build_quiver",
        "compare_partitions", "l_packets", "to_dot",
    ),
    "torus": (
        "Character", "TorusDatum", "TorusError", "c_value", "character",
        "enumerate_characters", "s_lambda", "twist",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
