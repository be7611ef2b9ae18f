"""Exact extension-dimension computations for characters of affine
pro-p Iwahori-Hecke algebras: a closed-form engine, an independent
linear-algebra oracle over the prime field, block decomposition and
diagram-orbit comparison, plus ready-made group datums."""

from types import ModuleType

from .coxeter import INFINITE, AffineCoxeterDatum, CoxeterError
from .document import (
    DocumentError,
    GroupDatum,
    dump_document,
    load_document,
    parse_document,
)
from .formula import ExtResult, ext_dimension
from .hecke import (
    HeckeCharacter,
    HeckeCharacterError,
    enumerate_hecke_characters,
    format_spec,
    hecke_character,
    is_supersingular,
    parse_spec,
)
from .oracle import TheoryMismatchError, oracle_ext_dimension, verify_solution
from .presets import Preset, PresetError, build_preset, sl2, sl_n, u11, u21
from .quiver import (
    DiagramAutomorphism,
    ExtQuiver,
    blocks,
    build_quiver,
    compare_partitions,
    l_packets,
    to_dot,
)
from .torus import (
    Character,
    TorusDatum,
    TorusError,
    c_value,
    character,
    enumerate_characters,
    s_lambda,
    twist,
)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, ModuleType)
] + ["__version__"]
