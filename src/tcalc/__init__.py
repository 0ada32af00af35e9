"""Exact chain-level calculator for Taylor towers of functors.

Modules:
  fields, sparse, chain   -- exact linear algebra and homological primitives
  perms, equivariant      -- Young groups, orbits/fixed points, norm, Tate
  trees, operads          -- partition trees, bar constructions, the dual
                             tree operad, plethysm
  comonads                -- the Top and Sp comonads, K', nu
  coalgebras              -- coalgebra data, representables, divided powers
  tower                   -- cobar, fat Tot, box product, stages, derived
                             hom, the Bousfield-Kan E^1 page
  classify                -- 2-/3-excisive classification and validators
  serialize, cli          -- JSON interchange and the batch interface

Loading is lazy, so a job compiles only the modules it runs.  Importing
the package registers every module in `sys.modules` and as a package
attribute, unexecuted (`importlib.util.LazyLoader`); a module's code runs
on the first access to one of its attributes.  `cli` is the exception, so
that `python -m tcalc.cli` finds it not yet imported.  The names in
`_EXPORTS` resolve at package level on first access, through `__getattr__`.
Inside the package, a module binds a sibling with `from . import X` and
reads `X.name` where it is used, unless every caller of the module needs X:
`from .X import name` runs X whenever the importing module runs.
"""

import importlib.util
import sys

_LAZY = ("fields", "sparse", "chain", "perms", "equivariant", "trees",
         "operads", "comonads", "coalgebras", "tower", "classify",
         "serialize")

_EXPORTS = {
    "chain": ("ChainComplex", "ChainMap", "ChainHomotopy", "DegreeWindow"),
    "fields": ("F2", "F3", "QQ", "FieldSpec", "field_from_name"),
    "sparse": ("SparseMatrix",),
    "perms": ("YoungGroup",),
    "equivariant": (
        "EquivariantComplex", "WindowedResult", "homotopy_fixed",
        "homotopy_orbits", "is_free", "norm_map", "permutation_module",
        "strict_fixed", "strict_orbits", "tate", "tensor_power"),
    "operads": (
        "Cooperad", "Operad", "RightModule", "SymmetricSequence",
        "bar_construction", "commutative_operad", "partition_poset_nerve",
        "plethysm", "spectral_lie", "tree_cooperad", "validate_right_module"),
    "comonads": (
        "KPrimeComonad", "module_comonad_kprime", "SpComonad", "TopComonad",
        "counit_check", "k_sp", "k_sp_component", "k_top", "k_top_component",
        "l3_complex", "nu_component"),
    "coalgebras": (
        "FinitePointedSet", "TruncatedCoalgebra", "divided_power_check",
        "evaluation_pairing_check", "representable_module",
        "truncate_coalgebra", "trivial_coalgebra", "validate_coalgebra"),
    "tower": (
        "CosimplicialComplex", "bk_e1", "box_product", "cobar", "derived_hom",
        "fat_tot", "lemma_ij_check", "p_n", "tower_map"),
    "classify": (
        "classify_2exc_sp", "classify_2exc_top", "classify_3exc_sp",
        "mccarthy_square_check", "splitting_check", "validate_2exc_sp_to_top",
        "validate_2exc_top_to_top"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _register(name):
    """Put `<package>.name` in `sys.modules`, to be run on first use."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, name))
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
