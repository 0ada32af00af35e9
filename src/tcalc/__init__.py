"""Exact chain-level calculator for Taylor towers of functors.

Modules:
  fields, sparse, chain   -- exact linear algebra and homological primitives
  rationals               -- Fraction, for the Q scalars that are not ints
  chainops                -- tensor and hom complexes, the tensor product
                             of maps, shifts, sub- and quotient complexes,
                             factor_through
  perms, equivariant      -- Young groups, resolutions, homotopy orbits and
                             fixed points, norm, Tate
  combinat                -- surjections, set partitions, permutation signs
  equivops                -- strict orbits and fixed points, permutation
                             modules, the diagonal tensor, slotwise maps
  sequences               -- truncated symmetric sequences
  trees                   -- rooted trees and the tree cooperad T_*: its
                             Sigma_n-complexes T(n), one per field and arity
  operads                 -- the normalized bar complex of Com from strict
                             chains of partitions, the partition nerve
  topcomonad              -- the Top comonad (based spaces to spectra)
  topdelta                -- its comultiplication delta_{r,s} for r < s < n
                             (arity-3 and arity-4 inputs)
  comonads                -- the Sp comonad
  coalgebras              -- coalgebra data and its validation
  cosimplicial            -- the cobar's certificate on its keyed blocks
  tower                   -- fat Tot, cobar, p_n by two routes, derived hom
  topcobar, spcobar       -- the cobar levels of a Top / Sp coalgebra
  derivedhom              -- the derived hom builder, the Bousfield-Kan E^1
                             page
  classify                -- 2-/3-excisive classification, McCarthy squares
  serialize, cli          -- JSON interchange and the batch interface
  laws                    -- what no subcommand runs, loaded only by the
                             test suite: homotopies, duals and the mapping
                             complex; operads and right modules; the whole
                             cosimplicial object and its conormalization;
                             law checks (coassociativity, counit, right
                             modules, box product), the commutative operad,
                             plethysm, the dual tree operad, the leveled bar
                             construction, K' and nu, the representable
                             modules and divided powers, the splitting
                             criterion and the paragraph-7 validators

Loading is lazy, so a job compiles only the modules it runs: `tate` runs
fields, sparse, chain, perms, equivariant, serialize and cli, and an F_p job
never runs rationals.  Importing the package registers every module in
`sys.modules` and as a package attribute, unexecuted
(`importlib.util.LazyLoader`); a module's code runs on the first access to
one of its attributes.  `cli` is the exception, so
that `python -m tcalc.cli` finds it not yet imported.  A name is read from
its module (`tcalc.chain.ChainComplex`); the package exports no names of its
own.  Inside the package, a module binds a sibling with `from . import X` and
reads `X.name` where it is used, unless every caller of the module needs X:
`from .X import name` runs X whenever the importing module runs.
"""

import importlib.util
import sys

_LAZY = ("rationals", "fields", "sparse", "chain", "chainops", "perms",
         "combinat", "equivariant", "equivops", "sequences", "trees",
         "operads", "topcomonad", "topdelta", "comonads", "coalgebras",
         "cosimplicial", "tower", "topcobar", "spcobar", "derivedhom",
         "classify", "serialize", "laws")


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
