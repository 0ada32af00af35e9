import random
from fractions import Fraction

import pytest

from helpers import (
    entry, induced_from_trivial_subgroup, random_term, truncate,
)
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, cone, direct_sum,
    label_map, linear_map, sphere,
)
from tcalc.chainops import (
    factor_through, hom_complex, quotient, shift, subcomplex, tensor,
    tensor_many, tensor_map,
)
from tcalc.fields import F2, F3, QQ, FieldSpec, _is_prime, field_from_name
from tcalc.laws import (
    _associator, chain_map_space, count_maps_mod_homotopy, dual, homology,
    homotopy_between, is_quasi_iso, nullhomotopy, rank,
)
from tcalc.perms import YoungGroup
from tcalc.sparse import Echelon, Span, SparseMatrix, nullspace, solve_matrix


# ---------------------------------------------------------------------------
# fields / sparse
# ---------------------------------------------------------------------------


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    # F followed by ASCII digits only: int() would read "\u0663" (an
    # Arabic-Indic three) as 3
    for name in ("F0", "F00", "F1", "F\u0663"):
        with pytest.raises(ValueError):
            field_from_name(name)
    assert field_from_name("F7").p == 7
    assert field_from_name("F7") == FieldSpec(7)
    assert field_from_name("Q") is QQ and QQ == FieldSpec(0)


def test_is_prime_is_exact():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(-5, 20000))
    # strong pseudoprimes to the first 1, 4, 7, 9 and 11 prime bases
    for n in (2047, 3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 24 + 7)
    assert not _is_prime((10 ** 12 + 39) * (10 ** 12 + 61))


def test_field_arithmetic_exact():
    assert QQ.coerce("2/3") + QQ.coerce("1/3") == 1
    assert F3.coerce("1/2") == 2  # 2 inverts to 2 mod 3
    one = SparseMatrix.identity(1, F2)
    assert (one + one).is_zero()


def test_rank_all_ones_f2():
    m = SparseMatrix.from_rows([[1, 1], [1, 1]], F2)
    assert rank(m) == 1


def test_rank_identity_and_zero():
    for F in (QQ, F2, F3):
        assert rank(SparseMatrix.identity(5, F)) == 5
        assert rank(SparseMatrix(4, 7, F)) == 0


def test_rank_random_vs_fraction_free():
    rng = random.Random(7)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        mq = SparseMatrix.from_rows(rows, QQ)
        # dense rational elimination oracle
        import fractions
        dense = [[fractions.Fraction(v) for v in row] for row in rows]
        rk = 0
        for col in range(c):
            piv = None
            for i in range(rk, r):
                if dense[i][col]:
                    piv = i
                    break
            if piv is None:
                continue
            dense[rk], dense[piv] = dense[piv], dense[rk]
            for i in range(r):
                if i != rk and dense[i][col]:
                    f = dense[i][col] / dense[rk][col]
                    dense[i] = [a - f * b for a, b in zip(dense[i], dense[rk])]
            rk += 1
        assert rank(mq) == rk


def test_solve_and_nullspace():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]], QQ)
    x = solve_matrix(m, SparseMatrix.from_columns(
        [{0: QQ.coerce(3), 1: QQ.coerce(6)}], 2, QQ))
    assert x is not None
    assert (m * x).by_column()[0] == {0: QQ.coerce(3), 1: QQ.coerce(6)}
    assert solve_matrix(m, SparseMatrix.from_columns(
        [{0: QQ.coerce(1)}], 2, QQ)) is None
    ns = nullspace(m)
    assert len(ns) == 1


def test_solve_matrix_roundtrip():
    m = SparseMatrix.from_rows([[1, 1], [0, 1]], F3)
    b = SparseMatrix.identity(2, F3)
    x = solve_matrix(m, b)
    assert x is not None and (m * x) == b


def test_matrix_assembly_helpers():
    a = SparseMatrix.from_rows([[1, 0, 2], [0, 1, 0]], F3)
    b = SparseMatrix.from_rows([[0, 0, 1]], F3)
    assert SparseMatrix.block({(0, 0): a, (1, 0): b}, [2, 1], [3], F3) == \
        SparseMatrix.from_rows([[1, 0, 2], [0, 1, 0], [0, 0, 1]], F3)
    with pytest.raises(ValueError):
        SparseMatrix.block({(0, 0): a, (1, 0): SparseMatrix.identity(2, F3)},
                           [2, 2], [3], F3)
    rows = [{0: 1, 2: 2}, {1: 1}]
    assert SparseMatrix.from_columns(rows, 3, F3) == a.transpose()
    assert b.nonzero_columns() == [{0: 1}]
    assert a.nonzero_columns() == [{0: 1}, {1: 1}, {0: 2}]


def test_span_grows_exactly_when_the_rank_rises():
    # vectors drawn from random subspaces, so both outcomes occur often
    rng = random.Random(11)
    for F in (F2, F3, QQ):
        for _ in range(12):
            n = rng.randint(1, 9)
            basis = [{j: F.coerce(rng.randint(-2, 2)) for j in range(n)
                      if rng.random() < 0.5} for _ in range(rng.randint(1, n))]
            span, rows, rk = Span(F), [], 0
            for _ in range(28):
                vec = {}
                for b in basis:
                    c = F.coerce(rng.randint(-2, 2))
                    for j, x in b.items():
                        vec[j] = vec.get(j, 0) + c * x
                vec = {j: F.coerce(x) for j, x in vec.items()}
                vec = {j: x for j, x in vec.items() if x}
                rows.append(vec)
                new = Echelon(SparseMatrix.from_entries(len(rows), n, F, (
                    ((r, j), x) for r, v in enumerate(rows)
                    for j, x in v.items()))).rank
                assert (vec in span) == (new == rk)
                assert span.add(vec) == (new > rk)
                assert vec in span
                rk = new


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


def circle(F):
    """Simplicial circle: 2 vertices, 2 edges."""
    d1 = SparseMatrix.from_rows([[1, 1], [-1, -1]], F)
    return ChainComplex(F, {0: 2, 1: 2}, {1: d1})


def test_dd_zero_enforced():
    F = QQ
    bad = SparseMatrix.from_rows([[1]], F)
    with pytest.raises(ValueError):
        ChainComplex(F, {0: 1, 1: 1, 2: 1}, {1: bad, 2: bad}).validate()


def test_chain_map_validate_skips_only_the_zero_map():
    # c = (k -> k, d = 1) in degrees 1, 0
    c = ChainComplex(QQ, {0: 1, 1: 1},
                     {1: SparseMatrix.identity(1, QQ)}).validate()
    zero = ChainMap.zero(c, c)
    assert zero.validate() is zero
    assert ChainMap.zero(c, c, degree=1).validate().components == {}
    with pytest.raises(ValueError, match="shape"):
        ChainMap(c, c, {0: SparseMatrix.from_rows([[1], [1]], QQ)}).validate()
    # the identity in degree 0 alone: d.f_1 = 0 but f_0.d = 1
    with pytest.raises(ValueError, match="commute"):
        ChainMap(c, c, {0: SparseMatrix.identity(1, QQ)}).validate()
    one = SparseMatrix.identity(1, QQ)
    assert ChainMap(c, c, {0: one, 1: one}).validate().components


def test_circle_homology():
    for F in (QQ, F2, F3):
        c = circle(F)
        assert homology(c, 0)[0] == 1
        assert homology(c, 1)[0] == 1
        assert homology(c, 2)[0] == 0


def test_cone_of_identity_acyclic():
    c = circle(QQ)
    cn = cone(ChainMap.identity(c))
    assert cn.is_acyclic(DegreeWindow(-3, 5))


def test_direct_sum_with_shift():
    c = sphere(QQ, 0)
    s = direct_sum([c, shift(c, 3)])
    assert homology(s, 0)[0] == 1
    assert homology(s, 3)[0] == 1


def _random_part(rng, F):
    kind = rng.choice(["empty", "complex", "complex", "term", "term"])
    if kind == "empty":
        return ChainComplex(F, {})
    if kind == "complex":
        return random_complex(rng, F, max_deg=1)
    return random_term(rng, F, rng.choice([1, 2])).complex


def test_block_map_matches_inclusions_and_projections():
    rng = random.Random(17)
    kinds = {"none": 0, "zero": 0, "nonzero": 0, "empty summand": 0}
    for F in (F2, F3, QQ):
        for _ in range(6):
            src_parts = [_random_part(rng, F) for _ in range(rng.randint(1, 3))]
            tgt_parts = [_random_part(rng, F) for _ in range(rng.randint(1, 3))]
            source, target = direct_sum(src_parts), direct_sum(tgt_parts)
            kinds["empty summand"] += sum(
                p.is_zero() for p in src_parts + tgt_parts)
            blocks = {}
            for j, a in enumerate(src_parts):
                for i, b in enumerate(tgt_parts):
                    kind = rng.choice(["none", "zero", "map", "map"])
                    f = None if kind == "none" else ChainMap.zero(a, b)
                    if kind == "map":
                        for g in chain_map_space(a, b):
                            f = f + g.scale(rng.choice([1, -1]))
                        kind = "zero" if f.is_zero() else "nonzero"
                    blocks[(j, i)] = f
                    kinds[kind] += 1
            # reference: inclusion o f o projection on the (idx, lab) labels
            ref = ChainMap.zero(source, target)
            for (j, i), f in blocks.items():
                if f is None:
                    continue
                proj = label_map(source, src_parts[j], partial=True,
                                 key=lambda lab, j=j:
                                 lab[1] if lab[0] == j else None)
                inc = label_map(tgt_parts[i], target,
                                key=lambda lab, i=i: (i, lab))
                ref = ref + inc.compose(f).compose(proj)
            got = block_map(source, target, src_parts, tgt_parts, blocks)
            assert got.source is source and got.target is target
            assert got.components == ref.components
            got.validate()
    assert min(kinds.values()) >= 5, kinds


def test_block_map_rejects_a_misshapen_block():
    a, b = sphere(QQ, 0, label="a"), direct_sum([sphere(QQ, 0), sphere(QQ, 1)])
    f = ChainMap.identity(b)
    with pytest.raises(ValueError):
        block_map(direct_sum([a, b]), b, [a, b], [b], {(0, 0): f})
    # the same block in its own slot is fine
    g = block_map(direct_sum([a, b]), b, [a, b], [b], {(1, 0): f})
    assert g.validate().component(1) == SparseMatrix.identity(1, QQ)


def test_tensor_spheres_and_kunneth():
    a, b = 2, 3
    t = tensor(sphere(QQ, a), sphere(QQ, b))
    assert t.dims == {a + b: 1}
    c = circle(F2)
    t2 = tensor(c, c)
    assert t2.total_dim() == 16
    assert [homology(t2, k)[0] for k in (0, 1, 2)] == [1, 2, 1]


def test_kunneth_random():
    rng = random.Random(3)
    for F in (QQ, F2):
        for _ in range(5):
            c = random_complex(rng, F)
            d = random_complex(rng, F)
            t = tensor(c, d)
            hc = {k: homology(c, k)[0] for k in range(-2, 6)}
            hd = {k: homology(d, k)[0] for k in range(-2, 6)}
            for k in range(-2, 8):
                conv = sum(hc.get(i, 0) * hd.get(k - i, 0) for i in range(-4, 8))
                assert homology(t, k)[0] == conv


def random_complex(rng, F, max_deg=2, max_dim=2):
    """Random complex built from spheres and acyclic cones (valid by construction),
    then conjugated by a random change of basis."""
    pieces = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(0, max_deg)
        pieces.append(sphere(F, d))
    if rng.random() < 0.7:
        d = rng.randint(0, max_deg)
        c2 = ChainComplex(F, {d: 1, d + 1: 1},
                          {d + 1: SparseMatrix.from_rows([[1]], F)})
        pieces.append(c2)
    total = direct_sum(pieces)
    # random change of basis degreewise
    dims = dict(total.dims)
    change = {}
    for k, n in dims.items():
        m = None
        while m is None or rank(m) < n:  # redraw a singular change
            ent = {(i, i): 1 for i in range(n)}
            for _ in range(n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    ent[i, j] = F.coerce(rng.randint(-1, 1))
            m = SparseMatrix.from_entries(n, n, F, ent)
        change[k] = m
    from tcalc.sparse import solve_matrix as sm
    diff = {}
    for k in list(dims):
        if dims.get(k - 1):
            inv = sm(change[k], SparseMatrix.identity(dims[k], F))
            diff[k] = change[k - 1] * total.d(k) * inv
    return ChainComplex(F, dims, diff)


@pytest.mark.parametrize("F", [F2, F3, QQ], ids=lambda F: F.name())
def test_homology_dims_eliminates_each_differential_once(F, monkeypatch):
    from tcalc import chain
    built = []

    class Counted(Echelon):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)
    rng = random.Random(61)
    for _ in range(8):
        c = direct_sum([random_complex(rng, F, max_deg=4)
                        for _ in range(rng.randint(1, 3))])
        c.validate()
        w = DegreeWindow(-1, 6)
        want = {k: homology(c, k)[0] for k in w.degrees()}
        monkeypatch.setattr(chain, "Echelon", Counted)
        built.clear()
        assert c.homology_dims(w) == {k: v for k, v in want.items() if v}
        assert len(built) <= len(w.degrees()) + 1
        assert c.homology_dims() == c.homology_dims(
            DegreeWindow(c.min_degree, c.max_degree))
        monkeypatch.undo()


def test_hom_complex_shift_and_self():
    d = circle(QQ)
    h = hom_complex(sphere(QQ, 2), d)
    # Hom(S^a, D) = D shifted by -a
    assert {k: h.dim(k) for k in h.support()} == {-2: 2, -1: 2}
    c = direct_sum([sphere(QQ, 0), sphere(QQ, 1)])
    hh = hom_complex(c, c)
    assert hh.dim(0) == 2 and hh.dim(1) == 1 and hh.dim(-1) == 1


def test_h0_hom_counts_maps_mod_homotopy():
    c = circle(F2)
    h = hom_complex(c, c)
    assert homology(h, 0)[0] == 2
    assert count_maps_mod_homotopy(c, c) == 2


def test_dual_involution_and_sphere():
    assert dual(sphere(QQ, 1)).dims == {-1: 1}
    c = circle(F3)
    dd = dual(dual(c))
    for k in (-1, 0, 1, 2):
        assert homology(dd, k)[0] == homology(c, k)[0]
        assert homology(dual(c), -k)[0] == homology(c, k)[0]


def test_cone_of_zero_map():
    c, d = circle(QQ), sphere(QQ, 0)
    cn = cone(ChainMap.zero(c, d))
    # homology = H(D) + H(C)[1]
    assert homology(cn, 0)[0] == 1
    assert homology(cn, 1)[0] == 1
    assert homology(cn, 2)[0] == 1


def test_a_sum_of_maps_of_different_degrees_is_refused():
    # raised, not asserted, so `python -O` keeps the check
    c = circle(QQ)
    with pytest.raises(ValueError, match="degrees 0 and 1"):
        ChainMap.identity(c) + ChainMap.zero(c, c, 1)


def _relabelled(c, tag="x"):
    """c with the same dims and differential and other labels."""
    return ChainComplex(c.field, c.dims, c.diff, {
        k: tuple((tag, lab) for lab in labs) for k, labs in c.labels.items()})


def test_two_bracketings_of_one_tensor_product_do_not_compose():
    # equal dims, but the degree-1 basis vectors come in another order, so
    # pairing the two bases by position would permute them
    a = ChainComplex(F2, {0: 2, 1: 1}, labels={0: (("a", 0), ("a", 1)),
                                               1: (("a", 2),)})
    b = ChainComplex(F2, {0: 1, 1: 1}, labels={0: (("b", 0),),
                                               1: (("b", 1),)})
    flat, nested = tensor_many([a, b, a]), tensor(a, tensor(b, a))
    assert flat.dims == nested.dims
    iso = _associator(nested, flat)
    assert iso.component(1) != SparseMatrix.identity(flat.dim(1), F2)
    with pytest.raises(ValueError, match="composition mismatch"):
        ChainMap.identity(flat).compose(ChainMap.identity(nested))
    # the change of basis is a label map, and a label-equal twin meets
    assert ChainMap.identity(flat).compose(iso).components == iso.components
    twin = tensor_many([a, b, a])
    assert ChainMap.identity(flat).compose(
        ChainMap.identity(twin)).source is twin


def test_sums_refuse_maps_on_other_bases():
    c = circle(QQ)
    other, f = _relabelled(c), ChainMap.identity(c)
    for g in (ChainMap.zero(other, c), ChainMap.zero(c, other)):
        with pytest.raises(ValueError, match="other bases"):
            f + g
        with pytest.raises(ValueError, match="other bases"):
            f - g
    # a label-equal twin adds
    twin = ChainComplex(QQ, c.dims, c.diff, c.labels)
    assert (f - ChainMap.identity(twin)).is_zero()
    assert (f + ChainMap.identity(twin)).components == f.scale(2).components


def test_block_map_refuses_a_block_on_a_relabelled_summand():
    a, b = sphere(QQ, 0, label="a"), sphere(QQ, 1, label="b")
    copy = _relabelled(a)
    for block in (label_map(copy, a, key=lambda lab: lab[1]),
                  label_map(a, copy, key=lambda lab: ("x", lab))):
        with pytest.raises(ValueError, match="misses its summands"):
            block_map(direct_sum([a, b]), direct_sum([a, b]), [a, b],
                      [a, b], {(0, 0): block})
    twin = sphere(QQ, 0, label="a")
    g = block_map(direct_sum([a, b]), a, [a, b], [a],
                  {(0, 0): ChainMap.identity(twin)})
    assert g.validate().component(0) == SparseMatrix.identity(1, QQ)


def test_the_cone_of_a_map_of_nonzero_degree_is_refused():
    c = circle(QQ)
    with pytest.raises(ValueError, match="not degree 1"):
        cone(ChainMap.zero(c, c, 1))


def test_is_quasi_iso():
    c = circle(QQ)
    w = DegreeWindow(-2, 4)
    assert is_quasi_iso(ChainMap.identity(c), w)
    s = sphere(QQ, 0)
    assert not is_quasi_iso(ChainMap.zero(s, s), w)


def test_homotopy_solver():
    c = circle(F2)
    f = ChainMap.identity(c)
    # identity vs a homotopic map: rotate the circle (swap vertices & edges)
    swap = SparseMatrix.from_rows([[0, 1], [1, 0]], F2)
    g = ChainMap(c, c, {0: swap, 1: swap})
    h = homotopy_between(f, g)
    assert h is not None
    # identity is not nullhomotopic
    assert nullhomotopy(f) is None


def test_mapping_complex_agrees_with_kunneth():
    # over a field H_0 Hom(C, D) = prod_k Hom(H_k C, H_k D): maps up to
    # homotopy are counted by the homology dimensions, and two maps are
    # homotopic exactly when they induce the same map on every H_k
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for F in (F2, F3, QQ):
        for _ in range(40):
            c, d = random_complex(rng, F), random_complex(rng, F)
            degs = sorted(set(c.dims) | set(d.dims))
            assert count_maps_mod_homotopy(c, d) == sum(
                homology(c, k)[0] * homology(d, k)[0] for k in degs)
            maps = chain_map_space(c, d)
            f, g = ChainMap.zero(c, d), ChainMap.zero(c, d)
            for m in maps:
                f = f + m.scale(F.coerce(rng.choice([0, 1, -1])))
                g = g + m.scale(F.coerce(rng.choice([0, 1, -1])))
            same = all(f.induced_on_homology(k) == g.induced_on_homology(k)
                       for k in degs)
            assert (homotopy_between(f, g) is not None) == same
            seen[same] += 1
    assert min(seen.values()) >= 20, seen


def test_tensor_map_koszul_sign():
    s1 = sphere(QQ, 1)
    f = ChainMap.identity(s1)
    g = ChainMap.identity(s1)
    t = tensor_map(f, g)
    t.validate()
    assert entry(t.component(2), 0, 0) == 1


def _binary_tensor_map(f, g):
    """f (x) g by the two-map formula: the sign (-1)^{|g| p} on the degree-p
    part of f's source, the entries of each column in the order of f's
    column, then g's."""
    fcols = {p: m.by_column() for p, m in f.components.items()}
    gcols = {q: m.by_column() for q, m in g.components.items()}

    def image(k, lab):
        (p, i), (q, j) = f.source.locate(lab[0]), g.source.locate(lab[1])
        sgn = -1 if g.degree * p % 2 else 1
        fl = f.target.labels.get(p + f.degree, ())
        gl = g.target.labels.get(q + g.degree, ())
        return [((fl[i2], gl[j2]), sgn * a * b)
                for i2, a in fcols.get(p, {}).get(i, {}).items()
                for j2, b in gcols.get(q, {}).get(j, {}).items()]
    return linear_map(tensor(f.source, g.source), tensor(f.target, g.target),
                      image, degree=f.degree + g.degree)


def _random_graded_map(rng, F, tag):
    """A map of degree -1, 0 or 1 with random entries between two random
    complexes whose labels start with tag (so that `_flat_label` keeps each
    whole); it need not commute with the differentials."""
    def relabelled(c, side):
        return ChainComplex(F, c.dims, c.diff, {
            k: tuple((tag + side, k, i) for i in range(n))
            for k, n in c.dims.items()})
    src = relabelled(random_complex(rng, F, max_deg=1), "s")
    tgt = relabelled(random_complex(rng, F, max_deg=1), "t")
    deg = rng.choice([-1, 0, 1])
    return ChainMap(src, tgt, {k: SparseMatrix.from_entries(
        tgt.dim(k + deg), n, F, {(i, j): rng.choice([0, 1, -1, 2])
                                 for i in range(tgt.dim(k + deg))
                                 for j in range(n)})
        for k, n in src.dims.items()}, deg)


@pytest.mark.parametrize("F", [F2, F3, QQ], ids=lambda F: F.name())
def test_tensor_map_of_any_arity_matches_the_binary_fold(F):
    rng = random.Random(39)
    for _ in range(12):
        f, g, h = (_random_graded_map(rng, F, tag) for tag in "fgh")
        # two maps: the matrices of the two-map formula, in stored order
        two, ref = tensor_map(f, g), _binary_tensor_map(f, g)
        assert two.degree == f.degree + g.degree
        assert two.components.keys() == ref.components.keys()
        for k, m in ref.components.items():
            assert list(two.component(k).items()) == list(m.items())
        # three maps: the nested fold read through the associator
        flat = tensor_map(f, g, h)
        nested = tensor_map(tensor_map(f, g), h)
        read = _associator(nested.target, flat.target).compose(
            nested).compose(_associator(flat.source, nested.source))
        assert flat.degree == read.degree == f.degree + g.degree + h.degree
        for k in flat.source.dims:
            assert flat.component(k) == read.component(k)


def test_truncate_certifies_interior():
    c = circle(QQ)
    t = truncate(c, 0, 1)
    assert t.dims == c.dims
    w = DegreeWindow(0, 5)
    z = ChainComplex(QQ, {})
    assert z.is_acyclic(w)


def test_induced_on_homology():
    c = circle(F2)
    f = ChainMap.identity(c)
    m = f.induced_on_homology(1)
    assert m == SparseMatrix.identity(1, F2)
    zm = ChainMap.zero(c, c).induced_on_homology(0)
    assert zm.is_zero()


def test_deformation_retract_quasi_iso():
    # the cone on the identity deformation-retracts onto a point; the
    # inclusion of the retract is a quasi-isomorphism
    c = sphere(QQ, 0)
    cn = cone(ChainMap.identity(c))  # acyclic two-step complex
    z = ChainComplex(QQ, {})
    inc = ChainMap.zero(z, cn)
    assert is_quasi_iso(inc, DegreeWindow(-2, 3))
    # and a genuine retract: include S^0 into S^0 (+) cone(id)
    big = direct_sum([c, cn])
    ret = block_map(c, big, [c], [c, cn], {(0, 0): ChainMap.identity(c)})
    assert is_quasi_iso(ret, DegreeWindow(-2, 3))


# ---------------------------------------------------------------------------
# maps built from labels
# ---------------------------------------------------------------------------


def _labelled(F, labels, diff=None):
    return ChainComplex(F, {k: len(v) for k, v in labels.items()}, diff,
                        labels)


def _reference_linear_map(src, tgt, images, degree, partial):
    """linear_map entry by entry: {k: {(i, j): value}}, each sum taken
    term by term and brought back by F.coerce, zeros dropped, or None on a
    strict miss."""
    F = src.field
    out = {}
    for k in src.dims:
        tlabs = list(tgt.labels.get(k + degree, ()))
        cur = {}
        for j, lab in enumerate(src.labels[k]):
            for t, c in images[lab]:
                if t not in tlabs:
                    if partial:
                        continue
                    return None
                i = tlabs.index(t)
                cur[i, j] = F.coerce(cur.get((i, j), 0) + F.coerce(c))
        out[k] = {ij: v for ij, v in cur.items() if v != 0}
    return out


def test_linear_map_matches_per_entry_reference():
    rng = random.Random(13)
    for F in (F2, F3, QQ):
        coeffs = [-2, -1, 1, 2, 3]
        if not F.p:
            coeffs += [Fraction(1, 2), Fraction(-2, 3)]
        cases = {"miss": 0, "cancel": 0, "strict": 0}
        for _ in range(150):
            src = _labelled(F, {k: tuple(("s", k, i) for i in range(
                rng.randint(1, 4))) for k in range(3)})
            tgt = _labelled(F, {k: tuple(("t", k, i) for i in range(
                rng.randint(0, 4))) for k in range(-1, 4)})
            degree = rng.choice((-1, 0, 1))
            partial = rng.random() < 0.5
            images = {}
            for k, labs in src.labels.items():
                for lab in labs:
                    # targets may be missing from tgt (index 4 never
                    # exists), and a term and its negative cancel
                    terms = [(("t", k + degree, rng.randint(0, 4)),
                              rng.choice(coeffs))
                             for _ in range(rng.randint(0, 3))]
                    if terms and rng.random() < 0.3:
                        terms.append((terms[0][0], -terms[0][1]))
                    images[lab] = terms
            want = _reference_linear_map(src, tgt, images, degree, partial)
            if want is None:
                cases["strict"] += 1
                with pytest.raises(ValueError):
                    linear_map(src, tgt, lambda k, lab: images[lab],
                               degree=degree)
                continue
            f = linear_map(src, tgt, lambda k, lab: images[lab],
                           degree=degree, partial=partial)
            assert f.source is src and f.target is tgt
            assert f.degree == degree
            for k in src.dims:
                m = f.component(k)
                assert (m.rows, m.cols) == (tgt.dim(k + degree), src.dim(k))
                assert dict(m.items()) == want[k]
                for _, v in m.items():
                    assert v != 0
                    if F.p:
                        assert type(v) is int and 0 < v < F.p
                    else:
                        assert (type(v) is int) == (v.denominator == 1)
            cases["miss"] += partial and any(
                t not in tgt.label_index(t[1]) for ts in images.values()
                for t, _ in ts)
            cases["cancel"] += any(
                len(ts) > 1 and ts[-1] == (ts[0][0], -ts[0][1])
                for ts in images.values())
        # every behaviour the test names was exercised
        assert all(cases.values()), (F, cases)


def test_label_map_strict_and_partial():
    src = _labelled(F2, {0: ("a", "b"), 1: ("c",)})
    tgt = _labelled(F2, {0: ("b", "x", "a"), 1: ("c",)})
    with pytest.raises(ValueError):
        label_map(src, _labelled(F2, {0: ("a",), 1: ("c",)}))
    f = label_map(src, tgt)
    assert dict(f.component(0).items()) == {(2, 0): 1, (0, 1): 1}
    assert dict(f.component(1).items()) == {(0, 0): 1}
    # the missing "b" is sent to zero; key maps labels into the target
    g = label_map(src, _labelled(F2, {0: (("t", "a"),), 1: (("t", "c"),)}),
                  key=lambda lab: ("t", lab), partial=True)
    assert dict(g.component(0).items()) == {(0, 0): 1}
    assert dict(g.component(1).items()) == {(0, 0): 1}


def test_factor_through_subcomplex():
    # D: e -> v, plus a cycle e' and a vertex v'; S = span(e, v) inside D
    d = _labelled(QQ, {0: ("v", "v2"), 1: ("e", "e2")},
                  {1: SparseMatrix.from_rows([[1, 0], [0, 0]], QQ)})
    s = _labelled(QQ, {0: ("v",), 1: ("e",)},
                  {1: SparseMatrix.from_rows([[1]], QQ)})
    incl = label_map(s, d).validate()
    # 2 id_D restricted to S
    twice = ChainMap.identity(d).scale(QQ.coerce(2))
    x = factor_through(twice.compose(incl), incl).validate()
    assert x.source is s and x.target is s
    assert x.component(0) == x.component(1) == SparseMatrix.from_rows(
        [[2]], QQ)
    # e -> e2 leaves S
    with pytest.raises(ArithmeticError):
        factor_through(ChainMap(s, d, {1: SparseMatrix.from_rows(
            [[0], [1]], QQ)}), incl)
    # a degree -1 map x -> v from a sphere in degree 1
    pt = sphere(QQ, 1, label="x")
    g = ChainMap(pt, d, {1: SparseMatrix.from_rows([[1], [0]], QQ)},
                 degree=-1)
    y = factor_through(g, incl).validate()
    assert y.degree == -1 and y.component(1) == SparseMatrix.from_rows(
        [[1]], QQ)
    assert incl.compose(y).components == g.components


def _edge_pair():
    # f -> e1 - e2; e1, e2 -> v1 - v2
    return _labelled(QQ, {0: ("v1", "v2"), 1: ("e1", "e2"), 2: ("f",)}, {
        1: SparseMatrix.from_rows([[1, 1], [-1, -1]], QQ),
        2: SparseMatrix.from_rows([[1], [-1]], QQ)})


def test_subcomplex_solves_d_into_the_span():
    d = _edge_pair()
    # all of degrees 2 and 1, and span(v2 - v1), the kernel of [1 1], in 0
    cons = {2: [], 1: [], 0: [SparseMatrix.from_rows([[1, 1]], QQ)], -1: []}
    sub, incl = subcomplex(d, cons, lambda k, i: ("s", k, i))
    assert incl.source is sub and incl.target is d
    incl.validate()
    sub.validate()
    assert sub.labels == {2: (("s", 2, 0),), 1: (("s", 1, 0), ("s", 1, 1)),
                          0: (("s", 0, 0),)}
    assert incl.component(0) == SparseMatrix.from_rows([[-1], [1]], QQ)
    assert sub.d(2) == SparseMatrix.from_rows([[1], [-1]], QQ)
    assert sub.d(1) == SparseMatrix.from_rows([[-1, -1]], QQ)
    assert sub.homology_dims() == {}
    # span(e1) and span(v1): d(e1) = v1 - v2 leaves span(v1)
    kill_second = SparseMatrix.from_rows([[0, 1]], QQ)
    with pytest.raises(ArithmeticError):
        subcomplex(d, {1: [kill_second], 0: [kill_second]},
                   lambda k, i: (k, i))


def test_subcomplex_certifies_d_into_a_zero_span():
    # c = (k -> k, d = 1): all of degree 1 over nothing in degree 0
    c = ChainComplex(QQ, {0: 1, 1: 1}, {1: SparseMatrix.from_rows([[1]], QQ)})
    with pytest.raises(ArithmeticError):
        subcomplex(c, {1: []}, lambda k, i: (k, i))
    with pytest.raises(ArithmeticError):
        subcomplex(c, {1: [], 0: [SparseMatrix.identity(1, QQ)]},
                   lambda k, i: (k, i))
    # a cycle over a zero span is accepted
    sub, incl = subcomplex(sphere(QQ, 1), {1: []}, lambda k, i: (k, i))
    incl.validate()
    assert sub.dims == {1: 1}


def _check_subcomplex(c, constraints, sub, incl):
    """sub, incl = subcomplex(c, constraints, ("s", k, i)) against the
    nullspace certificate and a per-vector solve of the differential."""
    F = c.field
    incl.validate()
    sub.validate()
    for k, mats in constraints.items():
        stacked = SparseMatrix.block({(i, 0): m for i, m in enumerate(mats)},
                                     [m.rows for m in mats], [c.dim(k)], F)
        basis = incl.component(k)
        assert (stacked * basis).is_zero()
        assert basis.cols == stacked.cols - rank(stacked)
    assert sub.labels == {k: tuple(("s", k, i) for i in range(n))
                          for k, n in sub.dims.items()}
    for k in sub.support():
        ent = {}
        for j, z in enumerate(incl.component(k).nonzero_columns()):
            x = solve_matrix(incl.component(k - 1), c.d(k) *
                             SparseMatrix.from_columns([z], c.dim(k), F))
            assert x is not None
            for (i, _), v in x.items():
                ent[i, j] = v
        assert sub.d(k) == SparseMatrix.from_entries(sub.dim(k - 1),
                                                     sub.dim(k), F, ent)


def test_subcomplex_matches_per_vector_solve():
    rng = random.Random(5)
    label = lambda k, i: ("s", k, i)  # noqa: E731
    nonzero_d = 0
    for F in (F2, F3, QQ):
        for _ in range(4):
            # the kernel of a random chain endomorphism
            c = direct_sum([random_complex(rng, F, max_deg=3)
                            for _ in range(3)])
            f = ChainMap.zero(c, c)
            for g in chain_map_space(c, c):
                if rng.random() < 0.5:
                    f = f + g.scale(rng.choice([1, -1, 2]))
            cons = {k: [f.component(k)] for k in c.support()}
            sub, incl = subcomplex(c, cons, label)
            _check_subcomplex(c, cons, sub, incl)
            nonzero_d += any(not m.is_zero() for m in sub.diff.values())
        for n in (2, 3):
            # the invariants: kernels of g - 1 over the Coxeter generators
            for a in (random_term(rng, F, n),
                      induced_from_trivial_subgroup(random_complex(rng, F),
                                                    YoungGroup.full(n))):
                c = a.complex
                cons = {k: [a.action[i].component(k)
                            - SparseMatrix.identity(c.dim(k), F)
                            for i in a.group.generator_positions()]
                        for k in c.support()}
                sub, incl = subcomplex(c, cons, label)
                _check_subcomplex(c, cons, sub, incl)
                nonzero_d += any(not m.is_zero() for m in sub.diff.values())
    assert nonzero_d >= 6


def test_quotient_by_the_image_of_a_subcomplex():
    d = _edge_pair()
    # S = span(f) + span(e2 - e1), the kernel of [1 1]; zero homology
    _, incl = subcomplex(d, {2: [], 1: [SparseMatrix.from_rows([[1, 1]], QQ)]},
                         lambda k, i: ("s", k, i))
    rels = {k: m.nonzero_columns() for k, m in incl.components.items()}
    q, proj = quotient(d, rels, lambda k, j: ("q", d.labels[k][j]))
    assert proj.source is d and proj.target is q
    proj.validate()
    q.validate()
    # e1 is the pivot of e2 - e1, so e2 is kept
    assert q.labels == {1: (("q", "e2"),), 0: (("q", "v1"), ("q", "v2"))}
    assert proj.component(1) == SparseMatrix.from_rows([[1, 1]], QQ)
    assert q.d(1) == SparseMatrix.from_rows([[1], [-1]], QQ)
    assert proj.compose(incl).is_zero()
    assert q.homology_dims() == d.homology_dims() == {0: 1}
    # no relations: q is a relabelled copy of d
    q0, proj0 = quotient(d, {}, lambda k, j: (k, j))
    assert q0.dims == d.dims and proj0.is_iso()


def _reference_projection(rels, n, p):
    """(kept, {(t, j): value}) for the projection of k^n onto the coordinates
    that are not pivots of the relations' reduced echelon form: a dense
    Gauss-Jordan of the relations, then each e_j reduced against every
    pivot row in turn, in Fraction or mod-p arithmetic written here."""
    def norm(x):
        return x % p if p else x

    rows = [[norm(Fraction(v.get(j, 0))) if not p else v.get(j, 0) % p
             for j in range(n)] for v in rels]
    pivots = []
    for col in range(n):
        lead = next((r for r in rows if r[col]), None)
        if lead is None:
            continue
        rows.remove(lead)
        inv = pow(lead[col], -1, p) if p else 1 / lead[col]
        lead = [norm(x * inv) for x in lead]
        rows = [[norm(x - r[col] * y) for x, y in zip(r, lead)] for r in rows]
        pivots = [(c, [norm(x - r[col] * y) for x, y in zip(r, lead)])
                  for c, r in pivots] + [(col, lead)]
    kept = [j for j in range(n) if j not in dict(pivots)]
    out = {}
    for j in range(n):
        v = [int(i == j) for i in range(n)]
        for col, row in pivots:
            c = v[col]
            v = [norm(x - c * y) for x, y in zip(v, row)]
        out.update({(t, j): v[i] for t, i in enumerate(kept) if v[i]})
    return kept, out


@pytest.mark.parametrize("F", [F2, F3, QQ], ids=lambda F: F.name())
def test_quotient_projection_matches_a_dense_reduction(F):
    rng = random.Random(31 + F.p)
    coeffs = [-2, -1, 1, 2] + ([] if F.p else [Fraction(1, 2),
                                               Fraction(-2, 3)])
    pivots = kept = 0
    for _ in range(40):
        dims = {0: rng.randint(1, 9), 1: rng.randint(1, 9)}
        rels = {}
        for k, n in dims.items():
            vecs = []
            for _ in range(rng.randint(0, n + 1)):
                if len(vecs) >= 2 and rng.random() < 0.3:
                    # a dependent relation: a combination of two earlier ones
                    u, w = rng.sample(vecs, 2)
                    a, b = rng.choice(coeffs), rng.choice(coeffs)
                    vec = {j: F.coerce(a * u.get(j, 0) + b * w.get(j, 0))
                           for j in {**u, **w}}
                else:
                    vec = {j: F.coerce(rng.choice(coeffs)) for j in range(n)
                           if rng.random() < 0.5}
                vecs.append({j: x for j, x in vec.items() if x})
            rels[k] = vecs
        # a zero differential, so every span of relations is a subcomplex
        c = ChainComplex(F, dims)
        q, proj = quotient(c, rels, lambda k, j: ("q", k, j))
        proj.validate()
        q.validate()
        for k, n in dims.items():
            want_kept, want = _reference_projection(rels[k], n, F.p)
            assert q.labels.get(k, ()) == tuple(("q", k, j)
                                                for j in want_kept)
            assert dict(proj.component(k).items()) == want
            pivots += n - len(want_kept)
            kept += len(want_kept)
    assert pivots >= 60 and kept >= 60, (pivots, kept)


def test_partial_label_map_drops_missing_labels():
    c = _labelled(QQ, {0: ("a", "b", "c")})
    f = ChainMap(c, c, {0: SparseMatrix.from_rows(
        [[1, 0, 0], [2, 0, 1], [0, 3, 0]], QQ)})
    tgt = _labelled(QQ, {0: ("c", "a")})
    g = label_map(c, tgt, partial=True).compose(f)
    assert g.target is tgt and g.source is c
    assert g.component(0) == SparseMatrix.from_rows(
        [[0, 3, 0], [1, 0, 0]], QQ)
    # the strict change of basis refuses the label b that tgt lacks
    with pytest.raises(ValueError, match="no image"):
        label_map(c, tgt)


def test_label_map_changes_basis_on_either_side():
    d = SparseMatrix.from_rows([[1, -1]], QQ)
    c = _labelled(QQ, {0: ("v",), 1: ("e", "e2")}, {1: d})
    # the same complex with its degree-1 basis listed in the other order
    c2 = _labelled(QQ, {0: ("v",), 1: ("e2", "e")},
                   {1: SparseMatrix.from_rows([[-1, 1]], QQ)})
    f = ChainMap(c, c, {0: SparseMatrix.identity(1, QQ),
                        1: SparseMatrix.from_rows([[1, 1], [0, 2]], QQ)})
    g = f.compose(label_map(c2, c)).validate()
    assert g.component(1) == SparseMatrix.from_rows([[1, 1], [2, 0]], QQ)
    # both sides at once: the map read in c2 coordinates
    h = label_map(c, c2).compose(g).validate()
    assert h.component(1) == SparseMatrix.from_rows([[2, 0], [1, 1]], QQ)
