from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

from cuspquartics.codes import (
    CuspConfiguration,
    TernaryCode,
    configuration_from_coordinate_swaps,
    constant_weight_families,
    coplanar_subsets,
    eight_cusp_code,
    enumerate_constant_weight_codes,
    enumerate_divisible_families,
    f3_word,
    griesmer_holds,
    is_constant_weight,
    projective_key,
    signed_word,
    weight,
)
from cuspquartics.geometry import ProjectivePoint, eight_cusp_points
from cuspquartics.linalg import rank
from cuspquartics.polyring import QQ
from support import code_json

KNOWN_FAMILY = ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 7, 8),
                (1, 4, 5, 6, 7, 8), (2, 3, 5, 6, 7, 8))


def test_weight_examples():
    assert weight((1, 1, 1, 1, 1, 1, 0, 0)) == 6
    assert weight((0,) * 8) == 0
    assert weight(f3_word((0, 0, 1, 1, -1, -1, 1, 1))) == 6


def test_signed_word():
    assert signed_word((0, 1, 2)) == (0, 1, -1)
    assert f3_word((0, 1, -1)) == (0, 1, 2)


def test_griesmer_examples():
    assert griesmer_holds(8, 2, 6)
    assert sum(-(-6 // 3 ** i) for i in range(2)) == 8  # equality
    assert not griesmer_holds(8, 3, 6)
    assert griesmer_holds(6, 1, 6)
    with pytest.raises(ValueError):
        griesmer_holds(0, 1, 1)


def test_griesmer_large_dimension():
    # 3 + 1 + (10^6 - 2) * 1: every term after ceil(3 / 3) is 1
    assert griesmer_holds(10 ** 6 + 2, 10 ** 6, 3)
    assert not griesmer_holds(10 ** 6 + 1, 10 ** 6, 3)


def test_griesmer_matches_the_direct_sum():
    for q in range(1, 31):
        for d in range(1, 31):
            for r in range(1, 31):
                direct = sum(-(-r // 3 ** i) for i in range(d))
                assert griesmer_holds(q, d, r) == (q >= direct), (q, d, r)


def test_eight_cusp_code():
    code = eight_cusp_code()
    assert code.dimension == 2
    assert code.weight_distribution() == {0: 1, 6: 8}
    assert is_constant_weight(code, 6)
    got = {tuple(sorted(s)) for s in code.supports()}
    assert got == {(1, 2, 3, 4, 5, 6), (3, 4, 5, 6, 7, 8),
                   (1, 2, 3, 4, 7, 8), (1, 2, 5, 6, 7, 8)}
    assert len(got) == 4


def test_codewords_come_in_sign_pairs():
    code = eight_cusp_code()
    words = [w for w in code.codewords() if any(w)]
    for w in words:
        neg = tuple((-v) % 3 for v in w)
        assert neg in words
        assert (frozenset(i + 1 for i, v in enumerate(w) if v)
                == frozenset(i + 1 for i, v in enumerate(neg) if v))


def test_is_constant_weight_edge_cases():
    full = TernaryCode(2, [(1, 0), (0, 1)])
    assert not is_constant_weight(full, 2)
    zero = TernaryCode(2, [(0, 0)])
    assert zero.dimension == 0
    assert is_constant_weight(zero, 5)  # vacuous


def test_supports_edge_cases():
    one_dim = TernaryCode(8, [(1, 1, 1, 1, 1, 1, 0, 0)])
    assert one_dim.supports() == {frozenset(range(1, 7))}
    zero = TernaryCode(3, [(0, 0, 0)])
    assert zero.supports() == set()


def test_code_json_surface():
    import json

    payload = code_json(eight_cusp_code())
    assert json.loads(json.dumps(payload)) == payload
    assert payload["dimension"] == 2
    assert payload["generators"][1] == [0, 0, 1, 1, -1, -1, 1, 1]
    assert payload["supports"] == [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7, 8],
                                   [1, 2, 5, 6, 7, 8], [3, 4, 5, 6, 7, 8]]


def test_code_validation_and_contains():
    with pytest.raises(ValueError):
        TernaryCode(8, [(1, 1), (1, 1, 1, 1, 1, 1, 0, 0)])
    code = eight_cusp_code()
    assert code.contains((1, 1, 1, 1, 1, 1, 0, 0))
    assert code.contains((1, 1, -1, -1, 0, 0, 1, 1))
    assert not code.contains((1, 0, 0, 0, 0, 0, 0, 0))


def test_contains_matches_the_codewords(make_rng):
    rng = make_rng(43)
    for _ in range(60):
        n = rng.randint(1, 7)
        gens = [tuple(rng.randrange(3) for _ in range(n))
                for _ in range(rng.randint(0, 4))]
        code = TernaryCode(n, gens)
        words = set(code.codewords())
        # the span of the generators, by brute force
        assert words == {tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) % 3
                               for j in range(n))
                         for coeffs in product(range(3), repeat=len(gens))}
        for w in product(range(3), repeat=n):
            assert code.contains(w) == (w in words), (gens, w)
        assert not code.contains((0,) * (n + 1))
        assert not code.contains((0,) * (n - 1))


def test_enumeration_matches_rank(make_rng):
    rng = make_rng(81)
    for _ in range(30):
        gens = [tuple(rng.randrange(3) for _ in range(6))
                for _ in range(rng.randint(0, 3))]
        code = TernaryCode(6, gens)
        words = code.codewords()
        assert len(words) == 3 ** code.dimension
        assert len(set(words)) == len(words)


def test_coplanar_subsets():
    pts = eight_cusp_points()
    four = {frozenset(s) for s in coplanar_subsets(pts, 4)}
    assert frozenset({1, 2, 3, 4}) in four
    assert frozenset({5, 6, 7, 8}) not in four
    assert len(four) == 25
    five = {frozenset(s) for s in coplanar_subsets(pts, 5)}
    assert five == {frozenset(s) for s in
                    ((1, 2, 5, 7, 8), (1, 3, 5, 6, 7),
                     (2, 4, 5, 6, 8), (3, 4, 6, 7, 8))}
    assert frozenset({1, 3, 5, 6, 7}) in five  # all on x3 = 0
    with pytest.raises(ValueError):
        coplanar_subsets(pts, 3)


def test_coplanar_subsets_refuses_float_coordinates():
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0.5, 0.5, 0, 0)]
    with pytest.raises(TypeError, match="cannot coerce 0.5 into QQ"):
        coplanar_subsets(pts, 4)
    assert coplanar_subsets(pts[:3] + [("1/2", "1/2", 0, 0)], 4) == [(1, 2, 3, 4)]


def _random_point_set(rng):
    """4 to 8 rational points of P^3 with zero and negative coordinates,
    planted coplanar subsets, proportional and repeated points, and
    coordinates given as ints, Fractions and strings."""
    def rational():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    n = rng.randint(4, 8)
    plane = [[rational() for _ in range(4)] for _ in range(3)]
    points = []
    while len(points) < n:
        roll = rng.random()
        if points and roll < 0.15:  # repeated, or proportional
            scale = rational() or Fraction(-2)
            points.append([scale * c for c in rng.choice(points)])
        elif roll < 0.55:  # on the planted plane
            coeffs = [rational() for _ in plane]
            points.append([sum(a * row[j] for a, row in zip(coeffs, plane))
                           for j in range(4)])
        else:
            points.append([rational() for _ in range(4)])
        if not any(points[-1]):
            points.pop()
    forms = (lambda c: c, str, lambda c: int(c) if c.denominator == 1 else c)
    return [tuple(rng.choice(forms)(c) for c in p) for p in points]


def test_coplanar_subsets_match_the_rank_definition(make_rng):
    rng = make_rng(77)
    hits, misses = [0] * 9, [0] * 9
    for _ in range(200):
        points = _random_point_set(rng)
        rows = [[QQ.convert(c) for c in p] for p in points]
        for k in range(4, len(points) + 1):
            subsets = list(combinations(range(len(points)), k))
            expected = [tuple(i + 1 for i in sub) for sub in subsets
                        if rank([rows[i] for i in sub]) <= 3]
            assert coplanar_subsets(points, k) == expected, (points, k)
            hits[k] += len(expected)
            misses[k] += len(subsets) - len(expected)
    # both answers occur for the planted 4- and 5-subsets
    assert all(hits[k] and misses[k] for k in (4, 5)), (hits, misses)


def test_projective_keys_agree_with_point_equality(make_rng):
    rng = make_rng(78)

    def vector():
        while True:
            v = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                 for _ in range(4)]
            if any(v):
                return v

    for _ in range(300):
        u, v = vector(), vector()
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 9))
        assert projective_key(u) == projective_key([scale * c for c in u])
        assert projective_key(u) == projective_key(ProjectivePoint(u))
        assert projective_key(u) == ProjectivePoint(u).integer_coords()
        assert ((projective_key(u) == projective_key(v))
                == (ProjectivePoint(u) == ProjectivePoint(v)))
    with pytest.raises(ValueError, match="nonzero coordinate"):
        projective_key((0, "0", Fraction(0), 0))


def test_coplanarity_needs_points_of_p3():
    with pytest.raises(ValueError, match="points of P\\^3"):
        coplanar_subsets([(1, 0, 0)] * 4, 4)
    with pytest.raises(ValueError, match="nonzero coordinate"):
        coplanar_subsets([(1, 0, 0, 0)] * 3 + [(0, 0, 0, 0)], 4)


def test_configuration_symmetries_and_orbits():
    config = configuration_from_coordinate_swaps(eight_cusp_points())
    assert config.orbits() == [(1, 2, 3, 4), (5, 6), (7, 8)]
    with pytest.raises(ValueError):
        CuspConfiguration(eight_cusp_points(), ((0, 0, 1, 2, 3, 4, 5, 6),))
    with pytest.raises(ValueError):
        configuration_from_coordinate_swaps(
            [ProjectivePoint((1, 2, 3, 4))], ((0, 1),))


def test_constant_weight_code_search():
    codes = enumerate_constant_weight_codes(8, 6)
    assert len(codes) == 13440
    sample = codes[:25] + codes[-25:]
    for code in sample:
        assert code.dimension == 2
        assert is_constant_weight(code, 6)
        supps = list(code.supports())
        assert len(supps) == 4
        for a, b in combinations(supps, 2):
            assert len(a & b) == 4


def test_enumeration_finds_exactly_the_known_family():
    config = configuration_from_coordinate_swaps(eight_cusp_points())
    families = enumerate_divisible_families(config)
    assert families == [KNOWN_FAMILY]


def test_enumeration_generic_points_unconstrained():
    # moment-curve points: no 4 coplanar, trivial symmetry group
    points = [ProjectivePoint((1, i, i * i, i ** 3)) for i in range(8)]
    assert coplanar_subsets(points, 4) == []
    config = CuspConfiguration(tuple(points), ())
    families = enumerate_divisible_families(config)
    assert len(families) == 105  # every support family survives


def test_enumeration_needs_six_points():
    points = tuple(ProjectivePoint((1, i, i * i, i ** 3)) for i in range(5))
    config = CuspConfiguration(points, ())
    assert enumerate_divisible_families(config) == []


# ---------------------------------------------------------------------------
# brute-force oracle: pair search over all weight-w words
# ---------------------------------------------------------------------------
# A word of F3^q is a pair of bitmasks (ones, twos).  Two words a, b span a
# code whose nonzero words all have weight w iff a + b and a - b have weight
# w, and -b swaps the masks of b.

def _words(length, w):
    """All weight-w words of F3^length as (ones, twos) mask pairs."""
    words = []
    for supp in combinations(range(length), w):
        for signs in range(2 ** w):
            twos = sum(1 << i for b, i in enumerate(supp) if signs >> b & 1)
            words.append((sum(1 << i for i in supp) ^ twos, twos))
    return words


def _sum_weight(a, b):
    """Weight of a + b: the union of the supports minus the cancellations
    1 + 2 and 2 + 1."""
    (p, n), (r, s) = a, b
    return (p | n | r | s).bit_count() - ((p & s) | (n & r)).bit_count()


def _add(a, b):
    """a + b, from 1 = 1 + 0 = 0 + 1 = 2 + 2 and 2 = 2 + 0 = 0 + 2 = 1 + 1."""
    (p, n), (r, s) = a, b
    return ((p & ~(r | s)) | (r & ~(p | n)) | (n & s),
            (n & ~(r | s)) | (s & ~(p | n)) | (p & r))


def _residues(word, length):
    ones, twos = word
    return tuple(1 if ones >> i & 1 else 2 if twos >> i & 1 else 0
                 for i in range(length))


def _leads_with_one(word):
    ones, twos = word
    support = ones | twos
    return bool(ones & support & -support)


@cache
def pair_search(length, w):
    """(words, compat, codes): compat[i] is the bitset of the words j != i
    that span a weight-w code with words[i]; codes are the codeword sets of
    every such span, in residue form."""
    words = _words(length, w)
    compat = [0] * len(words)
    spans = set()
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            b = words[j]
            if (_sum_weight(a, b) == w
                    and _sum_weight(a, (b[1], b[0])) == w):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
                # one span per pair of projective points of the code
                if _leads_with_one(a) and _leads_with_one(b):
                    span = (a, b, _add(a, b), _add(a, (b[1], b[0])))
                    spans.add(frozenset(span + tuple((y, x) for x, y in span)))
    codes = {frozenset({(0,) * length}
                       | {_residues(v, length) for v in span})
             for span in spans}
    return words, tuple(compat), codes


def _families(codes):
    return {frozenset(frozenset(i + 1 for i, v in enumerate(word) if v)
                      for word in code if any(word))
            for code in codes}


@pytest.mark.parametrize("length, w", [(q, w) for q in range(1, 8)
                                       for w in (3, 6)] + [(8, 6)])
def test_families_match_the_pair_search(length, w):
    _, _, codes = pair_search(length, w)
    structural = constant_weight_families(length, w)
    assert len(set(structural)) == len(structural)
    assert set(structural) == _families(codes)


@pytest.mark.parametrize("length, w", [(4, 3), (5, 3), (7, 3), (8, 6)])
def test_codes_match_the_pair_search(length, w):
    found = [frozenset(c.codewords())
             for c in enumerate_constant_weight_codes(length, w)]
    assert len(set(found)) == len(found)
    assert set(found) == pair_search(length, w)[2]


def test_no_three_dimensional_constant_weight_extension():
    # cross-check of the dimension bound: no found code extends to a
    # 3-dimensional all-weight-6 code.  w extends span(v1..v4) iff w is
    # pair-compatible with every vi, so empty intersections settle it.
    words, compat, _ = pair_search(8, 6)
    index = {_residues(v, 8): i for i, v in enumerate(words)}
    for code in enumerate_constant_weight_codes(8, 6):
        reps = []
        seen = set()
        for w in code.codewords():
            if not any(w):
                continue
            neg = tuple((-v) % 3 for v in w)
            if neg in seen:
                continue
            seen.add(w)
            reps.append(index[w])
        assert len(reps) == 4
        joint = compat[reps[0]] & compat[reps[1]] & compat[reps[2]] & compat[reps[3]]
        assert not joint


@pytest.mark.parametrize("n", [8, 9, 10])
def test_weight_six_supports_meet_in_exactly_four(n):
    # S minus two of four disjoint blocks of size 2 in an 8-set S
    families = constant_weight_families(n, 6)
    assert families
    for family in families:
        assert {len(a & b) for a, b in combinations(family, 2)} == {4}


def test_no_constant_weight_families_of_weight_zero():
    assert constant_weight_families(8, 0) == []
