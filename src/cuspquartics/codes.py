"""Ternary linear codes attached to cusp configurations.

Words live in F3^q with the output convention that the residue 2 prints as
-1.  A code is given by generator words; its echelon form and membership
come from ``linalg.rref`` over GF(3).  Supports of nonzero codewords are
the combinatorial shadows of candidate three-divisible cusp sets.  By
Bonisoli's theorem (Ars Combin. 18, 1984) a two-dimensional ternary code
whose nonzero words all have weight 3m is a replicated [4, 2, {3}] simplex
code: its support is split into four blocks of size m, one per point of
PG(1, 3).  The enumeration builds the support families from these set
partitions directly (two supports of a family meet in exactly 2m
coordinates) and filters them by symmetry invariance and coplanarity, read
from integer 4x4 determinants; points are keyed by primitive integer
vectors, so the layer needs no ``geometry``.
"""

import operator
from collections import namedtuple
from itertools import combinations, product

from . import linalg
from .polyring import GF, QQ

F3 = GF(3)


def f3_word(values):
    """Normalize a word to residues 0, 1, 2 (accepts -1 for 2)."""
    return tuple(operator.index(v) % 3 for v in values)


def signed_word(word):
    """Output form with residue 2 rendered as -1."""
    return tuple(-1 if v % 3 == 2 else v % 3 for v in word)


def weight(word):
    """Number of nonzero coordinates."""
    return sum(1 for v in word if v % 3 != 0)


def griesmer_holds(q, d, r):
    """The ternary Griesmer inequality q >= sum_{i<d} ceil(r / 3^i)."""
    if q < 1 or d < 1 or r < 1:
        raise ValueError("q, d, r must be positive")
    total = i = 0
    while i < d and 3 ** i < r:
        total += -(-r // 3 ** i)
        i += 1
    # every later term ceil(r / 3^i) is 1
    return q >= total + d - i


class TernaryCode:
    """A linear code over F3 given by generator words."""

    def __init__(self, length, generators):
        self.length = length
        self.generators = tuple(f3_word(g) for g in generators)
        for g in self.generators:
            if len(g) != length:
                raise ValueError(f"generator {signed_word(g)} has length "
                                 f"{len(g)}, expected {length}")
        rows, pivots = linalg.rref(self.generators, F3)
        self.matrix = tuple(tuple(r) for r in rows[:len(pivots)])
        self.pivots = tuple(pivots)
        self.dimension = len(pivots)

    def codewords(self):
        """All 3^d codewords, in deterministic order."""
        words = []
        # the coefficient of the first row varies fastest
        for coeffs in product(range(3), repeat=self.dimension):
            word = [0] * self.length
            for c, row in zip(reversed(coeffs), self.matrix):
                if c:
                    word = [(w + c * x) % 3 for w, x in zip(word, row)]
            words.append(tuple(word))
        return words

    def contains(self, word):
        word = f3_word(word)
        if len(word) != self.length:
            return False
        return len(linalg.rref(self.matrix + (word,), F3)[1]) == self.dimension

    def weight_distribution(self):
        dist = {}
        for w in self.codewords():
            k = weight(w)
            dist[k] = dist.get(k, 0) + 1
        return dist

    def supports(self):
        """Supports of the nonzero codewords, as 1-based index sets."""
        return {frozenset(i + 1 for i, v in enumerate(w) if v)
                for w in self.codewords() if any(w)}

    def __repr__(self):
        return f"TernaryCode(length={self.length}, dimension={self.dimension})"


def eight_cusp_code():
    """The [8, 2, {6}] code spanned by 11111100 and 0011(-1)(-1)11."""
    return TernaryCode(8, [(1, 1, 1, 1, 1, 1, 0, 0),
                           (0, 0, 1, 1, -1, -1, 1, 1)])


def is_constant_weight(code, r):
    """True iff every nonzero codeword has weight exactly r."""
    return all(weight(w) == r for w in code.codewords() if any(w))


# ---------------------------------------------------------------------------
# configurations and coplanarity
# ---------------------------------------------------------------------------

# P1..P8 of the eight-cusp quartic; ``geometry.eight_cusp_points`` reads them
EIGHT_CUSP_POINTS = ((1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0),
                     (0, 1, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0),
                     (0, 0, 1, 0), (0, 0, 0, 1))


def projective_key(point):
    """The primitive integer vector of a point given by rational coordinates
    or as a ``ProjectivePoint``: proportional points get equal keys."""
    key = linalg.primitive_integer_vector(
        [QQ.convert(c) for c in getattr(point, "coords", point)])
    if not any(key):
        raise ValueError("projective point needs a nonzero coordinate")
    return key


def _det4(a, b, c, d):
    """4x4 determinant: 2x2 minors of a, b times complementary ones of c, d."""
    pairs = list(combinations(range(4), 2))
    return sum((-1) ** (i + j + 1) * (a[i] * b[j] - a[j] * b[i])
               * (c[k] * d[l] - c[l] * d[k])
               for (i, j), (k, l) in zip(pairs, reversed(pairs)))


def coplanar_subsets(points, k):
    """All k-subsets of the points of P^3 whose coordinate matrix has rank
    <= 3, that is, all of whose 4-subsets have determinant 0."""
    if k < 4:
        raise ValueError("coplanarity only constrains k >= 4 points")
    keys = [projective_key(p) for p in points]
    if any(len(v) != 4 for v in keys):
        raise ValueError("coplanarity needs points of P^3")
    flat = {q: not _det4(*(keys[i] for i in q))
            for q in combinations(range(len(keys)), 4)}
    return [tuple(i + 1 for i in sub)
            for sub in combinations(range(len(keys)), k)
            if all(flat[q] for q in combinations(sub, 4))]


class CuspConfiguration(namedtuple("CuspConfiguration", "points symmetries")):
    """Labelled points plus the index permutations of their symmetries."""

    __slots__ = ()

    def __new__(cls, points, symmetries):
        n = len(points)
        for perm in symmetries:
            if sorted(perm) != list(range(n)):
                raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
        return super().__new__(cls, points, symmetries)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: check its records too
        return cls(*iterable)

    def orbits(self):
        """Orbit partition of the indices under the symmetry group (1-based)."""
        n = len(self.points)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for perm in self.symmetries:
            for i, j in enumerate(perm):
                parent[find(i)] = find(j)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i + 1)
        return sorted(tuple(g) for g in groups.values())


def configuration_from_coordinate_swaps(points, swaps=((0, 1), (2, 3))):
    """Build a configuration whose symmetries swap coordinate pairs."""
    points = tuple(points)
    keys = [projective_key(p) for p in points]
    index = {key: i for i, key in enumerate(keys)}
    perms = []
    for i, j in swaps:
        perm = []
        for key in keys:
            c = list(key)
            c[i], c[j] = c[j], c[i]
            image = linalg.primitive_integer_vector(c)
            if image not in index:
                raise ValueError(f"swap x{i}<->x{j} does not preserve the points")
            perm.append(index[image])
        perms.append(tuple(perm))
    return CuspConfiguration(points, tuple(perms))


# ---------------------------------------------------------------------------
# two-dimensional constant-weight codes from set partitions
# ---------------------------------------------------------------------------

# the four points of PG(1, 3), labelling the blocks of a partition in order
_SIMPLEX_COLUMNS = ((1, 0), (0, 1), (1, 1), (1, 2))


def _equal_partitions(items, m):
    """Unordered partitions of items into blocks of size m, each once: the
    blocks keep the order of items and are listed by their first element."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for others in combinations(rest, m - 1):
        left = tuple(i for i in rest if i not in others)
        for tail in _equal_partitions(left, m):
            yield ((first,) + others,) + tail


def _simplex_partitions(length, w):
    """(support, blocks) of every replicated simplex code of weight w: a
    4m-subset of the 0-based coordinates with w = 3m, split into 4 blocks
    of size m.  Nothing when 3 does not divide w."""
    m, rest = divmod(w, 3)
    if rest or m < 1:
        return
    for support in combinations(range(length), 4 * m):
        for blocks in _equal_partitions(support, m):
            yield support, blocks


def constant_weight_families(length, w):
    """Support families of the 2-dimensional codes of the given length whose
    nonzero words all have weight w, each family a frozenset of the four
    1-based supports {S minus B : B a block}; each family appears once.
    """
    families = []
    for support, blocks in _simplex_partitions(length, w):
        whole = frozenset(i + 1 for i in support)
        families.append(frozenset(whole - {i + 1 for i in block}
                                  for block in blocks))
    return families


def enumerate_constant_weight_codes(length, w):
    """All 2-dimensional codes of the given length whose nonzero words all
    have weight w, each exactly once.

    The generator matrix of a partition whose blocks are labelled in order
    by (1:0), (0:1), (1:1), (1:2) and of signs s_i has the column
    s_i * label(i) at coordinate i of the support.  GL(2, 3) acts freely on
    such matrices and only -1 keeps every label, so fixing the first sign
    to +1 leaves one matrix per code: 2^(4m - 1) codes per partition.
    """
    codes = []
    for support, blocks in _simplex_partitions(length, w):
        label = {i: point for point, block in zip(_SIMPLEX_COLUMNS, blocks)
                 for i in block}
        for signs in range(0, 2 ** len(support), 2):  # bit 0 clear: s = +1
            rows = ([0] * length, [0] * length)
            for b, i in enumerate(support):
                s = -1 if signs >> b & 1 else 1
                rows[0][i], rows[1][i] = (s * x for x in label[i])
            codes.append(TernaryCode(length, rows))
    return codes


def enumerate_divisible_families(config):
    """Candidate three-divisible support families on a configuration.

    Takes the support family of every 2-dimensional constant-weight-6 code,
    keeps those that are invariant under the symmetry group and contain no
    coplanar 5-subset, and returns them sorted.  These are the necessary
    conditions; the output is a superset of the true three-divisible
    families.  Two supports of a family, S minus two of its four disjoint
    blocks of size 2, always meet in exactly 4 indices, so the overlap
    bound needs no check.
    """
    points = config.points
    coplanar5 = {frozenset(s) for s in coplanar_subsets(points, 5)}
    kept = []
    for family in constant_weight_families(len(points), 6):
        if not _symmetry_invariant(family, config.symmetries):
            continue
        if any(c <= s for s in family for c in coplanar5):
            continue
        kept.append(tuple(sorted(tuple(sorted(s)) for s in family)))
    return sorted(kept)


def _symmetry_invariant(family, symmetries):
    for perm in symmetries:
        mapped = frozenset(frozenset(perm[i - 1] + 1 for i in s) for s in family)
        if mapped != family:
            return False
    return True
