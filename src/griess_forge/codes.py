"""Ternary linear codes: the tetracode and the length-12 Golay code.

Words are tuples over {0, 1, 2} with arithmetic mod 3.  The Golay code is
assembled from three length-4 blocks (b0, b1, b2) subject to
b0 - b1 + b2 = -sum(b0) * (1,1,1,1) and -b1 - b2 in the tetracode, which
is the block description used for gluing twelve A2 components into the
Niemeier lattice.  That description needs the "slope" coordinates of the
tetracode (rows (1,0,1,2) and (0,1,1,1)); the 2x4 generator displayed for
identifying cosets of the 3A node sublattice is the equivalent code with
rows (1,1,1,0) and (1,-1,0,1).  Both are self-dual with weight enumerator
1 + 8 z^3.
"""

__all__ = ["TernaryCode", "tetracode", "tetracode_slope", "golay12"]


def _mod3(w):
    return tuple(x % 3 for x in w)


def _add(a, b):
    return tuple((x + y) % 3 for x, y in zip(a, b))


def _neg(a):
    return tuple((-x) % 3 for x in a)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b)) % 3


def _weight(a):
    return sum(1 for x in a if x)


class TernaryCode:
    """A linear code over F_3 given by generator rows in {-1, 0, 1}."""

    __slots__ = ("length", "generators", "_words", "_word_set")

    def __init__(self, length, generators):
        self.length = length
        self.generators = [_mod3(g) for g in generators]
        for g in self.generators:
            if len(g) != length:
                raise ValueError("generator length mismatch")
        self._words = None

    def words(self):
        """All codewords, sorted; computed once by spanning the generators,
        together with the set that membership tests look up."""
        if self._words is None:
            span = {tuple([0] * self.length)}
            for g in self.generators:
                new = set()
                for w in span:
                    new.add(w)
                    new.add(_add(w, g))
                    new.add(_add(_add(w, g), g))
                span = new
            self._words = sorted(span)
            self._word_set = span
        return self._words

    def __len__(self):
        return len(self.words())

    def __contains__(self, w):
        self.words()
        return _mod3(w) in self._word_set

    def dimension(self):
        """Rank of the generator rows over F_3, by elimination."""
        rows = [list(g) for g in self.generators]
        k = 0
        for c in range(self.length):
            p = next((i for i in range(k, len(rows)) if rows[i][c]), None)
            if p is None:
                continue
            rows[k], rows[p] = rows[p], rows[k]
            for i in range(k + 1, len(rows)):
                # the pivot is 1 or 2 = -1, each its own inverse mod 3
                f = rows[i][c] * rows[k][c]
                rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], rows[k])]
            k += 1
        return k

    def minimum_weight(self):
        return min(_weight(w) for w in self.words() if any(w))

    def weight_enumerator(self):
        counts = {}
        for w in self.words():
            counts[_weight(w)] = counts.get(_weight(w), 0) + 1
        return dict(sorted(counts.items()))

    def is_self_dual(self):
        ws = self.words()
        if len(ws) * len(ws) != 3 ** self.length:
            return False
        gens = self.generators
        return all(_dot(g, h) == 0 for g in gens for h in gens)

    def is_closed(self):
        ws = set(self.words())
        return all(_add(a, b) in ws for a in ws for b in ws)


def tetracode():
    """The tetracode in the coset-labelling coordinates (rows (1,1,1,0), (1,-1,0,1))."""
    return TernaryCode(4, [(1, 1, 1, 0), (1, -1, 0, 1)])


def tetracode_slope():
    """The tetracode in slope coordinates (a, b, a+b, 2a+b); the version the
    Golay-code block construction is stated in."""
    return TernaryCode(4, [(1, 0, 1, 2), (0, 1, 1, 1)])


def golay12():
    """The ternary Golay code of length 12 built from the tetracode.

    A word is (c0, -c+, c-) with c0 + c+ + c- = -sum(c0) * (1,1,1,1) and
    c+ - c- in the slope tetracode; the coordinate convention is fixed so
    that the two glue codewords used for the Leech-lattice embedding are
    members (asserted in the tests, not assumed).
    """
    tet = tetracode_slope()
    gens = []
    # for each generator pair (c0, d) there is a unique word: with
    # s = -sum(c0)*(1,1,1,1) - c0 one has c+ = 2*(s + d), c- = 2*(s - d)
    # because 2 is the inverse of 2 mod 3.
    seeds = [((1, 0, 0, 0), (0, 0, 0, 0)),
             ((0, 1, 0, 0), (0, 0, 0, 0)),
             ((0, 0, 1, 0), (0, 0, 0, 0)),
             ((0, 0, 0, 1), (0, 0, 0, 0)),
             ((0, 0, 0, 0), (1, 0, 1, 2)),
             ((0, 0, 0, 0), (0, 1, 1, 1))]
    for c0, d in seeds:
        s = _add(_neg(tuple([sum(c0) % 3] * 4)), _neg(c0))
        cp = tuple((2 * (x + y)) % 3 for x, y in zip(s, d))
        cm = tuple((2 * (x - y)) % 3 for x, y in zip(s, d))
        gens.append(c0 + _neg(cp) + cm)
    code = TernaryCode(12, gens)
    if len(code) != 729:
        raise AssertionError("Golay construction produced %d words" % len(code))
    return code
