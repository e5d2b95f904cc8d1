"""Exact arithmetic in the cyclotomic field Q(z), z = primitive 12th root of unity.

Every coefficient in this package is either a ``fractions.Fraction`` or a
``CycNum``.  The field Q(z) has degree 4 over Q with minimal polynomial
z^4 = z^2 - 1, and contains Q, the cube roots of unity (z^4), the fourth
roots (z^3) and sqrt(3) = z + z^11.  Elements are stored in the canonical
basis 1, z, z^2, z^3, so equality is coefficient-wise and values are
hashable.  CycNum interoperates with Fraction and int through the usual
reflected operators, which lets most of the package work with plain
rationals and only promote where a root of unity actually enters.  Its
product is _zmul, the one product formula of the field, which the
integer rows over Z[z] below use as well.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = ["CycNum", "zeta", "sqrt3", "cyc", "rational_str", "coeff_str"]

_F0 = Fraction(0)
_F1 = Fraction(1)

# z^k for k = 0..11 in the basis (1, z, z^2, z^3):
#   z^4 = z^2 - 1, z^5 = z^3 - z, z^6 = -1, z^(6+k) = -z^k.
_ZPOW = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 1, 0),
    (0, -1, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, -1, 0),
    (0, 1, 0, -1),
)


class CycNum:
    """An element a + b z + c z^2 + d z^3 of Q(z) with rational a, b, c, d."""

    __slots__ = ("co",)

    def __init__(self, a=0, b=0, c=0, d=0):
        self.co = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def _raw(cls, co):
        self = object.__new__(cls)
        self.co = co
        return self

    @classmethod
    def _from(cls, x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return cls._raw((Fraction(x), _F0, _F0, _F0))
        return None

    # -- structure ---------------------------------------------------------

    def is_rational(self):
        co = self.co
        return not co[1] and not co[2] and not co[3]

    def rational_part(self):
        """The element as a Fraction; raises if it is not rational."""
        if not self.is_rational():
            raise ValueError("element %s is not rational" % (self,))
        return self.co[0]

    def as_integer_ratio(self):
        """(numerator, denominator) of a rational element, as for Fraction;
        raises ValueError otherwise."""
        return self.rational_part().as_integer_ratio()

    def conjugate(self):
        """Complex conjugation, the field map z -> z^11."""
        a, b, c, d = self.co
        # z -> z^11 = z - z^3, z^2 -> z^10 = 1 - z^2, z^3 -> z^9 = -z^3
        return CycNum._raw((a + c, b, -c, -b - d))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        a, b = self.co, o.co
        return CycNum._raw((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    __radd__ = __add__

    def __sub__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        a, b = self.co, o.co
        return CycNum._raw((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __rsub__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        a = self.co
        return CycNum._raw((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        return CycNum._raw(_zmul(self.co, o.co))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("division by zero in Q(z)")
        if self.is_rational():
            return CycNum._raw((1 / self.co[0], _F0, _F0, _F0))
        # self = x / s over Z[z], so self^-1 = s q / N for q the cofactor
        # of x and N = x q its norm
        (x,), s = _cyc_row([self])
        q = _zcofactor(x)
        return CycNum(*q) * (s / CycNum(*_zmul(x, q)).rational_part())

    def __truediv__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = CycNum._from(other)
        if o is None:
            return NotImplemented
        return self.co == o.co

    def __hash__(self):
        if self.is_rational():
            return hash(self.co[0])
        return hash(self.co)

    def __bool__(self):
        a = self.co
        return bool(a[0] or a[1] or a[2] or a[3])

    def __repr__(self):
        return "CycNum(%s)" % coeff_str(self)


_ONE = CycNum._raw((_F1, _F0, _F0, _F0))


def zeta(level, power=1):
    """zeta_level^power as a CycNum; level must divide 12."""
    if level not in (1, 2, 3, 4, 6, 12):
        raise ValueError("unsupported cyclotomic level %r: must divide 12" % (level,))
    return CycNum._raw(tuple(Fraction(t) for t in _ZPOW[(12 // level) * power % 12]))


def sqrt3():
    """The positive square root of 3, z + z^11 = 2z - z^3."""
    return CycNum(0, 2, 0, -1)


def cyc(x):
    """Coerce an int, Fraction or CycNum to CycNum."""
    o = CycNum._from(x)
    if o is None:
        raise TypeError("cannot coerce %r to CycNum" % (x,))
    return o


def rational_str(q):
    """Serialize a rational as 'p' or 'p/q'."""
    q = Fraction(q)
    return str(q)


def coeff_str(x):
    """Serialize a coefficient exactly: 'a + b*z + c*z^2 + d*z^3' (terms with
    zero coefficient dropped, plain 'a' for rationals)."""
    if isinstance(x, (int, Fraction)):
        return rational_str(x)
    if x.is_rational():
        return rational_str(x.co[0])
    parts = []
    for q, name in zip(x.co, ("", "z", "z^2", "z^3")):
        if not q:
            continue
        parts.append(rational_str(q) if not name else "%s*%s" % (rational_str(q), name))
    return " + ".join(parts) if parts else "0"


# -- integer rows over Z[z] ------------------------------------------------------
#
# An element of Z[z] is a 4-tuple of ints (a, b, c, d) = a + bz + cz^2 + dz^3,
# multiplied by _zmul with the reduction z^4 = z^2 - 1, as CycNum is.  A
# row is a list whose entries are 0 or a nonzero 4-tuple.  A row over Q(z)
# is held as (ints, s): the row times one positive rational s, with the gcd
# of all its integer coefficients 1, which makes the pair unique for the row
# (_cyc_row builds it, _zdiv turns an entry back into a Fraction or CycNum).
# linalg eliminates on such rows and multiplies matrices held the same way
# over one scale; w2 multiplies weight-two vectors in them; commutants keeps
# the structure constants of an FDAlgebra in them; involutions holds its
# maps in them across powers, products and group closure.

class _ZRow(list):
    """A row of Q(z) entries that keeps its Z[z] form, so that a row used in
    many products is converted once; _cyc_row returns that form.  Its
    entries must not change after construction."""

    __slots__ = ("z",)

    def __init__(self, row):
        super().__init__(row)
        self.z = _cyc_row(list(self))


def _cyc_row(row):
    """(ints, s): the row over Q(z) times s, over Z[z] with content 1."""
    if type(row) is _ZRow:
        return list(row.z[0]), row.z[1]
    dens = []
    for x in row:
        if type(x) is CycNum:
            dens.extend(q.denominator for q in x.co)
        else:
            dens.append(x.denominator)
    d = lcm(*dens)
    ints = []
    for x in row:
        if not x:
            ints.append(0)
        elif type(x) is CycNum:
            ints.append(tuple(q.numerator * d // q.denominator for q in x.co))
        else:
            ints.append((x.numerator * d // x.denominator, 0, 0, 0))
    ints, g = _cyc_content(ints)
    return ints, Fraction(d, g)


def _cyc_content(ints):
    """(ints / g, g) for g the gcd of the coefficients (1 for a zero row)."""
    g = gcd(*[t for x in ints if x for t in x])
    if g > 1:
        return [tuple(t // g for t in x) if x else 0 for x in ints], g
    return ints, 1


def _zmul(a, b):
    """Product in Z[z], reduced by z^4 = z^2 - 1; on Fraction coefficients
    it is the product of Q(z), which CycNum.__mul__ uses."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if not (a1 or a2 or a3):
        return (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
    if not (b1 or b2 or b3):
        return (b0 * a0, b0 * a1, b0 * a2, b0 * a3)
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p5 = a2 * b3 + a3 * b2
    return (a0 * b0 - p4 - a3 * b3,
            a0 * b1 + a1 * b0 - p5,
            a0 * b2 + a1 * b1 + a2 * b0 + p4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + p5)


def _zcofactor(x):
    """The product of the conjugates of the Z[z] element x under z -> z^5,
    z^7 and z^11: x times it is the norm of x, a rational integer."""
    a, b, c, d = x
    return _zmul(_zmul((a + c, -b, -c, b + d), (a, -b, c, -d)),
                 (a + c, b, -c, -b - d))


def _zdiv(x, s):
    """The Z[z] element x over the positive rational s: a Fraction when x is
    rational, a CycNum otherwise."""
    n, d = s.denominator, s.numerator
    a, b, c, e = x
    if not (b or c or e):
        return Fraction(a * n, d)
    return CycNum._raw((Fraction(a * n, d), Fraction(b * n, d),
                        Fraction(c * n, d), Fraction(e * n, d)))
