"""Exact and numeric dense linear algebra.

Exact side: arbitrary-precision integer/rational matrices; monic
characteristic polynomials of ExactMatrix lists (``char_polys``) and of
integer arrays (``integer_char_polys``) from one batched multi-modular
Faddeev-LeVerrier kernel in int64 with Chinese remaindering; polynomial
arithmetic with gcd-based square-free factorization.

Numeric side: full spectra and spectral radii through LAPACK, single or
batched over a stack of matrices, and a tolerance-aware eigenvalue multiset
(``Spectrum``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, ZeroPolynomial

Scalar = int | Fraction


def _normalize_scalar(x) -> Scalar:
    """Coerce to int when possible, keep Fraction otherwise. Floats are rejected."""
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


def _normalize_scalars(xs) -> tuple:
    """``xs`` as a tuple of normalized scalars; all-``int`` input (not
    ``bool``) passes straight through."""
    xs = tuple(xs)
    return xs if set(map(type, xs)) <= {int} else tuple(map(_normalize_scalar, xs))


class ExactMatrix:
    """Square matrix with exact integer or rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(_normalize_scalars, rows))
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("ExactMatrix must be square and nonempty")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def row_sums(self) -> tuple:
        return tuple(sum(row) for row in self.rows)

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.rows]!r})"


NumericMatrix = np.ndarray


def as_numeric(m) -> np.ndarray:
    """Coerce ExactMatrix / array-like input to a square float (or complex) array."""
    if isinstance(m, ExactMatrix):
        a = m.to_numpy()
    else:
        a = np.asarray(m)
        if a.dtype.kind not in "fc":
            a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"square matrix expected, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Dense polynomial with exact coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(_normalize_scalars(coeffs))
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    @classmethod
    def linear(cls, root: Scalar) -> "Polynomial":
        """The monic factor (x - root)."""
        return cls([-root, 1])

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([0])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c: Scalar) -> "Polynomial":
        return Polynomial([c * x for x in self.coeffs])

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial([0])
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial([Fraction(c, 1) / lead for c in self.coeffs])

    def float_coeffs(self) -> list[float]:
        """Coefficients as floats, jointly scaled to avoid overflow.

        The common scaling leaves the roots unchanged.
        """
        scale = max(abs(Fraction(c)) for c in self.coeffs)
        if scale == 0:
            return [0.0] * len(self.coeffs)
        return [float(Fraction(c) / scale) for c in self.coeffs]

    def coefficient_strings(self) -> list[str]:
        """Decimal coefficient strings, constant term first (CLI wire format)."""
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact division over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    div = [Fraction(c) for c in b.coeffs]
    dq = len(rem) - len(div)
    if dq < 0:
        return Polynomial([0]), a
    quo = [Fraction(0)] * (dq + 1)
    lead = div[-1]
    for k in range(dq, -1, -1):
        factor = rem[k + len(div) - 1] / lead
        quo[k] = factor
        if factor:
            for i, d in enumerate(div):
                rem[k + i] -= factor * d
    return Polynomial(quo), Polynomial(rem[: len(div) - 1] or [0])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclid)."""
    x, y = a, b
    while not y.is_zero:
        _, r = _poly_divmod(x, y)
        x, y = y, r
    if x.is_zero:
        return x
    return x.monic()


def squarefree_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's square-free decomposition: monic factors with multiplicities.

    The product of factor**multiplicity equals p up to the leading
    coefficient.
    """
    if p.is_zero:
        raise ZeroPolynomial("square-free decomposition of the zero polynomial")
    p = p.monic()
    if p.degree < 1:
        return []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    c, _ = _poly_divmod(p, g)
    dp, _ = _poly_divmod(p.derivative(), g)
    d = dp - c.derivative()
    factors = []
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            factors.append((a, i))
        c, _ = _poly_divmod(c, a)
        dq, _ = _poly_divmod(d, a)
        d = dq - c.derivative()
        i += 1
    return factors


@functools.cache
def _prime(bits: int, i: int) -> int:
    """The (i+1)-th largest prime below 2**bits, by trial division; ask for
    i - 1 first, so that the search starts from the prime before."""
    q = (1 << bits) - 1 if i == 0 else _prime(bits, i - 1) - 2
    while any(q % f == 0 for f in range(3, math.isqrt(q) + 1, 2)):
        q -= 2
    return q


def _char_coefficients(a: np.ndarray, r: int) -> list[list[int]]:
    """c_1..c_n of det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n for each A of an
    integer (m, n, n) array (int64, or object for larger ints) with absolute
    row sums at most r: the one exact char-poly kernel. |c_k| <= C(n,k) r^k <
    (1+r)^n, so the largest primes p below 2**bits, (n+1) * 4**bits <= 2**63
    (p > n at any order that fits in memory), are taken until their product
    exceeds 2 (1+r)^n. Faddeev-LeVerrier on the residues, M_1 = A, c_k =
    -tr(M_k) / k and M_(k+1) = A M_k + c_k A mod p, keeps every intermediate
    value below (n+1)(p-1)^2 < 2**63; the Chinese remainder theorem gives c_k
    in the symmetric range."""
    m, n = len(a), a.shape[2]
    bound, primes = 2 * (1 + r) ** n, []
    while math.prod(primes) <= bound:
        primes.append(_prime((63 - n.bit_length()) // 2, len(primes)))
    a = (a[:, None] % np.array(primes)[:, None, None]).astype(np.int64).reshape(-1, n, n)
    p_col = np.tile(primes, m)
    inv = np.tile([[pow(-k, -1, p) for p in primes] for k in range(1, n + 1)], m)
    residues, m_k = [], a
    for k in range(n):
        # inv[k] = -1/(k+1) mod p; tr(M_k) <= n (p-1), so their product is below 2**63
        c = m_k.trace(axis1=1, axis2=2) * inv[k] % p_col
        residues.append(c)
        if k + 1 < n:
            m_k = (a @ m_k + c[:, None, None] * a) % p_col[:, None, None]
    half = (big := math.prod(primes)) // 2
    weights = [big // p * pow(big // p, -1, p) for p in primes]
    by_matrix = np.reshape(residues, (n, m, len(primes))).transpose(1, 0, 2)
    return [
        [(sum(map(operator.mul, rs, weights)) + half) % big - half for rs in by_k]
        for by_k in by_matrix.tolist()
    ]


def char_polys(matrices: list[ExactMatrix]) -> list[Polynomial]:
    """Exact monic characteristic polynomials det(xI - M), in input order,
    from one ``_char_coefficients`` pass per order: each matrix scaled to
    integers by the lcm d of its denominators (c_k / d^k is M's
    coefficient), as Python ints if a row sum reaches 2**62."""
    out: list[Polynomial] = [None] * len(matrices)
    for n in dict.fromkeys(m.n for m in matrices):
        members = [i for i, m in enumerate(matrices) if m.n == n]
        scaled = []  # (d, integer rows, largest absolute row sum)
        for i in members:
            rows = matrices[i].rows
            d = math.lcm(*map(operator.attrgetter("denominator"), itertools.chain(*rows)))
            if d > 1:
                rows = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
            scaled.append((d, rows, max(sum(map(abs, row)) for row in rows)))
        r = max(r for *_, r in scaled)
        a = np.array([rows for _, rows, _ in scaled], dtype=np.int64 if r < 2**62 else object)
        for i, (d, _, _), cs in zip(members, scaled, _char_coefficients(a, r)):
            cs = [c if d == 1 else Fraction(c, d**k) for k, c in enumerate(cs, 1)]
            out[i] = Polynomial([*reversed(cs), 1])
    return out


def integer_char_polys(stack: np.ndarray) -> list[Polynomial]:
    """``char_polys`` of each matrix of a signed integer (m, n, n) array, such
    as a ``graphs.build_matrices`` stack, with no Python row built."""
    a = np.asarray(stack, dtype=np.int64)
    # float row sums below 2**53 are exact; past it, the rows are summed in Python
    r = np.abs(a.astype(np.float64)).sum(axis=2).max(initial=0)
    r = int(r) if r < 2**53 else np.abs(a.astype(object)).sum(axis=2).max()
    return [Polynomial([*reversed(cs), 1]) for cs in _char_coefficients(a, r)]


def char_poly(m: ExactMatrix) -> Polynomial:
    """Exact monic characteristic polynomial det(xI - M) (see ``char_polys``)."""
    return char_polys([m])[0]


# ---------------------------------------------------------------------------
# spectra


# real parts this close are one group when a spectrum is expanded for pairing
_RE_TIE = 1e-6
# the numeric verdict tolerance: spectra this close are equal, and a claim's
# max_deviation passes at most this far off
_NUMERIC_TOL = 1e-7


def _sort_key(v: complex):
    return (-v.real, -v.imag)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset: (value, multiplicity) pairs.

    Values are stored sorted by (real, imaginary) descending so reports are
    deterministic. Multiset comparison expands multiplicities, sorts both
    sides the same way (real parts tying within 1e-6 are grouped before the
    imaginary ordering applies) and pairs entries positionally; this is
    stable and adequate for well-separated spectra but can mispair
    eigenvalue clusters tighter than the tolerance.
    """

    pairs: tuple[tuple[complex, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Spectrum":
        merged: dict[complex, int] = {}
        for value, mult in pairs:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            value = complex(value)
            merged[value] = merged.get(value, 0) + mult
        ordered = tuple(sorted(merged.items(), key=lambda kv: _sort_key(kv[0])))
        return cls(ordered)

    @classmethod
    def from_values(cls, values, cluster_tol: float = 1e-6) -> "Spectrum":
        """Cluster raw numeric eigenvalues into (value, multiplicity) pairs.

        Chained clustering: consecutive values (in (re, im) order) closer
        than cluster_tol join the current cluster; the reported value is the
        cluster mean.
        """
        vs = sorted((complex(v) for v in values), key=_sort_key)
        pairs = []
        i = 0
        while i < len(vs):
            j = i + 1
            while j < len(vs) and abs(vs[j] - vs[j - 1]) <= cluster_tol:
                j += 1
            chunk = vs[i:j]
            mean = sum(chunk) / len(chunk)
            pairs.append((mean, len(chunk)))
            i = j
        return cls(tuple(pairs))

    @property
    def order(self) -> int:
        return sum(m for _, m in self.pairs)

    def values(self) -> list[complex]:
        """Expanded eigenvalue list (multiplicities repeated), sorted descending."""
        out = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return out

    def _canonical_values(self) -> list[complex]:
        """Expansion ordered for cross-list pairing.

        Real parts within ``_RE_TIE`` of each other are grouped (chain rule)
        before the imaginary ordering applies, so a conjugate pair and a
        real eigenvalue sharing a real part line up identically on both
        sides of a comparison despite 1-ulp noise.
        """
        vs = sorted(self.values(), key=lambda v: -v.real)
        out: list[complex] = []
        i = 0
        while i < len(vs):
            j = i + 1
            while j < len(vs) and vs[j - 1].real - vs[j].real <= _RE_TIE:
                j += 1
            out.extend(sorted(vs[i:j], key=lambda v: -v.imag))
            i = j
        return out

    def max_real(self) -> float:
        return max(v.real for v, _ in self.pairs)

    def isclose(self, other: "Spectrum", tol: float = _NUMERIC_TOL) -> bool:
        """Multiset equality: positional pairing of both sorted expansions."""
        return self.deviation(other) < tol

    def deviation(self, other: "Spectrum") -> float:
        """Largest positional pairing distance (inf when the orders differ)."""
        a, b = self._canonical_values(), other._canonical_values()
        if len(a) != len(b):
            return math.inf
        if not a:
            return 0.0
        return max(abs(x - y) for x, y in zip(a, b))

    def contains(self, other: "Spectrum", tol: float = _NUMERIC_TOL) -> bool:
        """One-sided multiset inclusion with multiplicity accounting."""
        return self.containment_deviation(other) < tol

    def containment_deviation(self, other: "Spectrum") -> float:
        """Greedy matching of other into self, each target taking the first
        strictly nearest unused value; the worst match distance (inf when a
        target finds no unused value)."""
        pool = self.values()
        used = [False] * len(pool)
        worst = 0.0
        for target in other.values():
            best, best_dist = None, math.inf
            for idx, v in enumerate(pool):
                if used[idx]:
                    continue
                d = abs(v - target)
                if d < best_dist:
                    best, best_dist = idx, d
            if best is None:
                return math.inf
            used[best] = True
            worst = max(worst, best_dist)
        return worst

    def to_json(self) -> list[dict]:
        return [
            {"re": v.real, "im": v.imag, "mult": m} for v, m in self.pairs
        ]


def _eigvals(a: np.ndarray, general: bool = False) -> np.ndarray:
    """Eigenvalues of a square matrix, or of each matrix of a (k, n, n) stack.

    Real symmetric input goes to the symmetric solver (real output) unless
    ``general`` is set; anything else to the general one, which may yield
    complex values. A stack goes to the symmetric solver only when every
    matrix in it is symmetric.
    """
    try:
        if not general and a.dtype.kind != "c" and np.array_equal(a, np.swapaxes(a, -1, -2)):
            return np.linalg.eigvalsh(a)
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise ConvergenceFailure(str(exc)) from exc


def _eigvals_groups(stack: np.ndarray, general: bool = False):
    """The eigenvalues of a (k, n, n) stack as (indices, values) groups, from
    one symmetric solver call for its real symmetric matrices (unless
    ``general`` is set) and one general call for the rest. Each matrix gets
    the values a call on it alone gives, bit for bit."""
    if general or stack.dtype.kind == "c":
        symmetric = np.zeros(len(stack), dtype=bool)
    else:
        symmetric = (stack == np.swapaxes(stack, 1, 2)).all(axis=(1, 2))
    for sym, group in ((True, symmetric), (False, ~symmetric)):
        members = np.flatnonzero(group)
        if members.size:
            # a run of the stack is solved in place, anything else copied
            run = members[-1] - members[0] + 1 == members.size
            part = stack[members[0] : members[-1] + 1] if run else stack[group]
            yield members, _eigvals(part, not sym)


def eigvals_stack(stack: np.ndarray) -> list[np.ndarray]:
    """Each matrix's eigenvalues from ``_eigvals_groups``: a real value may be
    complex with a zero imaginary part, when its group has complex ones."""
    out: list[np.ndarray] = [None] * len(stack)
    for members, values in _eigvals_groups(stack):
        for i, matrix_values in zip(members, values):
            out[i] = matrix_values
    return out


def eigenvalues(m, cluster_tol: float = 1e-6) -> Spectrum:
    """All eigenvalues of a dense matrix as a Spectrum.

    Symmetric input is routed to the symmetric solver (real output);
    general input may yield complex values.
    """
    return Spectrum.from_values(_eigvals(as_numeric(m)), cluster_tol)


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(_eigvals(as_numeric(m)))))


# ---------------------------------------------------------------------------
# polynomial roots


def _horner(coeffs: list[float], x: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _float_derivative(coeffs: list[float]) -> list[float]:
    """Derivative of float coefficients; keeps the caller's scaling."""
    return [i * c for i, c in enumerate(coeffs)][1:] or [0.0]


def _newton_polish(coeffs: list[float], x: complex) -> complex:
    dcoeffs = _float_derivative(coeffs)
    for _ in range(40):
        fx = _horner(coeffs, x)
        dfx = _horner(dcoeffs, x)
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def poly_roots(p: Polynomial) -> Spectrum:
    """All complex roots with exact multiplicities.

    Square-free factorization over the rationals first, so every root handed
    to the numeric stage is simple: companion-matrix roots followed by Newton
    polishing converge quadratically, and multiplicities are exact by
    construction rather than inferred from clustering.
    """
    if p.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial are undefined")
    if p.degree < 1:
        return Spectrum.from_pairs([])
    pairs = []
    for factor, mult in squarefree_factors(p):
        fc = factor.float_coeffs()
        if factor.degree == 1:
            a0, a1 = factor.coeffs
            roots = [complex(-Fraction(a0) / Fraction(a1))]
        else:
            roots = list(np.roots(list(reversed(fc))))
            roots = [_newton_polish(fc, complex(r)) for r in roots]
        for r in roots:
            if abs(r.imag) <= 1e-10 * max(1.0, abs(r.real)):
                r = complex(r.real, 0.0)
            pairs.append((r, mult))
    return Spectrum.from_pairs(pairs)


def largest_real_root(p: Polynomial) -> float:
    """Largest real root of a cubic with exact coefficients; any other
    degree raises ValueError.

    Closed form (trigonometric branch for three real roots, Cardano
    otherwise); every real root is Newton-polished against the exact
    polynomial before the largest is taken, which avoids branch-selection
    ambiguity.
    """
    if p.degree != 3:
        raise ValueError(f"cubic expected, got degree {p.degree}")
    a3, a2, a1, a0 = (float(Fraction(c)) for c in reversed(p.coeffs))
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # depressed cubic t^3 + pt + q with x = t - b/3
    pp = c - b * b / 3.0
    qq = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
    roots: list[float]
    if disc <= 0:
        # three real roots
        r = math.sqrt(max(-(pp**3) / 27.0, 0.0))
        theta = math.acos(max(-1.0, min(1.0, -qq / (2.0 * r)))) if r > 0 else 0.0
        m = 2.0 * math.sqrt(max(-pp / 3.0, 0.0))
        roots = [m * math.cos((theta + 2.0 * math.pi * k) / 3.0) for k in range(3)]
    else:
        s = math.sqrt(disc)
        u = math.copysign(abs(-qq / 2.0 + s) ** (1.0 / 3.0), -qq / 2.0 + s)
        v = math.copysign(abs(-qq / 2.0 - s) ** (1.0 / 3.0), -qq / 2.0 - s)
        roots = [u + v]
    fc = p.float_coeffs()
    return max(_newton_polish(fc, complex(t - b / 3.0, 0.0)).real for t in roots)
