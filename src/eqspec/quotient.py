"""Vertex partitions, quotient matrices, and the block-spectrum engine.

A partition of the index set turns a square matrix into a block matrix; the
quotient holds each block's average row sum. When every block has constant
row sums (an equitable partition), quotient eigenvalues lift to the full
matrix, and for matrices whose blocks are J/I combinations the full spectrum
splits into the quotient spectrum plus explicitly known repeated values.

Every equitability test and quotient of a given matrix comes from one
routine, ``_equitable_quotient``, which sums cells (an ExactMatrix exactly).
The probe campaigns realize only ``BlockSpec`` matrices, which are
equitable by construction, so their quotients come from the block
coefficients in closed form and no cell is summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotEquitable,
    NotNonnegative,
    NotSymmetric,
    ParseError,
)
from .linalg import (
    _NUMERIC_TOL,
    ExactMatrix,
    Scalar,
    Spectrum,
    _eigvals,
    _eigvals_groups,
    _normalize_scalar,
    as_numeric,
    eigenvalues,
)


class Partition:
    """Ordered list of disjoint, sorted cells covering {0..n-1}."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        cells = tuple(tuple(sorted(int(i) for i in cell)) for cell in cells)
        if not cells or any(not cell for cell in cells):
            raise InvalidParameters("cells must be nonempty")
        flat = [i for cell in cells for i in cell]
        if len(set(flat)) != len(flat):
            raise InvalidParameters("cells must be disjoint")
        if sorted(flat) != list(range(len(flat))):
            raise InvalidParameters("cells must cover 0..n-1 exactly")
        self.cells = cells

    @classmethod
    def from_sizes(cls, sizes) -> "Partition":
        """Consecutive cells of the given sizes (the natural block layout)."""
        cells = []
        start = 0
        for s in sizes:
            cells.append(range(start, start + s))
            start += s
        return cls(cells)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls([[i] for i in range(n)])

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    @property
    def t(self) -> int:
        return len(self.cells)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"Partition({[list(c) for c in self.cells]!r})"


def parse_partition(text: str) -> Partition:
    """Parse ``{0,1,2|3,4|5}``: cells split by ``|``, indices by commas."""
    s = text.strip()
    if s.startswith("{") and s.endswith("}"):
        s = s[1:-1]
    cells = []
    for chunk in s.split("|"):
        items = [piece.strip() for piece in chunk.split(",") if piece.strip()]
        if not items:
            raise ParseError(f"empty cell in partition {text!r}")
        try:
            cells.append([int(piece) for piece in items])
        except ValueError:
            raise ParseError(f"non-integer index in partition {text!r}") from None
    try:
        return Partition(cells)
    except InvalidParameters as exc:
        raise ParseError(f"invalid partition {text!r}: {exc}") from None


def format_partition(part: Partition) -> str:
    return "{" + "|".join(",".join(str(i) for i in cell) for cell in part.cells) + "}"


def _equitable_quotient(m, part: Partition, tol: float = 1e-12):
    """Whether m is equitable under the partition, and its quotient B: the
    one routine that sums cells.

    Rows and columns go into cell order; one ``np.add.reduceat`` over the
    columns gives each row's sum over each cell, and one over the rows the
    block totals. A block is equitable when its row sums spread by at most
    ``tol``, real and imaginary parts tested apart; B is the block totals
    over the cell sizes. An ExactMatrix is tested exactly (tol 0) as an
    object array, with Fraction sizes, so that its B is exact.
    """
    exact = isinstance(m, ExactMatrix)
    a = np.array(m.rows, dtype=object) if exact else as_numeric(m)
    if len(a) != part.n:
        raise DimensionMismatch(
            f"matrix order {len(a)} does not match partition ground set {part.n}"
        )
    order = [v for cell in part.cells for v in cell]
    starts = np.cumsum((0,) + part.sizes[:-1])
    sums = np.add.reduceat(a[np.ix_(order, order)], starts, axis=1)
    equitable = True
    # numpy orders complex numbers lexicographically, so each part is
    # spread-tested on its own
    for values in (sums.real, sums.imag) if np.iscomplexobj(sums) else (sums,):
        spread = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
        equitable &= not (spread > (0 if exact else tol)).any()
    sizes = np.array([Fraction(size) for size in part.sizes] if exact else part.sizes)
    b = np.add.reduceat(sums, starts) / sizes[:, None]
    return equitable, ExactMatrix(b.tolist()) if exact else b


def quotient_matrix(m, part: Partition):
    """Average block row sums: b_ij = (sum of block (i,j) entries) / |cell i|.

    Exact input yields an exact quotient (Fraction entries collapse to int
    when integral); numeric input yields a float matrix.
    """
    return _equitable_quotient(m, part)[1]


def is_equitable(m, part: Partition, tol: float = 1e-12) -> bool:
    """True iff every block of m under the partition has constant row sums.

    Exact inputs are tested exactly; floats within an absolute tolerance
    that only absorbs representation noise on integer-valued data.
    """
    return _equitable_quotient(m, part, tol)[0]


# ---------------------------------------------------------------------------
# structured block matrices


@dataclass(frozen=True)
class BlockSpec:
    """Block structure: diagonal blocks l_i*J + p_i*I, off-diagonal s_ij*J.

    ``s`` is a full t x t table whose diagonal is ignored. Coefficients may
    be rational, which keeps realization exact.
    """

    sizes: tuple[int, ...]
    l: tuple[Scalar, ...]
    p: tuple[Scalar, ...]
    s: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        t = len(self.sizes)
        if t < 1:
            raise InvalidParameters("BlockSpec needs at least one block")
        if any(sz < 1 for sz in self.sizes):
            raise InvalidParameters("block sizes must be at least 1")
        if len(self.l) != t or len(self.p) != t or len(self.s) != t:
            raise InvalidParameters("coefficient lists must match the block count")
        if any(len(row) != t for row in self.s):
            raise InvalidParameters("s must be a t x t table")
        object.__setattr__(self, "sizes", tuple(int(x) for x in self.sizes))
        object.__setattr__(self, "l", tuple(_normalize_scalar(x) for x in self.l))
        object.__setattr__(self, "p", tuple(_normalize_scalar(x) for x in self.p))
        object.__setattr__(
            self,
            "s",
            tuple(tuple(_normalize_scalar(x) for x in row) for row in self.s),
        )

    @property
    def t(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def partition(self) -> Partition:
        return Partition.from_sizes(self.sizes)

    def quotient(self) -> ExactMatrix:
        """The t x t equitable quotient: b_ii = l_i*n_i + p_i, b_ij = s_ij*n_j."""
        t = self.t
        rows = [
            [
                self.l[i] * self.sizes[i] + self.p[i]
                if i == j
                else self.s[i][j] * self.sizes[j]
                for j in range(t)
            ]
            for i in range(t)
        ]
        return ExactMatrix(rows)

    def to_json(self) -> dict:
        def enc(x):
            return str(x) if isinstance(x, Fraction) else x

        return {
            "sizes": list(self.sizes),
            "l": [enc(x) for x in self.l],
            "p": [enc(x) for x in self.p],
            "s": [[enc(x) for x in row] for row in self.s],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BlockSpec":
        def dec(x):
            return Fraction(x) if isinstance(x, str) else x

        return cls(
            sizes=tuple(payload["sizes"]),
            l=tuple(dec(x) for x in payload["l"]),
            p=tuple(dec(x) for x in payload["p"]),
            s=tuple(tuple(dec(x) for x in row) for row in payload["s"]),
        )


def _segment_trials(segment):
    """Each trial of a segment as a (sizes, coefficients) pair of lists.

    A segment of probe trials is three flat int arrays: each trial's block
    count t, its sizes, and its 2t + t*t coefficients (l, p, s row by row)
    as numerators over the campaign's denominator."""
    blocks, sizes, coeffs = (part.tolist() for part in segment)
    at = drawn = 0
    for t in blocks:
        yield sizes[at : at + t], coeffs[drawn : drawn + t * (t + 2)]
        at, drawn = at + t, drawn + t * (t + 2)


def _as_spec(segment, j: int, den: int) -> BlockSpec:
    """The BlockSpec of a segment's trial j, its coefficients over ``den``."""
    sizes, c = list(_segment_trials(segment))[j]
    c, t = [Fraction(x, den) for x in c], len(sizes)
    s = tuple(tuple(c[(2 + i) * t : (3 + i) * t]) for i in range(t))
    return BlockSpec(tuple(sizes), tuple(c[:t]), tuple(c[t : 2 * t]), s)


# matrix entries a stack of probe trials holds (512 KiB of floats); a larger
# matrix is a stack of its own
_PROBE_WINDOW = 1 << 16


def _realize_stacks(segment, den: int):
    """Realize a segment's trials as floats, one matrix order n at a time,
    in stacks of at most ``_PROBE_WINDOW`` entries (a larger matrix alone), each
    by block count: yields its trial indices, (k, n, n) matrices M and
    (k, t, t) quotients B, t the stack's most blocks. The numerators are
    small ints (``search._probe_chunks`` draws int8 ones over a ``den`` of 1
    or 4), so each entry of M is one correctly rounded division by ``den`` of
    its exact numerator (l_i + p_i on the diagonal), gathered from block
    tables padded with unread values. B is the closed-form quotient
    (``BlockSpec.quotient``) of that natural partition, each entry one
    correctly rounded division of s_ij*n_j (l_i*n_i + p_i on the diagonal);
    a trial's B is ``[:t_i, :t_i]``, the rest unread.
    """
    blocks, sizes, coeffs = segment[0].astype(np.intp), segment[1].astype(np.intp), segment[2]
    first, drawn = np.cumsum(blocks) - blocks, blocks * (blocks + 2)
    coeff_first, orders = np.cumsum(drawn) - drawn, np.add.reduceat(sizes, first)
    by_order = np.lexsort((blocks, orders))
    for same in np.split(by_order, np.flatnonzero(np.diff(orders[by_order])) + 1):
        n = int(orders[same[0]])
        step = max(1, _PROBE_WINDOW // (n * n))
        for members in (same[at : at + step] for at in range(0, len(same), step)):
            t = blocks[members, None]
            block = np.arange(int(t.max()))
            at_size = np.minimum(first[members, None] + block, len(sizes) - 1)
            widths = np.where(block < t, sizes[at_size], 0)
            ends = np.cumsum(widths, axis=1)
            labels = (np.arange(n)[:, None] >= ends[:, None, :]).sum(axis=2)
            at_l = coeff_first[members, None] + block
            at_s = coeff_first[members, None, None] + t[:, :, None] * (block[:, None] + 2) + block
            l, p, s = (coeffs[np.minimum(at, len(coeffs) - 1)] for at in (at_l, at_l + t, at_s))
            l = l.astype(np.int64)  # so that l + p cannot overflow
            table = s / den
            table[:, block, block] = l / den
            diagonal = (l + p) / den
            which = np.arange(len(members))[:, None]
            a = table[which[:, :, None], labels[:, :, None], labels[:, None, :]]
            a[:, range(n), range(n)] = diagonal[which, labels]
            b = s * widths[:, None, :]
            b[:, block, block] = l * widths + p
            yield members, a, b / den
            del a  # with the caller's reference, before the next is gathered


def stacked_spectra(segment, den: int = 1, tops: bool = False):
    """Eigenvalues of a segment's matrices M and quotients B, coefficients
    over ``den``; with ``tops``, each trial's largest modulus of M's values
    and largest real part of B's (from the general solver) instead, all in
    trial order. Each stack of ``_realize_stacks`` takes one solver call per
    symmetry, its Bs one per block count. No trial is checked: a BlockSpec's
    M is equitable by construction, and its sign is the caller's draw."""
    blocks, count = segment[0], len(segment[0])
    m_out, b_out = (np.empty(count), np.empty(count)) if tops else ([None] * count, [None] * count)

    def keep(out, members, values, measure):
        for j, kept in zip(members.tolist(), measure(values).max(axis=1) if tops else values):
            out[j] = kept

    for members, a, quotients in _realize_stacks(segment, den):
        for group, values in _eigvals_groups(a):
            keep(m_out, members[group], values, np.abs)
        del a
        # each block count's Bs are a run of the stack
        counts, starts = np.unique(blocks[members], return_index=True)
        ends = [*starts[1:].tolist(), len(members)]
        for t, lo, hi in zip(counts.tolist(), starts.tolist(), ends):
            for group, values in _eigvals_groups(quotients[lo:hi, :t, :t], tops):
                keep(b_out, members[lo + group], values, np.real)
    return m_out, b_out


def realize_block_matrix(spec: BlockSpec) -> ExactMatrix:
    """Expand a BlockSpec to the full n x n matrix it describes."""
    block = [i for i, size in enumerate(spec.sizes) for _ in range(size)]
    rows = [[spec.l[i] if i == j else spec.s[i][j] for j in block] for i in block]
    for a, i in enumerate(block):
        rows[a][a] = spec.l[i] + spec.p[i]
    return ExactMatrix(rows)


def _lifted_spectrum(sizes, p, quotient_values) -> Spectrum:
    """A block matrix's full spectrum: its quotient's eigenvalues plus each
    p_i repeated (n_i - 1) times, so the total multiplicity is the order."""
    pairs = list(Spectrum.from_values(quotient_values, cluster_tol=0.0).pairs)
    for p_i, sz in zip(p, sizes):
        if sz > 1:
            pairs.append((complex(float(p_i), 0.0), sz - 1))
    return Spectrum.from_pairs(pairs)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class QuotientReport:
    """Quotient matrix with the equitable flag and the eigenvalue-lift verdict."""

    B: np.ndarray
    equitable: bool
    lifted: bool


def lift_check(m, part: Partition) -> QuotientReport:
    """Verify that every quotient eigenvalue appears in the full spectrum.

    Requires an equitable partition; the lift then holds structurally, so
    ``lifted=False`` would indicate a numerical pathology worth reporting.
    """
    a = as_numeric(m)
    equitable, b = _equitable_quotient(a, part)
    if not equitable:
        raise NotEquitable("lift_check requires an equitable partition")
    return QuotientReport(B=b, equitable=True, lifted=_lifts(a, _eigvals(b)))


def _lifts(a: np.ndarray, quotient_values) -> bool:
    """Whether raw quotient eigenvalues lie in a's spectrum, both unclustered."""
    return eigenvalues(a, cluster_tol=0.0).contains(Spectrum.from_values(quotient_values, 0.0))


@dataclass(frozen=True)
class InterlacingReport:
    interlaces: bool
    tight: bool
    tight_implies_equitable_ok: bool


def interlacing_check(m, part: Partition) -> InterlacingReport:
    """Quotient/full eigenvalue interlacing for a symmetric matrix.

    With eigenvalues sorted descending, checks lam_i >= mu_i >= lam_{n-m+i}.
    The interlacing is tight when some split index k makes the first k mu's
    equal the top lam's and the rest equal the bottom lam's; tightness must
    imply equitability, which is cross-checked here.
    """
    a = as_numeric(m)
    if not np.array_equal(a, a.T):
        raise NotSymmetric("interlacing_check requires a symmetric matrix")
    equitable, _ = _equitable_quotient(a, part)
    lam = np.sort(np.linalg.eigvalsh(a))[::-1]
    # the quotient is similar to S^T M S with S the orthonormal indicator
    # matrix, so take the symmetric form (the raw quotient is asymmetric
    # whenever cell sizes differ)
    s = np.zeros((part.n, part.t))
    for j, cell in enumerate(part.cells):
        s[list(cell), j] = 1.0 / math.sqrt(len(cell))
    mu = np.sort(np.linalg.eigvalsh(s.T @ a @ s))[::-1]
    n, t, tol = len(lam), len(mu), 1e-9
    interlaces = all(
        lam[i] >= mu[i] - tol and mu[i] >= lam[n - t + i] - tol for i in range(t)
    )
    tight = False
    for k in range(1, t + 1):
        head = all(abs(lam[i] - mu[i]) <= tol for i in range(k))
        tail = all(abs(lam[n - t + i] - mu[i]) <= tol for i in range(k, t))
        if head and tail:
            tight = True
            break
    ok = (not tight) or equitable
    return InterlacingReport(interlaces=interlaces, tight=tight, tight_implies_equitable_ok=ok)


@dataclass(frozen=True)
class ProbeReport:
    """Evidence record comparing the quotient's top eigenvalue with rho(M)."""

    holds: bool
    rho_B: float
    rho_M: float


def conjecture_probe(m, part: Partition) -> ProbeReport:
    """Test whether the equitable quotient's largest eigenvalue equals rho(M).

    For nonnegative M the quotient is nonnegative, so its Perron root is the
    eigenvalue of maximum real part. That root is rho(M): the partition's
    indicator matrix S has MS = SB, so with y^T M's left Perron vector,
    (y^T S)B = rho(M)(y^T S) where y^T S >= 0 is nonzero, and every
    eigenvalue of B is one of M. A report with holds=False is therefore a
    numerical fault (a defective B, say), and callers serialize it in full.
    """
    a = as_numeric(m)
    if np.any(a < 0):
        raise NotNonnegative("conjecture_probe requires a nonnegative matrix")
    equitable, b = _equitable_quotient(a, part)
    if not equitable:
        raise NotEquitable("conjecture_probe requires an equitable partition")
    rho_m = np.abs(_eigvals(a)).max(keepdims=True)
    rho_b = _eigvals(b, general=True).real.max(keepdims=True)
    return _probe_verdict(rho_m, rho_b, _NUMERIC_TOL)[1]


def _probe_verdict(rho_m, rho_b, tol: float) -> tuple[int, ProbeReport]:
    """The ``conjecture_probe`` verdict on a run of trials, from the two
    vectors of ``stacked_spectra`` with ``tops``: rho_M, the largest modulus
    of M's eigenvalues, and rho_B, the largest real part of B's.

    A trial holds when its rho_B and rho_M differ by at most ``tol``.
    Returns the first trial that does not hold, or the last when all do,
    with its report.
    """
    holds = np.abs(rho_b - rho_m) <= tol
    failing = np.flatnonzero(~holds)
    j = int(failing[0]) if failing.size else len(holds) - 1
    return j, ProbeReport(holds=bool(holds[j]), rho_B=float(rho_b[j]), rho_M=float(rho_m[j]))
