"""Vertex partitions, quotient matrices, and the block-spectrum engine.

A partition of the index set turns a square matrix into a block matrix; the
quotient holds each block's average row sum. When every block has constant
row sums (an equitable partition), quotient eigenvalues lift to the full
matrix, and for matrices whose blocks are J/I combinations the full spectrum
splits into the quotient spectrum plus explicitly known repeated values.
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
    ExactMatrix,
    Scalar,
    Spectrum,
    _eigvals,
    _normalize_scalar,
    as_numeric,
    eigenvalues,
    eigvals_each,
    eigvals_stack,
    spectral_radius,
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


def _check_ground_set(m, part: Partition) -> None:
    n = m.n if isinstance(m, ExactMatrix) else as_numeric(m).shape[0]
    if n != part.n:
        raise DimensionMismatch(
            f"matrix order {n} does not match partition ground set {part.n}"
        )


def _cell_row_sums(a: np.ndarray, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of ``a`` over each cell's columns, with rows in cell order.

    Rows and columns are permuted so that every cell is one contiguous run.
    Returns the n x t sums and ``starts``, where each cell's run begins, so
    a second ``reduceat`` over the rows reduces them per cell.
    """
    order = np.fromiter(
        (v for cell in part.cells for v in cell), dtype=np.intp, count=part.n
    )
    starts = np.cumsum((0,) + part.sizes[:-1])
    return np.add.reduceat(a[np.ix_(order, order)], starts, axis=1), starts


def quotient_matrix(m, part: Partition):
    """Average block row sums: b_ij = (sum of block (i,j) entries) / |cell i|.

    Exact input yields an exact quotient (Fraction entries collapse to int
    when integral); numeric input yields a float matrix.
    """
    _check_ground_set(m, part)
    if isinstance(m, ExactMatrix):
        rows = []
        for ci in part.cells:
            size = len(ci)
            rows.append(
                [
                    _normalize_scalar(
                        Fraction(sum(m[u, v] for u in ci for v in cj), size)
                    )
                    for cj in part.cells
                ]
            )
        return ExactMatrix(rows)
    sums, starts = _cell_row_sums(as_numeric(m), part)
    sizes = np.array(part.sizes, dtype=float)
    return np.add.reduceat(sums, starts, axis=0) / sizes[:, None]


def is_equitable(m, part: Partition, tol: float = 1e-12) -> bool:
    """True iff every block of m under the partition has constant row sums.

    Exact inputs are tested exactly; floats within an absolute tolerance
    that only absorbs representation noise on integer-valued data.
    """
    _check_ground_set(m, part)
    if isinstance(m, ExactMatrix):
        for ci in part.cells:
            for cj in part.cells:
                sums = {sum(m[u, v] for v in cj) for u in ci}
                if len(sums) > 1:
                    return False
        return True
    sums, starts = _cell_row_sums(as_numeric(m), part)
    # numpy orders complex numbers lexicographically, so each part is
    # spread-tested on its own
    for values in (sums.real, sums.imag) if np.iscomplexobj(sums) else (sums,):
        top = np.maximum.reduceat(values, starts, axis=0)
        bottom = np.minimum.reduceat(values, starts, axis=0)
        if np.any(top - bottom > tol):
            return False
    return True


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

    def to_numpy(self) -> np.ndarray:
        """The realized matrix as floats, without building it exactly.

        Every entry is ``float`` of the exact entry; the diagonal sum
        ``l_i + p_i`` is taken exactly before the conversion, so the array
        equals ``realize_block_matrix(self).to_numpy()`` bit for bit.
        """
        [(_, a, _)] = _realize_stacks(*_as_trials([self]))
        return a[0]

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


def _as_trials(specs) -> tuple[list, int]:
    """BlockSpecs as probe trials, over the least common denominator of all
    their coefficients, and that denominator. A trial is a BlockSpec as
    plain ints: its sizes, and its coefficients l, p and s (row by row) as
    numerators over a denominator that a campaign's trials share."""
    coeffs = [(*spec.l, *spec.p, *(x for row in spec.s for x in row)) for spec in specs]
    den = math.lcm(*(Fraction(x).denominator for c in coeffs for x in c))
    return [(list(spec.sizes), [int(x * den) for x in c]) for spec, c in zip(specs, coeffs)], den


def _as_spec(trial, den: int) -> BlockSpec:
    """The BlockSpec of a trial whose coefficients are over ``den``."""
    sizes, c = trial[0], [Fraction(x, den) for x in trial[1]]
    t = len(sizes)
    s = tuple(tuple(c[(2 + i) * t : (3 + i) * t]) for i in range(t))
    return BlockSpec(tuple(sizes), tuple(c[:t]), tuple(c[t : 2 * t]), s)


_EXACT = 1 << 52  # ints below this in size, and sums of two, are exact floats


def _realize_stacks(trials, den: int = 1):
    """Realize trials as floats, one stack per matrix order n.

    Yields the indices of each order's trials, the (k, n, n) stack of their
    realized matrices and the (k, n) block index of every row. Each entry
    is ``float`` of the exact entry: one correctly rounded division of its
    exact numerator by ``den``, where the diagonal's numerator is the sum
    of the l_i's and p_i's.
    """
    by_blocks: dict[int, list[int]] = {}
    for j, (sizes, _) in enumerate(trials):
        by_blocks.setdefault(len(sizes), []).append(j)
    # every trial's blocks padded to the most any has: its table (l on the
    # diagonal, s off it), its diagonal entries l + p, and its sizes
    k, width = len(trials), max(by_blocks)
    table, diagonals = np.zeros((k, width, width)), np.zeros((k, width))
    sizes = np.zeros((k, width), dtype=np.intp)
    for t, members in by_blocks.items():
        coeffs = [trials[j][1] for j in members]
        c = np.array(coeffs)
        if not (c.dtype.kind == "i" and -_EXACT < c.min() <= c.max() < _EXACT and den < _EXACT):
            c = np.array(coeffs, dtype=object)  # Python ints divide exactly
        blocks = c[:, 2 * t :].reshape(-1, t, t) / den
        blocks[:, range(t), range(t)] = c[:, :t] / den
        table[members, :t, :t] = blocks
        diagonals[members, :t] = (c[:, :t] + c[:, t : 2 * t]) / den
        sizes[members, :t] = [trials[j][0] for j in members]
    ends = np.cumsum(sizes, axis=1)
    for n in np.unique(ends[:, -1]):
        members = np.flatnonzero(ends[:, -1] == n)
        labels = (np.arange(n)[:, None] >= ends[members, None, :]).sum(axis=2)
        which = members[:, None]
        a = table[which[:, :, None], labels[:, :, None], labels[:, None, :]]
        diagonal = np.arange(n)
        a[:, diagonal, diagonal] = diagonals[which, labels]
        yield members, a, labels


def _equitable_quotients(a: np.ndarray, labels: np.ndarray):
    """``is_equitable`` (at its default tol) and ``quotient_matrix`` for a
    (k, n, n) stack of matrices whose blocks are runs of consecutive rows
    (``labels`` as ``_realize_stacks`` gives them), from one batched
    cell-sum product.

    Returns the equitable flags, a (k,) array, and the k quotient matrices.
    The cell sums are summed in another order than ``_cell_row_sums``
    does, so they are equal bit for bit where every partial sum is exact,
    as for the probes' matrices with entries in quarters.
    """
    k, n = labels.shape
    blocks = labels[:, -1] + 1
    width = int(blocks.max())
    indicator = np.zeros((k, n, width))
    indicator[np.arange(k)[:, None], np.arange(n), labels] = 1.0
    sums = (a @ indicator).reshape(k * n, width)
    # one run of rows per block of every matrix, in order
    first = np.ones(k * n, dtype=bool)
    first[1:] = labels.ravel()[1:] != labels.ravel()[:-1]
    first[::n] = True
    starts = np.flatnonzero(first)
    spread = np.maximum.reduceat(sums, starts) - np.minimum.reduceat(sums, starts)
    block_starts = np.cumsum(blocks) - blocks
    equitable = ~np.logical_or.reduceat((spread > 1e-12).any(axis=1), block_starts)
    sizes = np.diff(np.append(starts, k * n))
    rows = np.add.reduceat(sums, starts) / sizes[:, None]
    quotients = [rows[s : s + t, :t] for s, t in zip(block_starts, blocks)]
    return equitable, quotients


def stacked_spectra(trials, den: int = 1, general: bool = False):
    """Eigenvalues of many trials' realized matrices M and quotients B,
    for trials whose coefficients are over ``den``.

    Returns the eigenvalues of every M, those of every B (the general
    solver's when ``general`` is set), and two flags per trial: M has a
    negative entry; the natural partition is equitable for M, by the
    ``is_equitable`` rule. The Ms of one order are realized together and
    their Bs read from one batched cell-sum product; the eigenvalues come
    from one solver call per group of equal order and symmetry.
    """
    count = len(trials)
    m_values, quotients = [None] * count, [None] * count
    negative = np.zeros(count, dtype=bool)
    equitable = np.zeros(count, dtype=bool)
    for members, a, labels in _realize_stacks(trials, den):
        negative[members] = (a < 0).any(axis=(1, 2))
        equitable[members], group_quotients = _equitable_quotients(a, labels)
        for j, b, values in zip(members, group_quotients, eigvals_stack(a)):
            quotients[j], m_values[j] = b, values
    return m_values, eigvals_each(quotients, general), negative, equitable


def realize_block_matrix(spec: BlockSpec) -> ExactMatrix:
    """Expand a BlockSpec to the full n x n matrix it describes."""
    block = [i for i, size in enumerate(spec.sizes) for _ in range(size)]
    rows = [[spec.l[i] if i == j else spec.s[i][j] for j in block] for i in block]
    for a, i in enumerate(block):
        rows[a][a] = spec.l[i] + spec.p[i]
    return ExactMatrix(rows)


def block_spectrum(spec: BlockSpec) -> Spectrum:
    """Full spectrum of the realized matrix without building it.

    Quotient eigenvalues plus p_i repeated (n_i - 1) times; total
    multiplicity is the matrix order.
    """
    return _lifted_spectrum(spec.sizes, spec.p, _eigvals(spec.quotient().to_numpy()))


def _lifted_spectrum(sizes, p, quotient_values) -> Spectrum:
    """``block_spectrum`` from the block sizes, the p_i and the quotient's
    eigenvalues."""
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


def lift_check(m, part: Partition, tol: float = 1e-7) -> QuotientReport:
    """Verify that every quotient eigenvalue appears in the full spectrum.

    Requires an equitable partition; the lift then holds structurally, so
    ``lifted=False`` would indicate a numerical pathology worth reporting.
    """
    if not is_equitable(m, part):
        raise NotEquitable("lift_check requires an equitable partition")
    a = as_numeric(m)
    b = quotient_matrix(a, part)
    lifted = eigenvalues(a, cluster_tol=0.0).contains(
        eigenvalues(b, cluster_tol=0.0), tol=tol
    )
    return QuotientReport(B=b, equitable=True, lifted=lifted)


@dataclass(frozen=True)
class InterlacingReport:
    interlaces: bool
    tight: bool
    tight_implies_equitable_ok: bool


def interlacing_check(m, part: Partition, tol: float = 1e-9) -> InterlacingReport:
    """Quotient/full eigenvalue interlacing for a symmetric matrix.

    With eigenvalues sorted descending, checks lam_i >= mu_i >= lam_{n-m+i}.
    The interlacing is tight when some split index k makes the first k mu's
    equal the top lam's and the rest equal the bottom lam's; tightness must
    imply equitability, which is cross-checked here.
    """
    a = as_numeric(m)
    if not np.array_equal(a, a.T):
        raise NotSymmetric("interlacing_check requires a symmetric matrix")
    _check_ground_set(a, part)
    lam = np.sort(np.linalg.eigvalsh(a))[::-1]
    # the quotient is similar to S^T M S with S the orthonormal indicator
    # matrix, so take the symmetric form (the raw quotient is asymmetric
    # whenever cell sizes differ)
    s = np.zeros((part.n, part.t))
    for j, cell in enumerate(part.cells):
        s[list(cell), j] = 1.0 / math.sqrt(len(cell))
    mu = np.sort(np.linalg.eigvalsh(s.T @ a @ s))[::-1]
    n, t = len(lam), len(mu)
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
    ok = (not tight) or is_equitable(a, part)
    return InterlacingReport(interlaces=interlaces, tight=tight, tight_implies_equitable_ok=ok)


@dataclass(frozen=True)
class ProbeReport:
    """Evidence record comparing the quotient's top eigenvalue with rho(M)."""

    holds: bool
    rho_B: float
    rho_M: float


def conjecture_probe(m, part: Partition, tol: float = 1e-7) -> ProbeReport:
    """Test whether the equitable quotient's largest eigenvalue equals rho(M).

    For nonnegative M the quotient is nonnegative, so its Perron root is the
    eigenvalue of maximum real part; a verified instance with holds=False is
    a counterexample candidate and should be serialized in full by callers.
    """
    a = as_numeric(m)
    if np.any(a < 0):
        raise NotNonnegative("conjecture_probe requires a nonnegative matrix")
    if not is_equitable(a, part):
        raise NotEquitable("conjecture_probe requires an equitable partition")
    b = quotient_matrix(a, part)
    rho_b = float(np.max(_eigvals(b, general=True).real))
    rho_m = spectral_radius(a)
    return ProbeReport(holds=abs(rho_b - rho_m) <= tol, rho_B=rho_b, rho_M=rho_m)


def _first_failing_probe(trials, den: int, tol: float = 1e-7) -> tuple[int, ProbeReport] | None:
    """The index of the first trial (coefficients over ``den``) whose
    ``conjecture_probe(spec.to_numpy(), spec.partition(), tol)`` does not
    hold for its BlockSpec, with that report, or None when every probe
    holds. Raises what that probe raises at the first trial it rejects.
    """
    m_values, b_values, negative, equitable = stacked_spectra(trials, den, general=True)
    for j, (m_vals, b_vals) in enumerate(zip(m_values, b_values)):
        if negative[j]:
            raise NotNonnegative("conjecture_probe requires a nonnegative matrix")
        if not equitable[j]:
            raise NotEquitable("conjecture_probe requires an equitable partition")
        rho_b = float(b_vals.real.max())
        rho_m = float(np.abs(m_vals).max())
        if not abs(rho_b - rho_m) <= tol:
            return j, ProbeReport(holds=False, rho_B=rho_b, rho_M=rho_m)
    return None
