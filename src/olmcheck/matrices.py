"""Small dense matrices with polynomial entries.

Just enough linear algebra to write the chart relations the way they are
stated: products, transposes, traces, constant matrices such as the Gram
blocks, diagonal masks.  Sizes are at most d x d for the chart's d, and
charts up to d = 9 are built in practice, so nothing is tuned.
"""


class PolyMatrix:
    """Rectangular matrix of polynomials from one ring."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def entries(self):
        return [p for row in self.rows for p in row]

    def transpose(self):
        return PolyMatrix(self.ring,
                          [[self.rows[i][j] for i in range(self.nrows)]
                           for j in range(self.ncols)])

    @property
    def T(self):
        return self.transpose()

    def __matmul__(self, other):
        if other.ncols and self.ncols != other.nrows:
            raise ValueError("shape mismatch %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        zero = self.ring.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    b = other.rows[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.ring, out)

    def __add__(self, other):
        return PolyMatrix(self.ring,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return PolyMatrix(self.ring,
                          [[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return PolyMatrix(self.ring, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        """Multiply every entry by a scalar or polynomial."""
        return PolyMatrix(self.ring, [[a * c for a in r] for r in self.rows])

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        acc = self.ring.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def minors2(self):
        """All 2x2 minors, rows i<t and columns j<s, in row-major order."""
        out = []
        for i in range(self.nrows):
            for t in range(i + 1, self.nrows):
                for j in range(self.ncols):
                    for s in range(j + 1, self.ncols):
                        out.append(self.rows[i][j] * self.rows[t][s]
                                   - self.rows[i][s] * self.rows[t][j])
        return out

    def det(self):
        """Exact determinant by cofactor expansion (test-scale sizes)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        memo = {}
        full = (1 << n) - 1

        # expand along rows top-down, memoized on the remaining-column mask
        def expand(i, mask):
            if i == n:
                return self.ring.one()
            key = (i, mask)
            if key in memo:
                return memo[key]
            acc = self.ring.zero()
            sign = 1
            for j in range(n):
                if mask >> j & 1:
                    e = self.rows[i][j]
                    if e:
                        sub = expand(i + 1, mask & ~(1 << j))
                        term = e * sub
                        acc = acc + (term if sign > 0 else -term)
                    sign = -sign
            memo[key] = acc
            return acc

        return expand(0, full)


def constant_matrix(ring, data):
    """Matrix of ring constants from an int matrix."""
    return PolyMatrix(ring, [[ring.const(v) for v in row] for row in data])


def diagonal(ring, values):
    zero = ring.zero()
    n = len(values)
    return PolyMatrix(ring, [[values[i] if i == j else zero for j in range(n)]
                             for i in range(n)])
