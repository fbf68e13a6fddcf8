"""Small dense matrices with polynomial entries.

Just enough linear algebra to write the chart relations the way they are
stated: products, transposes, traces, constant matrices such as the Gram
blocks, diagonal masks.  Sizes are at most d x d for the chart's d, and
the opt-in test sweep builds charts up to d = 12, so nothing is tuned.
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


def constant_matrix(ring, data):
    """Matrix of ring constants from an int matrix."""
    return PolyMatrix(ring, [[ring.const(v) for v in row] for row in data])


def diagonal(ring, values):
    zero = ring.zero()
    n = len(values)
    return PolyMatrix(ring, [[values[i] if i == j else zero for j in range(n)]
                             for i in range(n)])
