"""Small dense matrices with polynomial entries.

The chart writes its equations term by term from the Gram pairings and
keeps each relation family in a ``PolyMatrix`` only as a container, so a
lemma target is tagged by its entry.  Products, transposes, sums and traces
are here for the tests, whose oracles state the same families as matrix
products.  Sizes are at most d x d (d <= 12 in the opt-in sweep).
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

    @property
    def T(self):
        return PolyMatrix(self.ring, [list(col) for col in zip(*self.rows)])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
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
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch %dx%d and %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        return PolyMatrix(self.ring,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """Multiply every entry by a scalar or polynomial."""
        return PolyMatrix(self.ring, [[a * c for a in r] for r in self.rows])

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), self.ring.zero())

