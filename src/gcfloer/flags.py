"""Flag shapes, eigenvalue profiles and the Gelfand-Cetlin index set.

A flag manifold F(n_1, ..., n_r; n) is the adjoint orbit of
diag(lambda_1, ..., lambda_n) for a profile that is blockwise constant
with strict drops exactly at the steps n_1, ..., n_r.  This module holds
what defines such a space and needs no numpy, so the reference spaces can
be built without loading the numeric layers.
"""

from dataclasses import dataclass

from .novikov import as_fraction


@dataclass(frozen=True)
class FlagShape:
    steps: tuple  # (n_1, ..., n_r), strictly increasing
    ambient: int  # n

    def __post_init__(self):
        steps = tuple(int(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("at least one step is required")
        if any(b <= a for a, b in zip((0,) + steps, steps)):
            raise ValueError("steps must be strictly increasing and positive")
        if steps[-1] >= self.ambient:
            raise ValueError("steps must be < ambient dimension")

    @property
    def complex_dim(self):
        levels = (0,) + self.steps + (self.ambient,)
        return sum(
            (levels[i] - levels[i - 1]) * (self.ambient - levels[i])
            for i in range(1, len(levels) - 1)
        )

    @property
    def levels(self):
        return (0,) + self.steps + (self.ambient,)


@dataclass(frozen=True)
class EigenProfile:
    values: tuple  # (lambda_1 >= ... >= lambda_n) as exact Fractions

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(as_fraction(v) for v in self.values)
        )

    @classmethod
    def from_blocks(cls, shape, block_values):
        """Profile from one value per block (r+1 values, strictly decreasing)."""
        levels = shape.levels
        if len(block_values) != len(levels) - 1:
            raise ValueError("need one value per block")
        vals = []
        for j, bv in enumerate(block_values):
            vals.extend([as_fraction(bv)] * (levels[j + 1] - levels[j]))
        return cls(tuple(vals))

    def validate(self, shape):
        if len(self.values) != shape.ambient:
            raise ValueError("profile length does not match ambient dimension")
        for i in range(1, shape.ambient):
            if i in shape.steps:
                if not self.values[i - 1] > self.values[i]:
                    raise ValueError(f"profile must drop strictly at step {i}")
            else:
                if self.values[i - 1] != self.values[i]:
                    raise ValueError(f"profile must be constant within a block at {i}")

    def value(self, i):
        """lambda_i, 1-based."""
        return self.values[i - 1]


def grassmannian_shape(k, n):
    return FlagShape((k,), n)


def is_constant_entry(shape, profile, i, k):
    """True when interlacing forces lambda_i^{(k)} to equal lambda_i."""
    n = shape.ambient
    if k == n:
        return True
    return profile.value(i) == profile.value(i + n - k)


def index_set(shape, profile):
    """The non-constant entries as a tuple of (i, k) pairs, ordered by level
    k descending, then i ascending."""
    profile.validate(shape)
    n = shape.ambient
    pairs = tuple(
        (i, k)
        for k in range(n - 1, 0, -1)
        for i in range(1, k + 1)
        if not is_constant_entry(shape, profile, i, k)
    )
    if len(pairs) != shape.complex_dim:
        raise ValueError("non-constant entry count does not match the dimension")
    return pairs
