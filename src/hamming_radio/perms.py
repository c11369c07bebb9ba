"""Permutations of {1..n} with the apply-left-first composition convention.

Throughout the package a product written compose(a, b) means "apply a, then b",
i.e. the function b o a.  Permutations act on arrangements (tuples of n distinct
values) by position: the value landing in slot p is the one previously in slot
inverse(p).  Each permutation builds its gather, the 0-based slots inverse(p) - 1
that the action reads, once and keeps it, so acting is one tuple built by index
lookups; the instruction layer's decode and encode loops read it directly.
"""

from __future__ import annotations

from .errors import ShapeError


class Permutation:
    """Bijection of {1..n}, stored in one-line notation (images[i-1] = image of i)."""

    __slots__ = ("images", "_inv", "_gather")

    def __init__(self, images):
        images = tuple(images)
        for x in images:
            if type(x) is not int:  # not bool, not 1.9, not '2'
                raise ShapeError(f"permutation entry {x!r} is not an integer")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ShapeError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_gather", None)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if type(point) is not int:  # not bool, not 1.0
            raise ShapeError(f"point {point!r} is not an integer")
        if not 1 <= point <= self.n:
            raise ShapeError(f"point {point} outside 1..{self.n}")
        return self.images[point - 1]

    def inverse(self) -> "Permutation":
        inv = self._inv
        if inv is None:
            out = [0] * self.n
            for i, image in enumerate(self.images, start=1):
                out[image - 1] = i
            inv = Permutation(out)
            object.__setattr__(self, "_inv", inv)
        return inv

    def gather(self) -> tuple[int, ...]:
        """The 0-based slots act reads from: slot p of the result takes the
        value in slot gather()[p - 1] = inverse(p) - 1.  Built once."""
        gather = self._gather
        if gather is None:
            gather = tuple(i - 1 for i in self.inverse().images)
            object.__setattr__(self, "_gather", gather)
        return gather

    def is_identity(self) -> bool:
        return all(image == i for i, image in enumerate(self.images, start=1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def require_permutation(sigma: object) -> None:
    if not isinstance(sigma, Permutation):
        raise ShapeError(f"{sigma!r} is not a Permutation")


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply a first, then b (the function b o a)."""
    require_permutation(a)
    require_permutation(b)
    if a.n != b.n:
        raise ShapeError(f"cannot compose permutations of sizes {a.n} and {b.n}")
    return Permutation(b(a(i)) for i in range(1, a.n + 1))


def act(sigma: Permutation, arrangement: tuple) -> tuple:
    """Rearrange a tuple: slot p of the result takes the value from slot
    inverse(p), read through sigma's cached gather."""
    require_permutation(sigma)
    if len(arrangement) != sigma.n:
        raise ShapeError(
            f"arrangement of length {len(arrangement)} under permutation of {sigma.n}"
        )
    return tuple(map(arrangement.__getitem__, sigma.gather()))
