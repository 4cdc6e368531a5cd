"""Covers: sums of cubes representing Boolean functions.

A :class:`Cover` is an ordered collection of :class:`~repro.boolean.cube.Cube`
objects over the same variable space, interpreted as a sum-of-products.  The
synthesis flow uses covers for

* the on-set / off-set / don't-care set of every output signal,
* excitation-region and marked-region approximations derived from the
  STG-unfolding segment, and
* the final gate implementations whose literal counts are reported.

Besides the usual set algebra (union, intersection, sharp, complement) the
class provides tautology checking and single-cube containment; tautology
and the complement follow the standard unate-recursive paradigm.  These are
the primitives required by the Espresso-style minimiser in
:mod:`repro.boolean.minimize`.

The hot loops (pairwise intersection, cofactoring, containment) work on the
cubes' ``(ones, zeros)`` integer masks directly and deduplicate through a
set of mask pairs, because covers built from packed State-Graph codes reach
thousands of cubes and these operations dominate synthesis time.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .cube import Cube, CubeError
from .pairs import complement_pairs

__all__ = ["Cover", "minterm_cover"]

#: Covers smaller than this stay on the pure-python reference under
#: ``kernel=None``/``"auto"`` -- per-call numpy dispatch overhead beats the
#: win on tiny covers.  An explicit ``kernel="numpy"`` always takes the
#: matrix path (and still fails loudly when numpy is missing).
_MATRIX_MIN_CUBES = 32


def _matrix_kernel(kernel, size: int):
    """The cube-matrix kernel module when the matrix path should run.

    Returns :mod:`repro.kernel.cubes` when the resolved kernel is numpy
    (subject to the small-cover gate under auto), else ``None`` for the
    pure-python reference.  Both paths are bit-identical, so the gate is a
    pure performance decision.
    """
    if (kernel is None or kernel == "auto") and size < _MATRIX_MIN_CUBES:
        return None
    from ..kernel import resolve_kernel

    if resolve_kernel(kernel) != "numpy":
        return None
    from ..kernel import cubes

    return cubes


def minterm_cover(nvars: int, code_words: Iterable[int]) -> "Cover":
    """Exact cover of a set of packed codes (one ``(ones, zeros)`` cube each).

    A packed code *is* a minterm, so each cube is built straight from the
    two masks without touching individual bits; the codes are sorted so the
    result is deterministic for set-valued inputs.
    """
    full = (1 << nvars) - 1
    return Cover(nvars, [Cube(nvars, code, full & ~code) for code in sorted(code_words)])


class Cover:
    """A sum of cubes over a fixed Boolean space.

    Parameters
    ----------
    nvars:
        Number of variables of the Boolean space.
    cubes:
        Iterable of cubes; all must live in the same space.
    """

    __slots__ = ("nvars", "_cubes", "_keys")

    def __init__(self, nvars: int, cubes: Iterable[Cube] = ()) -> None:
        self.nvars = nvars
        self._cubes: List[Cube] = []
        self._keys: Set[Tuple[int, int]] = set()
        for cube in cubes:
            self._append_checked(cube)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, nvars: int) -> "Cover":
        """The cover of the constant-0 function."""
        return cls(nvars)

    @classmethod
    def universe(cls, nvars: int) -> "Cover":
        """The cover of the constant-1 function (one universal cube)."""
        return cls(nvars, [Cube.full(nvars)])

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        """Build a cover from positional-cube strings (``"1-0"``, ...)."""
        if not rows:
            raise CubeError("cannot infer variable count from an empty row list")
        cubes = [Cube.from_string(row) for row in rows]
        nvars = cubes[0].nvars
        return cls(nvars, cubes)

    @classmethod
    def from_minterms(cls, nvars: int, minterms: Iterable[int]) -> "Cover":
        """Build a cover with one cube per minterm."""
        return cls(nvars, [Cube.from_minterm(nvars, m) for m in minterms])

    @classmethod
    def from_mask_pairs(cls, nvars: int, pairs: Iterable[Tuple[int, int]]) -> "Cover":
        """Build a cover from raw ``(ones, zeros)`` cube masks.

        This is the hand-off format of the symbolic engine's ISOP cube
        extraction (:func:`repro.bdd.isop`): each pair becomes one cube with
        no per-bit translation.
        """
        return cls(nvars, [Cube(nvars, ones, zeros) for ones, zeros in pairs])

    def copy(self) -> "Cover":
        """Return a shallow copy (cubes are immutable, so this is safe)."""
        return Cover(self.nvars, self._cubes)

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __getitem__(self, index: int) -> Cube:
        return self._cubes[index]

    def __bool__(self) -> bool:
        return bool(self._cubes)

    @property
    def cubes(self) -> Tuple[Cube, ...]:
        """The cubes of the cover as an immutable tuple."""
        return tuple(self._cubes)

    def add(self, cube: Cube) -> None:
        """Append a cube (duplicates are silently skipped)."""
        if (cube.ones, cube.zeros) in self._keys:
            return
        self._append_checked(cube)

    def extend(self, cubes: Iterable[Cube]) -> None:
        """Append several cubes, skipping duplicates."""
        for cube in cubes:
            self.add(cube)

    def is_empty(self) -> bool:
        """Return True if the cover has no cubes (the constant-0 function)."""
        return not self._cubes

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: Sequence[int]) -> bool:
        """Evaluate the cover on a 0/1 assignment vector."""
        return any(cube.covers_assignment(assignment) for cube in self._cubes)

    def covers_minterm(self, minterm: int) -> bool:
        """Return True if any cube covers the given minterm."""
        return any(cube.covers_minterm(minterm) for cube in self._cubes)

    def minterms(self) -> Set[int]:
        """Enumerate the set of covered minterms (exponential; small spaces only)."""
        result: Set[int] = set()
        for cube in self._cubes:
            result.update(cube.minterms())
        return result

    @property
    def literal_count(self) -> int:
        """Total number of literals -- the quality metric used in Table 1."""
        return sum(cube.num_literals for cube in self._cubes)

    # ------------------------------------------------------------------ #
    # Set algebra
    # ------------------------------------------------------------------ #
    def union(self, other: "Cover") -> "Cover":
        """Return the sum of the two covers."""
        self._check_compatible(other)
        result = self.copy()
        result.extend(other)
        return result

    def __or__(self, other: "Cover") -> "Cover":
        return self.union(other)

    def intersect(self, other: "Cover") -> "Cover":
        """Return the product of the two covers (pairwise cube intersection)."""
        self._check_compatible(other)
        cubes: List[Cube] = []
        seen: Set[Tuple[int, int]] = set()
        for left in self._cubes:
            left_ones = left.ones
            left_zeros = left.zeros
            for right in other._cubes:
                ones = left_ones | right.ones
                zeros = left_zeros | right.zeros
                if ones & zeros:
                    continue
                key = (ones, zeros)
                if key not in seen:
                    seen.add(key)
                    cubes.append(Cube(self.nvars, ones, zeros))
        return Cover(self.nvars, cubes)

    def __and__(self, other: "Cover") -> "Cover":
        return self.intersect(other)

    def intersects(self, other: "Cover") -> bool:
        """Return True if the two covers share at least one minterm."""
        self._check_compatible(other)
        for left in self._cubes:
            left_ones = left.ones
            left_zeros = left.zeros
            for right in other._cubes:
                if not ((left_ones | right.ones) & (left_zeros | right.zeros)):
                    return True
        return False

    def intersect_cube(self, cube: Cube) -> "Cover":
        """Return the cover restricted to the given cube."""
        cube_ones = cube.ones
        cube_zeros = cube.zeros
        cubes: List[Cube] = []
        seen: Set[Tuple[int, int]] = set()
        for own in self._cubes:
            ones = own.ones | cube_ones
            zeros = own.zeros | cube_zeros
            if ones & zeros:
                continue
            key = (ones, zeros)
            if key not in seen:
                seen.add(key)
                cubes.append(Cube(self.nvars, ones, zeros))
        return Cover(self.nvars, cubes)

    def cofactor(self, cube: Cube) -> "Cover":
        """Generalised Shannon cofactor of the cover with respect to a cube."""
        cube_ones = cube.ones
        cube_zeros = cube.zeros
        fixed = cube_ones | cube_zeros
        cubes: List[Cube] = []
        seen: Set[Tuple[int, int]] = set()
        for own in self._cubes:
            own_ones = own.ones
            own_zeros = own.zeros
            if (own_ones & cube_zeros) | (own_zeros & cube_ones):
                continue  # distance > 0: the cube lies outside the cofactor
            key = (own_ones & ~fixed, own_zeros & ~fixed)
            if key not in seen:
                seen.add(key)
                cubes.append(Cube(self.nvars, key[0], key[1]))
        return Cover(self.nvars, cubes)

    def sharp(self, cube: Cube) -> "Cover":
        """Return the cover minus a cube (the *sharp* operation)."""
        result = Cover(self.nvars)  # result.add dedups through its key set
        for own in self._cubes:
            if not own.intersects(cube):
                result.add(own)
                continue
            # own \ cube: expand the complement of the cube inside own.
            remainder = own
            for var, value in cube.literals():
                piece = remainder.cofactor(var, 1 - value)
                if piece is not None:
                    result.add(piece.with_literal(var, 1 - value))
                next_remainder = remainder.cofactor(var, value)
                if next_remainder is None:
                    remainder = None
                    break
                remainder = next_remainder.with_literal(var, value)
        return result

    def difference(self, other: "Cover") -> "Cover":
        """Return this cover minus another cover."""
        self._check_compatible(other)
        result = self.copy()
        for cube in other:
            result = result.sharp(cube)
        return result

    def complement(self) -> "Cover":
        """Return a cover of the complement function.

        Uses recursive Shannon expansion on the most-bound variable, over
        the cubes' raw mask pairs (:func:`repro.boolean.pairs.complement_pairs`),
        on every cover size and kernel.
        """
        return Cover.from_mask_pairs(
            self.nvars,
            complement_pairs([(cube.ones, cube.zeros) for cube in self._cubes]),
        )

    # ------------------------------------------------------------------ #
    # Tautology / containment
    # ------------------------------------------------------------------ #
    def is_tautology(self, kernel: Optional[str] = None) -> bool:
        """Return True if the cover evaluates to 1 for every assignment."""
        matrix = _matrix_kernel(kernel, len(self._cubes))
        if matrix is not None:
            ones, zeros = matrix.pack_cover(self)
            return matrix.is_tautology_rows(self.nvars, ones, zeros)
        return _tautology_rec(self)

    def contains_cube(self, cube: Cube, kernel: Optional[str] = None) -> bool:
        """Return True if the cover covers every minterm of the cube."""
        matrix = _matrix_kernel(kernel, len(self._cubes))
        if matrix is not None:
            ones, zeros = matrix.pack_cover(self)
            words = matrix.words_for(self.nvars)
            return matrix.contains_cube_rows(
                self.nvars,
                ones,
                zeros,
                matrix.pack_row(cube.ones, words),
                matrix.pack_row(cube.zeros, words),
            )
        return self.cofactor(cube).is_tautology(kernel=kernel)

    def contains_cover(self, other: "Cover", kernel: Optional[str] = None) -> bool:
        """Return True if every cube of ``other`` is contained in this cover."""
        self._check_compatible(other)
        matrix = _matrix_kernel(kernel, len(self._cubes))
        if matrix is not None:
            ones, zeros = matrix.pack_cover(self)
            other_ones, other_zeros = matrix.pack_cover(other)
            # Fully-specified cubes (minterm covers, the synthesis common
            # case) take one batched point sweep; only genuinely wider
            # cubes need the cofactor/tautology recursion.
            counts = matrix.literal_counts(other_ones, other_zeros)
            points = counts == self.nvars
            if points.any():
                if not bool(
                    matrix.covered_points(
                        ones, zeros, other_ones[points], other_zeros[points]
                    ).all()
                ):
                    return False
            wide = matrix.np.flatnonzero(~points)
            return all(
                matrix.contains_cube_rows(
                    self.nvars, ones, zeros, other_ones[row], other_zeros[row]
                )
                for row in wide
            )
        return all(self.contains_cube(cube, kernel=kernel) for cube in other)

    def equivalent(self, other: "Cover") -> bool:
        """Return True if both covers denote the same Boolean function."""
        return self.contains_cover(other) and other.contains_cover(self)

    # ------------------------------------------------------------------ #
    # Normalisation
    # ------------------------------------------------------------------ #
    def single_cube_containment(self, kernel: Optional[str] = None) -> "Cover":
        """Drop cubes contained in a single other cube of the cover."""
        matrix = _matrix_kernel(kernel, len(self._cubes))
        if matrix is not None:
            return matrix.single_cube_containment_cover(self)
        kept: List[Cube] = []
        cubes = sorted(self._cubes, key=lambda c: c.num_literals)
        for cube in cubes:
            ones = cube.ones
            zeros = cube.zeros
            # A kept (weaker-or-equal literal count) cube contains this one
            # iff its literals are a subset of this cube's literals.
            if any(
                not (other.ones & ~ones) and not (other.zeros & ~zeros)
                for other in kept
            ):
                continue
            kept.append(cube)
        return Cover(self.nvars, kept)

    def irredundant(
        self, dc: Optional["Cover"] = None, kernel: Optional[str] = None
    ) -> "Cover":
        """Remove cubes covered by the rest of the cover plus the DC-set."""
        cubes = list(self.single_cube_containment(kernel=kernel))
        index = 0
        while index < len(cubes):
            rest = Cover(self.nvars, cubes[:index] + cubes[index + 1:])
            if dc is not None:
                rest = rest.union(dc)
            if rest.contains_cube(cubes[index], kernel=kernel):
                cubes.pop(index)
            else:
                index += 1
        return Cover(self.nvars, cubes)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_strings(self) -> List[str]:
        """Render all cubes in positional notation."""
        return [cube.to_string() for cube in self._cubes]

    def to_expression(self, names: Sequence[str]) -> str:
        """Render the cover as a sum of products using variable names."""
        if self.is_empty():
            return "0"
        return " + ".join(cube.to_expression(names) for cube in self._cubes)

    def __str__(self) -> str:
        return " + ".join(self.to_strings()) if self._cubes else "<empty>"

    def __repr__(self) -> str:
        return "Cover(%d, %r)" % (self.nvars, self.to_strings())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.nvars == other.nvars and set(self._cubes) == set(other._cubes)

    def __hash__(self) -> int:  # pragma: no cover - covers rarely hashed
        return hash((self.nvars, frozenset(self._cubes)))

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _append_checked(self, cube: Cube) -> None:
        if cube.nvars != self.nvars:
            raise CubeError(
                "cube over %d variables added to a cover over %d variables"
                % (cube.nvars, self.nvars)
            )
        self._cubes.append(cube)
        self._keys.add((cube.ones, cube.zeros))

    def _check_compatible(self, other: "Cover") -> None:
        if self.nvars != other.nvars:
            raise CubeError(
                "cover spaces differ: %d vs %d variables" % (self.nvars, other.nvars)
            )


# ---------------------------------------------------------------------- #
# Recursive helpers (unate recursive paradigm)
# ---------------------------------------------------------------------- #
def _select_splitting_var(cover: Cover) -> Optional[int]:
    """Pick the variable appearing in the largest number of cubes."""
    counts = [0] * cover.nvars
    for cube in cover:
        mask = cube.ones | cube.zeros
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    best_var = None
    best_count = 0
    for var, count in enumerate(counts):
        if count > best_count:
            best_var = var
            best_count = count
    return best_var


def _tautology_rec(cover: Cover) -> bool:
    """Recursive tautology check."""
    for cube in cover:
        if cube.is_full():
            return True
    if cover.is_empty():
        return False
    var = _select_splitting_var(cover)
    if var is None:
        # No literals anywhere but no full cube either: impossible since a
        # cube without literals *is* the full cube; defensive fallback.
        return False
    positive = cover.cofactor(Cube.full(cover.nvars).with_literal(var, 1))
    if not _tautology_rec(positive):
        return False
    negative = cover.cofactor(Cube.full(cover.nvars).with_literal(var, 0))
    return _tautology_rec(negative)
