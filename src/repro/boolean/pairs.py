"""Cube covers as raw ``(ones, zeros)`` int pairs.

The unate-recursive passes of Espresso that *construct* cubes -- the
complement behind the off-set and the bounding box behind REDUCE -- run
here on plain python-int mask pairs at every cover size.  A pair is the
``(ones, zeros)`` of a :class:`~repro.boolean.cube.Cube` without the object
around it, so a recursion step costs a few integer operations per row and
no numpy dispatch; covers of thousands of rows measured no faster on uint64
cube matrices.  The module imports nothing beyond the standard library,
which keeps numpy out of small runs.

The recursions split on the most-bound variable (lowest index on ties)
and take the positive branch first, exactly as the ``Cube``-object
reference in the test suite does, so :func:`complement_pairs` returns the
reference's cubes in the reference's order.  The tautology check and the
bounding box are semantic, so they are free to apply extra reductions.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

__all__ = ["complement_pairs", "bounding_difference_pairs"]

Pair = Tuple[int, int]


def _split_var_pairs(pairs: Iterable[Pair]) -> Optional[int]:
    """The most-bound variable of the rows, lowest index on ties.

    Occurrence counts are kept bit-sliced: ``planes[k]`` holds bit ``k`` of
    every variable's count, so adding a row is a ripple-carry of its bound
    mask through the planes.  The maximum is read off from the top plane
    down, narrowing the candidates to those with each bit set whenever
    some candidate has it.  ``None`` when no row binds a variable.
    """
    planes: List[int] = []
    for ones, zeros in pairs:
        carry = ones | zeros
        level = 0
        while carry:
            if level == len(planes):
                planes.append(carry)
                break
            plane = planes[level]
            planes[level] = plane ^ carry
            carry &= plane
            level += 1
    if not planes:
        return None
    # The top plane is never empty: a carry that clears it moves up into a
    # new top plane.
    best = planes[-1]
    for plane in reversed(planes[:-1]):
        narrowed = best & plane
        if narrowed:
            best = narrowed
    return (best & -best).bit_length() - 1


def _cofactor_pairs(pairs: Iterable[Pair], cube_ones: int, cube_zeros: int) -> List[Pair]:
    """Generalised Shannon cofactor against one cube, first occurrences kept."""
    fixed = cube_ones | cube_zeros
    out: List[Pair] = []
    seen = set()
    for ones, zeros in pairs:
        if (ones & cube_zeros) | (zeros & cube_ones):
            continue
        key = (ones & ~fixed, zeros & ~fixed)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _tautology_pairs(pairs: List[Pair]) -> bool:
    """True when the rows cover every minterm.

    Tautology is semantic, so this recursion applies the classic unate
    reduction: rows with a literal of a unate variable never help cover
    the opposite half-space (``taut(C) == taut(C`` cofactored against the
    unate orientation``)``).  Once no unate variable is left every bound
    variable is binate, so the split variable is binate too.
    """
    while True:
        if not pairs:
            return False
        if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
            return True
        or_ones = 0
        or_zeros = 0
        for ones, zeros in pairs:
            or_ones |= ones
            or_zeros |= zeros
        binate = or_ones & or_zeros
        pos_unate = or_ones & ~binate
        neg_unate = or_zeros & ~binate
        if pos_unate | neg_unate:
            pairs = [
                (ones, zeros)
                for ones, zeros in pairs
                if not ((ones & pos_unate) | (zeros & neg_unate))
            ]
            continue
        bit = 1 << _split_var_pairs(pairs)
        if not _tautology_pairs(_cofactor_pairs(pairs, bit, 0)):
            return False
        pairs = _cofactor_pairs(pairs, 0, bit)


def _bounding_pairs(ctx_ones: int, ctx_zeros: int, pairs: List[Pair]) -> Optional[Pair]:
    """Smallest cube containing ``context minus rows``, or ``None`` if empty.

    ``pairs`` must already be cofactored against the context, so no row
    binds a context variable.  A variable is bound in the box iff every
    minterm of the difference agrees on it, so the box of the whole is the
    intersection of the boxes of the two Shannon halves.  A single-literal
    row ``x=v`` covers the whole ``x=v`` half, so the difference lives in
    ``x=not v``: that is bound into the context instead of branching.
    """
    while True:
        if not pairs:
            return ctx_ones, ctx_zeros
        if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
            return None
        single = None
        for ones, zeros in pairs:
            mask = ones | zeros
            if not (mask & (mask - 1)):
                single = (ones, mask)
                break
        if single is None:
            break
        ones, bit = single
        if ones:
            ctx_zeros |= bit
            pairs = _cofactor_pairs(pairs, 0, bit)
        else:
            ctx_ones |= bit
            pairs = _cofactor_pairs(pairs, bit, 0)
    bit = 1 << _split_var_pairs(pairs)
    box = _bounding_pairs(ctx_ones | bit, ctx_zeros, _cofactor_pairs(pairs, bit, 0))
    negative = _cofactor_pairs(pairs, 0, bit)
    if box == (ctx_ones | bit, ctx_zeros):
        # The positive half is all difference, so the box is the context
        # unless the negative half is covered: a tautology check decides.
        return box if _tautology_pairs(negative) else (ctx_ones, ctx_zeros)
    other = _bounding_pairs(ctx_ones, ctx_zeros | bit, negative)
    if box is None:
        return other
    if other is None:
        return box
    return box[0] & other[0], box[1] & other[1]


def bounding_difference_pairs(
    cube_ones: int, cube_zeros: int, rest: Iterable[Pair]
) -> Optional[Pair]:
    """Smallest cube containing ``cube minus rest``; ``None`` when ``rest``
    covers the cube.  This is Espresso's REDUCE step for one cube."""
    return _bounding_pairs(
        cube_ones, cube_zeros, _cofactor_pairs(rest, cube_ones, cube_zeros)
    )


def _complement_pairs(
    pairs: List[Pair], ctx_ones: int, ctx_zeros: int, pieces: List[Pair]
) -> None:
    """Append cubes covering ``context and not rows`` to ``pieces``.

    ``pairs`` is non-empty, holds no full row and binds no context
    variable.  Both Shannon cofactors are built in one pass over the rows,
    each deduplicated on first occurrence (the dedup feeds the next split
    variable's counts); a cofactor holding the full row ``(0, 0)`` has an
    empty complement and is not entered.
    """
    bit = 1 << _split_var_pairs(pairs)
    positive: dict = {}
    negative: dict = {}
    for ones, zeros in pairs:
        if ones & bit:
            positive[ones ^ bit, zeros] = None
        elif zeros & bit:
            negative[ones, zeros ^ bit] = None
        else:
            positive[ones, zeros] = None
            negative[ones, zeros] = None
    for branch, branch_ones, branch_zeros in (
        (positive, ctx_ones | bit, ctx_zeros),
        (negative, ctx_ones, ctx_zeros | bit),
    ):
        if not branch:
            pieces.append((branch_ones, branch_zeros))
        elif (0, 0) not in branch:
            _complement_pairs(list(branch), branch_ones, branch_zeros, pieces)


def complement_pairs(pairs: List[Pair]) -> List[Pair]:
    """Disjoint cubes covering the complement of the rows.

    Unate-recursive Shannon expansion on the most-bound variable, positive
    half first; each emitted cube is the accumulated branch context.
    """
    if not pairs:
        return [(0, 0)]
    if any(ones == 0 and zeros == 0 for ones, zeros in pairs):
        return []
    pieces: List[Pair] = []
    _complement_pairs(pairs, 0, 0, pieces)
    return pieces
