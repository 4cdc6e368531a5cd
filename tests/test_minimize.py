"""Unit tests for the two-level minimisers."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.boolean import Cover, Cube, espresso, quine_mccluskey
from repro.boolean import minimize as minimize_mod
from repro.boolean.minimize import _expand_cube, _reduce
from repro.boolean.pairs import _split_var_pairs
from repro.obs import tracing


def cover(*rows):
    return Cover.from_strings(list(rows))


def check_correct(result_cover, on, dc):
    """The minimised cover must contain the on-set and avoid the off-set."""
    on_minterms = on.minterms()
    dc_minterms = dc.minterms()
    result_minterms = result_cover.minterms()
    assert on_minterms <= result_minterms
    assert result_minterms <= (on_minterms | dc_minterms)


def test_espresso_paper_example():
    # On-set of signal b from Figure 1: minimises to a + c (2 literals).
    on = cover("100", "110", "101", "111", "011", "001")
    dc = Cover.empty(3)
    result = espresso(on, dc)
    check_correct(result.cover, on, dc)
    assert result.cover.literal_count == 2


def test_espresso_uses_dont_cares():
    on = cover("100")
    dc = cover("110", "101", "111")
    result = espresso(on, dc)
    check_correct(result.cover, on, dc)
    assert result.cover.literal_count == 1  # expands to "1--"


def test_espresso_empty_on_set():
    result = espresso(Cover.empty(4))
    assert result.cover.is_empty()


def test_espresso_with_explicit_off_set():
    on = cover("100", "110")
    off = cover("0--")
    result = espresso(on, off=off)
    assert on.minterms() <= result.cover.minterms()
    assert not result.cover.intersects(off)


def test_espresso_never_changes_function_on_care_set():
    on = cover("0000", "0001", "0011", "0111", "1111", "1000")
    dc = cover("1100")
    result = espresso(on, dc)
    check_correct(result.cover, on, dc)


def test_quine_mccluskey_exact_simple():
    on = cover("100", "110", "101", "111", "011", "001")
    result = quine_mccluskey(on)
    assert result.minterms() == on.minterms()
    assert result.literal_count == 2


def test_quine_mccluskey_with_dc():
    on = cover("0000", "1000")
    dc = cover("0100", "1100")
    result = quine_mccluskey(on, dc)
    assert on.minterms() <= result.minterms() <= on.minterms() | dc.minterms()
    assert result.literal_count == 2  # c' d'


def test_quine_mccluskey_rejects_large_spaces():
    with pytest.raises(ValueError):
        quine_mccluskey(Cover.empty(20).union(Cover.universe(20)))


def test_espresso_not_worse_than_input():
    on = cover("1010", "1011", "1000", "1001")
    result = espresso(on)
    assert result.cover.literal_count <= on.literal_count
    check_correct(result.cover, on, Cover.empty(4))


def test_espresso_matches_quine_mccluskey_quality_on_small_functions():
    on = cover("000", "010", "011", "111")
    dc = cover("100")
    heuristic = espresso(on, dc).cover
    exact = quine_mccluskey(on, dc)
    check_correct(heuristic, on, dc)
    # The heuristic may be slightly worse but never better than exact.
    assert heuristic.literal_count >= exact.literal_count
    assert heuristic.literal_count <= exact.literal_count + 2


# ---------------------------------------------------------------------- #
# EXPAND: the blocking-set scan against the plain ascending scan
# ---------------------------------------------------------------------- #
def expand_cube_oracle(cube, off_masks):
    """Reference EXPAND: try each literal lowest bit first and drop it
    unless the grown cube then meets some off-cube, re-walking the whole
    off-set for every literal."""
    ones = cube.ones
    zeros = cube.zeros
    mask = ones | zeros
    while mask:
        low = mask & -mask
        mask ^= low
        cand_ones = ones & ~low
        cand_zeros = zeros & ~low
        for off_ones, off_zeros in off_masks:
            if not ((cand_ones | off_ones) & (cand_zeros | off_zeros)):
                break  # hits the off-set: keep the literal
        else:
            ones = cand_ones
            zeros = cand_zeros
    return Cube(cube.nvars, ones, zeros)


EXPAND_WIDTHS = [1, 12, 65, 128]


@st.composite
def cube_masks(draw, nvars):
    """A random ``(ones, zeros)`` pair binding about ``2**-k`` of the
    variables for a drawn ``k`` in 0..3 (sparse cubes block less)."""
    full = (1 << nvars) - 1
    bound = full
    for _ in range(draw(st.integers(0, 3))):
        bound &= draw(st.integers(0, full))
    polarity = draw(st.integers(0, full))
    return bound & polarity, bound & ~polarity


@st.composite
def expand_cases(draw):
    nvars = draw(st.sampled_from(EXPAND_WIDTHS))
    ones, zeros = draw(cube_masks(nvars))
    # Off-cubes drawn from a small pool, so duplicates are common.
    pool = draw(st.lists(cube_masks(nvars), min_size=1, max_size=6))
    off = draw(st.lists(st.sampled_from(pool), max_size=12))
    if draw(st.booleans()):
        # A supercube of the cube: the off-set already meets it.
        keep = draw(st.integers(0, (1 << nvars) - 1))
        off.insert(draw(st.integers(0, len(off))), (ones & keep, zeros & keep))
    return Cube(nvars, ones, zeros), off


@settings(max_examples=300, deadline=None)
@given(expand_cases())
def test_expand_cube_matches_ascending_scan(case):
    cube, off = case
    grown = _expand_cube(cube, off)
    expected = expand_cube_oracle(cube, off)
    assert (grown.ones, grown.zeros) == (expected.ones, expected.zeros)


@pytest.mark.parametrize("nvars", EXPAND_WIDTHS)
def test_expand_cube_edge_cases(nvars):
    ones = ((1 << nvars) - 1) & int("01" * 64, 2)
    zeros = (1 << nvars) - 1 & ~ones
    cube = Cube(nvars, ones, zeros)
    cases = [
        # Empty off-set: every literal drops.
        ([], Cube.full(nvars)),
        # An off-cube that meets the cube: nothing drops.
        ([(0, zeros)], cube),
        ([(ones, zeros), (ones, zeros)], cube),
    ]
    if nvars > 1:
        # Duplicated blocking off-cube contradicting only the top literal:
        # that literal is the one kept.
        top = 1 << (nvars - 1)
        off = [(zeros & top, ones & top)] * 3
        cases.append((off, Cube(nvars, ones & top, zeros & top)))
    for off, expected in cases:
        for grown in (_expand_cube(cube, off), expand_cube_oracle(cube, off)):
            assert (grown.ones, grown.zeros) == (expected.ones, expected.zeros)


def test_espresso_expand_counters_are_deterministic():
    on = cover("0000", "0001", "0011", "0111", "1111", "1000")
    dc = cover("1100")
    counts = []
    for _ in range(2):
        with tracing("espresso") as tracer:
            espresso(on, dc)
        counts.append(
            (
                tracer.root.counters["expand_cubes"],
                tracer.root.counters["expand_literals_dropped"],
            )
        )
    assert counts[0] == counts[1]
    expanded, dropped = counts[0]
    assert expanded >= len(on)
    assert 0 < dropped <= on.literal_count


# ---------------------------------------------------------------------- #
# Split variable and REDUCE on raw mask pairs
# ---------------------------------------------------------------------- #
def split_var_oracle(pairs):
    """The most-bound variable counted bit by bit, lowest index on ties."""
    counts = {}
    for ones, zeros in pairs:
        mask = ones | zeros
        var = 0
        while mask:
            if mask & 1:
                counts[var] = counts.get(var, 0) + 1
            mask >>= 1
            var += 1
    if not counts:
        return None
    best = max(counts.values())
    return min(var for var, count in counts.items() if count == best)


@st.composite
def split_cases(draw):
    nvars = draw(st.sampled_from(EXPAND_WIDTHS))
    # Rows drawn from a small pool, so counts tie and carry often; the
    # full row (0, 0) binds nothing.
    pool = draw(st.lists(cube_masks(nvars), min_size=1, max_size=5))
    pool.append((0, 0))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_var_matches_per_bit_count(pairs):
    assert _split_var_pairs(pairs) == split_var_oracle(pairs)


@pytest.mark.parametrize("nvars", EXPAND_WIDTHS)
def test_split_var_edge_cases(nvars):
    full = (1 << nvars) - 1
    assert _split_var_pairs([]) is None
    assert _split_var_pairs([(0, 0)] * 5) is None
    # Every variable bound equally often: the lowest index wins the tie.
    assert _split_var_pairs([(full, 0), (0, full)] * 3) == 0
    # The top variable, bound in both polarities, outcounts variable 0.
    top = 1 << (nvars - 1)
    assert _split_var_pairs([(1, 0), (top, 0), (0, top)]) == nvars - 1


def reduce_oracle(cover, dc):
    """REDUCE by explicit difference: each cube becomes the supercube of
    ``cube minus (reduced cubes before it, original cubes after it, dc)``,
    or stays as it is when that difference is empty."""
    cubes = list(cover)
    reduced = []
    for index, cube in enumerate(cubes):
        rest = Cover(cover.nvars, reduced + cubes[index + 1:]).union(dc)
        essential = Cover(cover.nvars, [cube]).difference(rest)
        if essential.is_empty():
            reduced.append(cube)
            continue
        smallest = essential[0]
        for piece in essential:
            smallest = smallest.supercube(piece)
        reduced.append(smallest)
    return Cover(cover.nvars, reduced)


@st.composite
def reduce_cases(draw):
    nvars = draw(st.sampled_from([1, 5, 12, 65]))
    pool = draw(st.lists(cube_masks(nvars), min_size=1, max_size=8))
    cubes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    dc = draw(st.lists(cube_masks(nvars), max_size=3))
    return Cover.from_mask_pairs(nvars, cubes), Cover.from_mask_pairs(nvars, dc)


@settings(max_examples=200, deadline=None)
@given(reduce_cases())
def test_pair_reduce_matches_difference_oracle(case):
    cover_, dc = case
    stats = [0, 0]
    reduced = _reduce(cover_, [(c.ones, c.zeros) for c in dc], stats)
    expected = reduce_oracle(cover_, dc)
    assert list(reduced) == list(expected)
    shrunk = [(old, new) for old, new in zip(cover_, reduced) if old != new]
    assert stats == [
        len(shrunk),
        sum(new.num_literals - old.num_literals for old, new in shrunk),
    ]


def test_espresso_reduce_and_complement_counters(monkeypatch):
    on = cover("0000", "0001", "0011", "0111", "1111", "1000")
    dc = cover("1100")
    with tracing("espresso") as tracer:
        espresso(on, dc)
    counters = tracer.root.counters
    assert counters["complement_out_cubes"] == len(on.union(dc).complement())
    assert counters["reduce_cubes_shrunk"] >= 0
    assert counters["reduce_literals_added"] >= counters["reduce_cubes_shrunk"]
    # An explicit off-set skips the complement.
    with tracing("espresso") as tracer:
        espresso(on, off=on.union(dc).complement())
    assert tracer.root.counters["complement_out_cubes"] == 0
    # Untraced runs hand REDUCE no statistics to fill.
    seen = []
    real_reduce = minimize_mod._reduce

    def spy(cover_, dc_pairs, stats=None):
        seen.append(stats)
        return real_reduce(cover_, dc_pairs, stats)

    monkeypatch.setattr(minimize_mod, "_reduce", spy)
    espresso(on, dc)
    assert seen and all(stats is None for stats in seen)
