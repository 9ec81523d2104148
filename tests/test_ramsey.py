import itertools
import json
import random

import pytest

from fraisse.ramsey import (
    BoxColoring,
    box_ramsey_upper_bound,
    check_directed_box,
    direction_count,
    direction_of,
    directions,
    find_monochromatic_box,
    find_monochromatic_directed_box,
    leq_t,
    multicolor_ramsey_upper,
    random_pair_coloring,
    random_point_coloring,
)


# -- direction vectors --------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_direction_count(k):
    assert len(directions(k)) == (3**k + 1) // 2 == direction_count(k)


def test_directions_are_canonical():
    for t in directions(3):
        nonzero = [c for c in t if c != 0]
        assert not nonzero or nonzero[0] == 1


def test_direction_of_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randrange(5) for _ in range(3))
        b = tuple(rng.randrange(5) for _ in range(3))
        a, b = min(a, b), max(a, b)
        t = direction_of(a, b)
        assert t in directions(3)
        assert leq_t(a, b, t)
        if a != b:
            assert sum(1 for u in directions(3) if leq_t(a, b, u)) == 1


def test_leq_t_pointwise():
    assert leq_t((0, 0), (1, 2), (1, 1))
    assert not leq_t((0, 3), (1, 2), (1, 1))
    assert leq_t((0, 3), (1, 2), (1, -1))
    assert leq_t((2, 2), (2, 2), (0, 0))


# -- colorings -----------------------------------------------------------------------------


def test_coloring_json_round_trip():
    coloring = random_pair_coloring(2, 3, 2, seed=5)
    clone = BoxColoring.from_json(json.loads(json.dumps(coloring.to_json())))
    assert clone.pair_map == coloring.pair_map
    assert clone.to_json() == coloring.to_json()


def test_point_coloring_covers_grid():
    coloring = random_point_coloring(2, 4, 3, seed=1)
    assert len(coloring.point_map) == 16
    assert set(coloring.point_map) <= {0, 1, 2}
    assert coloring.point_color((1, 2)) == coloring.point_map[coloring.index((1, 2))]


# -- the monochromatic-box finder -----------------------------------------------------------


def _box_points(sets):
    return itertools.product(*sets)


def test_constant_coloring_always_finds():
    coloring = BoxColoring(k=2, n=3, colors=2, point_map=[0] * 9)
    sets = find_monochromatic_box(coloring, 2)
    assert sets is not None
    assert all(len(s) == 2 for s in sets)
    assert all(coloring.point_color(p) == 0 for p in _box_points(sets))


def test_pigeonhole_dimension_one_exhaustive():
    # any 2-coloring of 3 points has a monochromatic pair
    for bits in itertools.product(range(2), repeat=3):
        coloring = BoxColoring(k=1, n=3, colors=2, point_map=list(bits))
        sets = find_monochromatic_box(coloring, 2)
        assert sets is not None
        assert bits[sets[0][0]] == bits[sets[0][1]]


FROZEN_NO_BOX = [0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0]


def test_frozen_counterexample_has_no_box():
    coloring = BoxColoring(k=2, n=4, colors=2, point_map=FROZEN_NO_BOX)
    assert find_monochromatic_box(coloring, 2) is None


def test_finder_box_is_monochromatic():
    coloring = random_point_coloring(2, 9, 2, seed=11)
    sets = find_monochromatic_box(coloring, 2)
    assert sets is not None  # 9 = box_ramsey_upper_bound(2, 2, 2) guarantees it
    colors = {coloring.point_color(p) for p in _box_points(sets)}
    assert len(colors) == 1


def test_fast_and_generic_paths_agree_on_3d():
    # k = 3 exercises the generic slice-filtering path
    coloring = random_point_coloring(3, 4, 2, seed=2)
    sets = find_monochromatic_box(coloring, 2)
    if sets is not None:
        colors = {coloring.point_color(p) for p in _box_points(sets)}
        assert len(colors) == 1


def _first_box_by_brute_force(coloring, m):
    """Color-major, then the index sets of each axis in turn, all
    lexicographic."""
    axis = list(itertools.combinations(range(coloring.n), m))
    for color in range(coloring.colors):
        for sets in itertools.product(axis, repeat=coloring.k):
            if all(coloring.point_color(p) == color for p in itertools.product(*sets)):
                return [list(s) for s in sets]
    return None


def _check_finder_against_brute_force(k):
    rng = random.Random(20200707)
    outcomes = set()
    for seed in range(120):
        n = rng.randint(1, 7 if k < 3 else 4)
        coloring = random_point_coloring(k, n, rng.randint(1, 3), seed=seed)
        m = rng.randint(1, n)
        sets = find_monochromatic_box(coloring, m)
        assert sets == _first_box_by_brute_force(coloring, m), (seed, n, m)
        outcomes.add(sets is None)
    assert outcomes == {True, False}


def test_planar_finder_matches_brute_force():
    _check_finder_against_brute_force(2)


@pytest.mark.parametrize("k", [1, 3])
def test_box_finder_matches_brute_force(k):
    # k = 1 takes the single-axis branch; k = 3 folds a leading axis first
    _check_finder_against_brute_force(k)


# -- directed boxes -------------------------------------------------------------------------


def test_directed_finder_and_checker_agree():
    coloring = random_pair_coloring(1, 8, 2, seed=3)
    sets = find_monochromatic_directed_box(coloring, 3)
    assert sets == [[0, 6, 7]]  # frozen: seed 3 admits this lexicographic-first box
    assert check_directed_box(coloring, sets)


def test_check_directed_box_rejects_mixed_direction_class():
    # pair colors alternate with distance, so the (1,) direction class mixes
    pair_map = {(i, j): (j - i) % 2 for i in range(6) for j in range(i, 6)}
    coloring = BoxColoring(k=1, n=6, colors=2, pair_map=pair_map)
    assert not check_directed_box(coloring, [[0, 1, 2]])
    assert check_directed_box(coloring, [[0, 2, 4]])
    assert find_monochromatic_directed_box(coloring, 3) == [[0, 2, 4]]


# -- upper bounds ---------------------------------------------------------------------------


def test_classical_ramsey_upper_values():
    assert multicolor_ramsey_upper((2, 2)) == 2
    assert multicolor_ramsey_upper((3, 3)) == 6
    assert multicolor_ramsey_upper((4, 4)) == 20
    assert multicolor_ramsey_upper((3, 3, 3)) == 17
    # the multinomial fallback for many colors is still a valid bound
    assert multicolor_ramsey_upper((2,) * 6) >= 7


def test_box_bound_values():
    assert box_ramsey_upper_bound(1, 2, 2) == 3
    assert box_ramsey_upper_bound(2, 2, 2) == 9
    assert box_ramsey_upper_bound(1, 2, 3) == 5
    assert box_ramsey_upper_bound(1, 2, 2, kind="directed") == 6


def test_box_bound_monotone_in_parameters():
    base = box_ramsey_upper_bound(1, 2, 2)
    assert box_ramsey_upper_bound(1, 2, 3) >= base
    assert box_ramsey_upper_bound(1, 3, 2) >= base
    assert box_ramsey_upper_bound(2, 2, 2) >= base


def test_box_bound_degenerate_cases():
    # one color: a box of side m always exists once n >= m
    assert box_ramsey_upper_bound(1, 1, 4) == 4
    assert box_ramsey_upper_bound(2, 1, 3) == 3
    for k, colors, m in [(1, 2, 2), (1, 2, 4), (2, 2, 2)]:
        assert box_ramsey_upper_bound(k, colors, m) >= m


@pytest.mark.parametrize("kind", ["point", "directed"])
def test_side_one_box_bound_is_one(kind):
    # a side-1 box is one point; the directed recursion used to run out of
    # memory building super-color counts such as 1024**4
    for k in range(1, 5):
        for colors in (1, 2, 3):
            assert box_ramsey_upper_bound(k, colors, 1, kind=kind) == 1


def test_directed_bound_overflow_guard():
    with pytest.raises(OverflowError):
        box_ramsey_upper_bound(3, 2, 2, kind="directed")


def test_point_bound_overflow_guard():
    # dimension 4 would need 2 ** ((2**81 + 1) ** 3): an exponent of 244 bits
    with pytest.raises(OverflowError):
        box_ramsey_upper_bound(4, 2, 2)
    assert box_ramsey_upper_bound(3, 2, 2) == 2**81 + 1


def test_bound_is_sufficient_for_small_cases():
    # every 2-coloring of a grid of the bound's size contains a box of side 2
    n = box_ramsey_upper_bound(1, 2, 2)
    for bits in itertools.product(range(2), repeat=n):
        coloring = BoxColoring(k=1, n=n, colors=2, point_map=list(bits))
        assert find_monochromatic_box(coloring, 2) is not None
