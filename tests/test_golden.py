"""Golden replay of the seeded search components and of `solve`.

Each (instance, call) pair pins what one seeded run with no deadline leaves
behind: the iteration count, the number of vertex moves on the working
solution (the sum of the visit frequencies) and the exact best set. Any change
to the RNG draws, their order or the search parameters shows up as a mismatch,
including changes that only alter the moves made after the last improvement.
A refactor that claims to preserve behaviour must leave every pinned value as
it is.
"""

import hashlib
import random

import pytest

from mwis import (
    Incumbent,
    SolutionState,
    SolverConfig,
    assign_weights_family_b,
    adaptive_descent,
    build_initial_solution,
    composite_search,
    density_radius,
    region_search,
    solve,
)
from mwis.exchange import (
    EXCHANGE_MODULES,
    _x0_pass,
    _xy_pass,
    two_improvement_pass,
    two_three_pass,
)

from util import random_gnm_graph, random_graph, random_maximal_is, use_counting_clock

# (seed, n, p): sparse and dense random graphs from 20 to 200 vertices.
INSTANCES = [(1, 20, 0.3), (2, 40, 0.5), (3, 80, 0.05), (4, 120, 0.2), (5, 200, 0.03), (6, 200, 0.3)]
CALLS = ["descent_global", "descent_40", "composite", "region_10"]
# Sparser graphs whose density radius exceeds 2, so construction takes the
# reduction path; the graphs above all take the greedy one.
SPARSE_INSTANCES = [(7, 300, 0.01), (8, 400, 0.008)]


def replay(key, call):
    seed, n, p = key
    g = random_graph(random.Random(seed), n, p)
    state = SolutionState(g, random_maximal_is(random.Random(seed), g))
    rng = random.Random(seed)
    inc = Incumbent(g, state.cs)
    if call == "descent_global":
        adaptive_descent(state, inc, -1, rng)
    elif call == "descent_40":
        adaptive_descent(state, inc, 40, rng)
    elif call == "composite":
        composite_search(state, inc, rng)
    else:
        region_search(state, inc, 2, 10, rng)
    return state.iter, sum(state.freq), sorted(inc.best)


def replay_from_construction(key, reset=False):
    """Descent at depth 40 from the solver's own initial solution. With
    `reset`, the working solution is then reset to the best set and descends
    again, as in the solver's sparse loop."""
    seed, n, p = key
    g = random_graph(random.Random(seed), n, p)
    state = SolutionState(g, build_initial_solution(g, density_radius(g)))
    rng = random.Random(seed)
    inc = Incumbent(g, state.cs)
    adaptive_descent(state, inc, 40, rng)
    if reset:
        state.reset_solution(inc.best)
        adaptive_descent(state, inc, 40, rng)
    return state.iter, sum(state.freq), sorted(inc.best)


GOLDEN = {
    ((1, 20, 0.3), 'descent_global'): (3001, 97118, [0, 5, 6, 13, 15, 16, 19]),
    ((1, 20, 0.3), 'descent_40'): (41, 740, [0, 5, 6, 13, 15, 16, 19]),
    ((1, 20, 0.3), 'composite'): (0, 8, [0, 5, 6, 13, 15, 16, 19]),
    ((1, 20, 0.3), 'region_10'): (0, 8, [0, 5, 6, 13, 15, 16, 19]),
    ((2, 40, 0.5), 'descent_global'): (3029, 93862, [13, 19, 21, 22, 23, 26]),
    ((2, 40, 0.5), 'descent_40'): (69, 1208, [13, 19, 21, 22, 23, 26]),
    ((2, 40, 0.5), 'composite'): (0, 20, [1, 2, 4, 10, 14, 29]),
    ((2, 40, 0.5), 'region_10'): (0, 8, [13, 19, 21, 22, 23, 26]),
    ((3, 80, 0.05), 'descent_global'): (
        3001,
        166371,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    ((3, 80, 0.05), 'descent_40'): (
        41,
        1123,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    ((3, 80, 0.05), 'composite'): (
        0,
        33,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    ((3, 80, 0.05), 'region_10'): (
        0,
        7,
        [
            3, 5, 10, 12, 14, 16, 17, 18, 20, 21, 23, 27, 28, 30, 31, 34, 36, 37, 40, 44, 46, 51,
            52, 54, 56, 60, 62, 63, 66, 67, 73, 76,
        ],
    ),
    ((4, 120, 0.2), 'descent_global'): (
        3006,
        163748,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    ((4, 120, 0.2), 'descent_40'): (
        46,
        1754,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    ((4, 120, 0.2), 'composite'): (
        0,
        63,
        [
            2, 4, 12, 13, 16, 24, 36, 40, 44, 56, 60, 62, 76, 80, 90, 91, 101, 107, 113,
        ],
    ),
    ((4, 120, 0.2), 'region_10'): (
        0,
        39,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    ((5, 200, 0.03), 'descent_global'): (
        3054,
        225718,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    ((5, 200, 0.03), 'descent_40'): (
        94,
        3525,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    ((5, 200, 0.03), 'composite'): (
        0,
        112,
        [
            4, 5, 7, 8, 10, 11, 12, 14, 15, 19, 20, 21, 24, 26, 29, 34, 37, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 63, 65, 72, 76, 79, 86, 94, 95, 96, 97, 99, 102, 106, 107, 108, 110,
            111, 119, 122, 125, 128, 129, 131, 132, 134, 135, 136, 138, 139, 141, 150, 157, 168,
            172, 173, 176, 177, 179, 180, 182, 183, 189, 195, 199,
        ],
    ),
    ((5, 200, 0.03), 'region_10'): (
        0,
        5,
        [
            11, 12, 14, 17, 22, 26, 27, 29, 30, 34, 36, 39, 41, 43, 49, 56, 57, 58, 59, 61, 62, 72,
            73, 75, 77, 81, 87, 88, 92, 94, 95, 102, 103, 105, 107, 108, 110, 111, 113, 114, 116,
            117, 118, 122, 123, 131, 136, 137, 140, 148, 149, 150, 153, 154, 157, 161, 163, 168,
            185, 188, 189, 196,
        ],
    ),
    ((6, 200, 0.3), 'descent_global'): (
        3229,
        165220,
        [
            10, 18, 21, 46, 68, 70, 140, 150, 160, 172, 178, 180, 184, 186, 192, 199,
        ],
    ),
    ((6, 200, 0.3), 'descent_40'): (
        110,
        3651,
        [
            0, 18, 39, 40, 47, 55, 63, 81, 104, 121, 122, 130, 140, 172, 176, 186,
        ],
    ),
    ((6, 200, 0.3), 'composite'): (
        0,
        32,
        [
            10, 15, 21, 53, 55, 63, 73, 74, 119, 126, 136, 141, 175, 176,
        ],
    ),
    ((6, 200, 0.3), 'region_10'): (
        0,
        26,
        [
            10, 18, 21, 46, 68, 70, 140, 150, 160, 172, 178, 180, 184, 186, 192, 199,
        ],
    ),
}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("key", INSTANCES, ids=lambda k: "s{}-n{}-p{}".format(*k))
def test_golden_replay(key, call):
    assert replay(key, call) == GOLDEN[key, call]


GOLDEN_CONSTRUCTION = {
    (1, 20, 0.3): (42, 752, [0, 5, 6, 13, 15, 16, 19]),
    (2, 40, 0.5): (50, 926, [13, 19, 21, 22, 23, 26]),
    (3, 80, 0.05): (
        59,
        1517,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    (4, 120, 0.2): (
        46,
        1582,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    (5, 200, 0.03): (
        51,
        1597,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    (6, 200, 0.3): (
        53,
        1973,
        [
            0, 18, 39, 40, 47, 55, 63, 81, 104, 121, 122, 130, 140, 172, 176, 186,
        ],
    ),
    (7, 300, 0.01): (
        40,
        1150,
        [
            2, 6, 8, 9, 11, 15, 16, 18, 19, 20, 22, 23, 25, 26, 27, 28, 29, 30, 33, 34, 35, 37, 39,
            41, 42, 44, 47, 50, 52, 55, 59, 60, 61, 62, 63, 65, 66, 67, 69, 74, 75, 78, 83, 84, 85,
            89, 90, 93, 94, 95, 97, 98, 99, 104, 105, 106, 110, 113, 114, 115, 116, 118, 119, 120,
            121, 123, 124, 125, 126, 129, 130, 132, 135, 137, 138, 140, 141, 142, 145, 146, 149,
            155, 157, 163, 164, 165, 166, 167, 169, 172, 177, 178, 179, 181, 183, 185, 187, 190,
            192, 193, 197, 198, 201, 202, 203, 205, 206, 209, 210, 212, 213, 214, 219, 224, 225,
            226, 227, 228, 234, 236, 240, 243, 244, 245, 246, 247, 248, 251, 254, 255, 257, 258,
            259, 260, 261, 262, 263, 264, 267, 268, 269, 272, 276, 277, 278, 282, 286, 287, 288,
            297,
        ],
    ),
    (8, 400, 0.008): (
        41,
        1330,
        [
            0, 1, 3, 5, 7, 8, 10, 12, 13, 17, 18, 22, 23, 24, 25, 27, 28, 29, 33, 34, 37, 38, 40,
            42, 45, 47, 50, 51, 54, 58, 60, 61, 64, 66, 67, 69, 70, 71, 73, 75, 78, 81, 84, 85, 89,
            90, 94, 96, 97, 99, 100, 101, 102, 103, 104, 106, 111, 112, 113, 117, 119, 120, 126,
            128, 129, 130, 131, 134, 135, 136, 137, 138, 139, 143, 145, 148, 150, 153, 156, 158,
            159, 160, 162, 163, 165, 166, 168, 170, 174, 176, 178, 179, 180, 182, 183, 184, 189,
            190, 191, 192, 193, 194, 196, 199, 200, 203, 204, 205, 206, 208, 209, 214, 215, 217,
            219, 222, 224, 225, 226, 227, 230, 232, 234, 235, 237, 239, 242, 243, 247, 250, 251,
            255, 259, 262, 265, 271, 273, 274, 275, 276, 281, 283, 286, 288, 289, 290, 291, 292,
            294, 296, 299, 300, 302, 304, 307, 308, 310, 311, 315, 317, 318, 319, 321, 326, 328,
            332, 335, 337, 342, 345, 347, 349, 360, 361, 362, 365, 366, 367, 368, 370, 371, 377,
            379, 380, 383, 387, 388, 389, 390, 391, 392, 394, 399,
        ],
    ),
}


@pytest.mark.parametrize(
    "key", INSTANCES + SPARSE_INSTANCES, ids=lambda k: "s{}-n{}-p{}".format(*k)
)
def test_golden_replay_from_construction(key):
    assert replay_from_construction(key) == GOLDEN_CONSTRUCTION[key]


def test_construction_cases_cover_both_paths():
    radii = {
        (seed, n, p): density_radius(random_graph(random.Random(seed), n, p))
        for seed, n, p in GOLDEN_CONSTRUCTION
    }
    assert all(radii[key] <= 2 for key in INSTANCES)  # greedy construction
    assert all(radii[key] > 2 for key in SPARSE_INSTANCES)  # reduction construction


GOLDEN_RESET = {
    (1, 20, 0.3): (82, 1432, [0, 5, 6, 13, 15, 16, 19]),
    (2, 40, 0.5): (90, 1676, [13, 19, 21, 22, 23, 26]),
    (3, 80, 0.05): (
        99,
        2335,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    (4, 120, 0.2): (
        86,
        3086,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    (5, 200, 0.03): (
        91,
        2675,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    (6, 200, 0.3): (
        93,
        3293,
        [
            0, 18, 39, 40, 47, 55, 63, 81, 104, 121, 122, 130, 140, 172, 176, 186,
        ],
    ),
    (7, 300, 0.01): (
        80,
        2308,
        [
            2, 6, 8, 9, 11, 15, 16, 18, 19, 20, 22, 23, 25, 26, 27, 28, 29, 30, 33, 34, 35, 37, 39,
            41, 42, 44, 47, 50, 52, 55, 59, 60, 61, 62, 63, 65, 66, 67, 69, 74, 75, 78, 83, 84, 85,
            89, 90, 93, 94, 95, 97, 98, 99, 104, 105, 106, 110, 113, 114, 115, 116, 118, 119, 120,
            121, 123, 124, 125, 126, 129, 130, 132, 135, 137, 138, 140, 141, 142, 145, 146, 149,
            155, 157, 163, 164, 165, 166, 167, 169, 172, 177, 178, 179, 181, 183, 185, 187, 190,
            192, 193, 197, 198, 201, 202, 203, 205, 206, 209, 210, 212, 213, 214, 219, 224, 225,
            226, 227, 228, 234, 236, 240, 243, 244, 245, 246, 247, 248, 251, 254, 255, 257, 258,
            259, 260, 261, 262, 263, 264, 267, 268, 269, 272, 276, 277, 278, 282, 286, 287, 288,
            297,
        ],
    ),
    (8, 400, 0.008): (
        81,
        2671,
        [
            0, 1, 3, 5, 7, 8, 10, 12, 13, 17, 18, 22, 23, 24, 25, 27, 28, 29, 33, 34, 37, 38, 40,
            42, 45, 47, 50, 51, 54, 58, 60, 61, 64, 66, 67, 69, 70, 71, 73, 75, 78, 81, 84, 85, 89,
            90, 94, 96, 97, 99, 100, 101, 102, 103, 104, 106, 111, 112, 113, 117, 119, 120, 126,
            128, 129, 130, 131, 134, 135, 136, 137, 138, 139, 143, 145, 148, 150, 153, 156, 158,
            159, 160, 162, 163, 165, 166, 168, 170, 174, 176, 178, 179, 180, 182, 183, 184, 189,
            190, 191, 192, 193, 194, 196, 199, 200, 203, 204, 205, 206, 208, 209, 214, 215, 217,
            219, 222, 224, 225, 226, 227, 230, 232, 234, 235, 237, 239, 242, 243, 247, 250, 251,
            255, 259, 262, 265, 271, 273, 274, 275, 276, 281, 283, 286, 288, 289, 290, 291, 292,
            294, 296, 299, 300, 302, 304, 307, 308, 310, 311, 315, 317, 318, 319, 321, 326, 328,
            332, 335, 337, 342, 345, 347, 349, 360, 361, 362, 365, 366, 367, 368, 370, 371, 377,
            379, 380, 383, 387, 388, 389, 390, 391, 392, 394, 399,
        ],
    ),
}


@pytest.mark.parametrize(
    "key", INSTANCES + SPARSE_INSTANCES, ids=lambda k: "s{}-n{}-p{}".format(*k)
)
def test_golden_replay_with_reset(key):
    assert replay_from_construction(key, reset=True) == GOLDEN_RESET[key]


# Every exchange neighbourhood, by name. The search runs them inside VND
# loops; here each one runs alone, so each improving move it can make is pinned.
PASSES = {
    "two_improvement": two_improvement_pass,
    **{f"xy_{x}_{y}": (lambda s, x=x, y=y: _xy_pass(s, x, y)) for x, y in EXCHANGE_MODULES},
    "x0": _x0_pass,
    "two_three": two_three_pass,
}


def replay_pass(key, name):
    """Run one pass to exhaustion from a random maximal solution. Returns the
    number of improving calls, the number of vertex moves, the final weight and
    a SHA-256 of the solution's sorted members."""
    seed, n, p = key
    g = random_graph(random.Random(seed), n, p)
    state = SolutionState(g, random_maximal_is(random.Random(seed), g))
    improving = 0
    while PASSES[name](state):
        improving += 1
    digest = hashlib.sha256(repr(sorted(state.cs)).encode()).hexdigest()
    return improving, sum(state.freq), state.cs_weight, digest


GOLDEN_PASSES = {
    ((7, 300, 0.01), 'two_improvement'): (
        10, 30, 15420, '9c34dddd848646df50178a8802c9c47cbb84cfe521c76646e4238b9f8195b33c',
    ),
    ((7, 300, 0.01), 'xy_1_1'): (
        26, 117, 17515, '386be36621e09591df0746465712aa5e8d86a34a92c3271c613756f5ed080fc2',
    ),
    ((7, 300, 0.01), 'xy_1_2'): (
        8, 57, 15778, '5da05d0e7e82eebde5ccf33dfba24c95e6ed08db333b9f591353daaa7eb5fb79',
    ),
    ((7, 300, 0.01), 'xy_2_1'): (
        8, 44, 15717, '2fa899bbaa6b9f93d396913077c8db6916f033e5b6b9f7d83edd34cdacbbd288',
    ),
    ((7, 300, 0.01), 'xy_2_2'): (
        3, 24, 15025, '06fd4821d35a9912cd829ee666181c0ad28b9e858728073691097cbca56b0520',
    ),
    ((7, 300, 0.01), 'xy_3_1'): (
        1, 6, 14645, 'f2823e98159fb8fd971ef96225c73d9a7443ddb8b89d2db62b85024d000956b2',
    ),
    ((7, 300, 0.01), 'xy_3_2'): (
        1, 9, 14635, 'e207b77b7db434c648fffa3428345716ecf918b3636cba6d37e07809acf2e79b',
    ),
    ((7, 300, 0.01), 'x0'): (
        37, 90, 17380, '5944ff0c64f84a8a3057ae2a3c6663a528f33f63b7cdf264247f03ba2c5f4ff5',
    ),
    ((7, 300, 0.01), 'two_three'): (
        6, 34, 15884, '5d19d8d2eea06e8254b75736f298e5329c7ba3d59d560b6bf85878125801b312',
    ),
    ((8, 400, 0.008), 'two_improvement'): (
        16, 48, 19943, '51de56947f647fff852968c4319806b57e92014b947da7fcb6c3942eddf66b92',
    ),
    ((8, 400, 0.008), 'xy_1_1'): (
        15, 67, 19979, 'e2a077ec1b889565604742ce6d62f0f1ee633f947527a8544b15d1680f7164f5',
    ),
    ((8, 400, 0.008), 'xy_1_2'): (
        8, 55, 19428, '910a0137bbb6d70d1cb4d2c7060ac4aef7d6edce41151c4a36bd9889074a18b2',
    ),
    ((8, 400, 0.008), 'xy_2_1'): (
        5, 28, 19007, 'dd12cb3127182357338e976587c2989285a136b0dc093ff4da6c4fef49ccfb80',
    ),
    ((8, 400, 0.008), 'xy_2_2'): (
        2, 14, 17968, 'c543b217dc1d39602e95e0df5aff50ef0fe073580f49cedd3cdc311f8ff27fab',
    ),
    ((8, 400, 0.008), 'xy_3_1'): (
        1, 7, 18134, '67961fcb71c70999af5a368a9ca2bdb00c6144e39b0c7ad7826159ef927c8a0c',
    ),
    ((8, 400, 0.008), 'xy_3_2'): (
        0, 0, 17812, '77d30a6bcbd8ae89085960cdc4c6e9e03698367214696e09abaee2ea8351ceed',
    ),
    ((8, 400, 0.008), 'x0'): (
        47, 115, 21332, '9fe269cf7d963128ba13e42b1fde8859a6330f2585fe0735fc256f20ceb07a2f',
    ),
    ((8, 400, 0.008), 'two_three'): (
        8, 43, 19098, '8b46f9b2ccbd7f6f89f0897761b54d4a78aef73342832345aeb26a876f5ec9d0',
    ),
}


@pytest.mark.parametrize("name", PASSES)
@pytest.mark.parametrize("key", SPARSE_INSTANCES, ids=lambda k: "s{}-n{}-p{}".format(*k))
def test_golden_pass_replay(key, name):
    assert replay_pass(key, name) == GOLDEN_PASSES[key, name]


def test_pass_cases_improve_in_every_neighbourhood():
    for name in PASSES:
        assert any(GOLDEN_PASSES[key, name][0] > 0 for key in SPARSE_INSTANCES), name


# solve() under a clock that advances 1 µs per read, so the time limit becomes
# a fixed number of clock reads: (seed, n, m, time_limit) -> (best_weight,
# iterations, trace as (clock reads since the start, weight), SHA-256 of
# repr(best_set)). The sparse case runs global descent, then region search
# (48 centres, no splice; the region_10 cases above pin splices) and composite
# recovery; the dense one runs the composite loop. Any change to where or in
# what order the solver reads the clock also shows up here.
GOLDEN_SOLVE = {
    (2, 300, 600, 0.12): (
        15771,
        3057,
        [(204, 15649), (217, 15692), (482, 15702), (974, 15771)],
        "583576f162b927db99fd9b53c92a555234962bfe8a3d0bd6eefb22ecf60d607f",
    ),
    (1, 300, 9000, 0.01): (
        3781,
        458,
        [
            (12, 3332), (26, 3516), (32, 3520), (251, 3588), (513, 3636), (824, 3649),
            (843, 3742), (4657, 3781),
        ],
        "5d5621068f92de474a2c13986de28a19d40b2bfe2de2395ab9a4437561dcb33c",
    ),
}


@pytest.mark.parametrize("key", GOLDEN_SOLVE, ids=lambda k: "s{}-n{}-m{}".format(*k))
def test_golden_solve_under_counting_clock(key, monkeypatch):
    seed, n, m, limit = key
    use_counting_clock(monkeypatch)
    g = assign_weights_family_b(random_gnm_graph(random.Random(seed), n, m), seed=seed)
    r = solve(g, SolverConfig(time_limit=limit, seed=seed))
    trace = [(round(t * 1e6), w) for t, w in r.trace]
    digest = hashlib.sha256(repr(r.best_set).encode()).hexdigest()
    assert (r.best_weight, r.iterations, trace, digest) == GOLDEN_SOLVE[key]
