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
    """Descent at depth 40 from the solver's own initial solution, whose
    insertion order seeds the non-solution sampling pool. With `reset`, the
    working solution is then reset to the best set and descends again, as in
    the solver's sparse loop; the best set's insertion order reseeds the pool."""
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
        165202,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    ((3, 80, 0.05), 'descent_40'): (
        41,
        1037,
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
        3123,
        167964,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    ((4, 120, 0.2), 'descent_40'): (
        71,
        2669,
        [
            13, 16, 24, 37, 40, 42, 50, 56, 62, 69, 76, 88, 89, 92, 107, 110, 112, 113, 117, 118,
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
        34,
        [
            2, 3, 12, 13, 16, 18, 19, 24, 44, 56, 59, 73, 76, 80, 90, 101, 104, 113,
        ],
    ),
    ((5, 200, 0.03), 'descent_global'): (
        3046,
        222935,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    ((5, 200, 0.03), 'descent_40'): (
        86,
        2472,
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
        3196,
        161647,
        [
            10, 18, 21, 46, 68, 70, 140, 150, 160, 172, 178, 180, 184, 186, 192, 199,
        ],
    ),
    ((6, 200, 0.3), 'descent_40'): (
        50,
        1749,
        [
            18, 47, 70, 71, 140, 145, 155, 160, 166, 172, 178, 180, 192, 199,
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
        28,
        [
            0, 18, 39, 40, 47, 55, 63, 81, 104, 121, 122, 130, 140, 172, 176, 186,
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
        60,
        1658,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    (4, 120, 0.2): (
        75,
        2460,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    (5, 200, 0.03): (
        53,
        1849,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    (6, 200, 0.3): (
        96,
        3812,
        [
            0, 18, 39, 40, 47, 55, 63, 81, 104, 121, 122, 130, 140, 172, 176, 186,
        ],
    ),
    (7, 300, 0.01): (
        40,
        1288,
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
        1494,
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
        100,
        2719,
        [
            2, 3, 5, 8, 9, 10, 16, 17, 18, 21, 22, 23, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 42,
            46, 53, 54, 55, 60, 64, 65, 66, 68, 73, 74, 76, 77,
        ],
    ),
    (4, 120, 0.2): (
        115,
        3921,
        [
            3, 13, 16, 24, 37, 42, 50, 56, 59, 62, 69, 76, 82, 88, 89, 92, 110, 112, 113, 117, 118,
        ],
    ),
    (5, 200, 0.03): (
        93,
        3123,
        [
            4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 19, 20, 24, 26, 29, 30, 34, 40, 42, 43, 47, 49, 52,
            55, 57, 58, 61, 62, 63, 72, 76, 79, 80, 82, 86, 90, 93, 94, 95, 96, 97, 99, 101, 103,
            106, 107, 108, 110, 113, 122, 128, 129, 131, 132, 135, 136, 138, 141, 146, 150, 157,
            168, 170, 176, 180, 182, 183, 184, 189, 195, 196, 198, 199,
        ],
    ),
    (6, 200, 0.3): (
        142,
        5458,
        [
            10, 18, 21, 27, 38, 39, 140, 160, 172, 178, 180, 184, 186, 192, 199,
        ],
    ),
    (7, 300, 0.01): (
        80,
        2442,
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
        2793,
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
    a SHA-256 of the solution in insertion order."""
    seed, n, p = key
    g = random_graph(random.Random(seed), n, p)
    state = SolutionState(g, random_maximal_is(random.Random(seed), g))
    improving = 0
    while PASSES[name](state):
        improving += 1
    digest = hashlib.sha256(repr(list(state.cs)).encode()).hexdigest()
    return improving, sum(state.freq), state.cs_weight, digest


GOLDEN_PASSES = {
    ((7, 300, 0.01), 'two_improvement'): (
        10, 30, 15420, '4258374f75e4d290fc6611f395f13ee4f4010684caa97693a7d521f9133533a9',
    ),
    ((7, 300, 0.01), 'xy_1_1'): (
        26, 117, 17515, '4dd279d6fa35fb18d882d5fc2b242e817e2bffe6fdefd7ab28c2c9f47ae8c2ef',
    ),
    ((7, 300, 0.01), 'xy_1_2'): (
        8, 57, 15778, '4a20a4b24522f228ae9609c606c3536ee017853091f6c23417c024b34ab75bb7',
    ),
    ((7, 300, 0.01), 'xy_2_1'): (
        8, 44, 15717, '3118782031a78457de43ae3712cd27a8117645b092eb08aaa0e850f0e7a3de42',
    ),
    ((7, 300, 0.01), 'xy_2_2'): (
        3, 24, 15025, '8bd659f64c17367e9a47b5a41be4d03acf96f9d8644bf027e41c546278f9df73',
    ),
    ((7, 300, 0.01), 'xy_3_1'): (
        1, 6, 14645, 'b00b5a88decd9ec5d3676197f8e3e1a219ffbdaf02c6f393fa7a7206ddf0ba7d',
    ),
    ((7, 300, 0.01), 'xy_3_2'): (
        1, 9, 14635, '670704d9032cba3575975aff11f812a7e78e36f5832126f2870627c61462d03e',
    ),
    ((7, 300, 0.01), 'x0'): (
        37, 90, 17380, 'b5cd832ec8e5e60954f28fdad9a881a98a6cbece4482085adc75c1b540a29b65',
    ),
    ((7, 300, 0.01), 'two_three'): (
        6, 34, 15884, '706785651a3c1ac1ce9406234ae8e9200f36c1336626a771dcf34fd305f42fe9',
    ),
    ((8, 400, 0.008), 'two_improvement'): (
        16, 48, 19943, '999e85eef2a53a30c68c317f55310680e79291721fb74233eabee550c6399be2',
    ),
    ((8, 400, 0.008), 'xy_1_1'): (
        15, 67, 19979, '9558f5017461f3fbc87e6a01c097712a6bb842e6257043b309c823a91a66f1c2',
    ),
    ((8, 400, 0.008), 'xy_1_2'): (
        8, 55, 19428, '189fc49ed3c191e3101d2e87f4bd0d2e169c77223fd6716407efae5e73fbda81',
    ),
    ((8, 400, 0.008), 'xy_2_1'): (
        5, 28, 19007, '6f6bea2ad024abe88b09425c862b793cbb359095b13f5bc793ab800e9c833556',
    ),
    ((8, 400, 0.008), 'xy_2_2'): (
        2, 14, 17968, '2fb622008eb357debdca0836971995bc4e117ea386001bb84a9a515e42f1e97a',
    ),
    ((8, 400, 0.008), 'xy_3_1'): (
        1, 7, 18134, 'a937c01af2f4495bc11ae5cd968ab9c1294c01d1d20515740939dd624d090450',
    ),
    ((8, 400, 0.008), 'xy_3_2'): (
        0, 0, 17812, '2545f872afb19d4bd0436e33d79bbe0d9272a58d004e3f11355f94403a7dc03a',
    ),
    ((8, 400, 0.008), 'x0'): (
        47, 115, 21332, 'a7eda26b0394d2aa5f72f9b6f12159ffa5b6f1c9344a6af083e3971b6b3b200c',
    ),
    ((8, 400, 0.008), 'two_three'): (
        8, 43, 19098, 'f59e1a4b11bae55ba402c05f999e7e4c450a04ba2b68ee0bce2d3232d3fb86b7',
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
# (47 centres, no splice; the region_10 cases above pin splices) and composite
# recovery; the dense one runs the composite loop. Any change to where or in
# what order the solver reads the clock also shows up here.
GOLDEN_SOLVE = {
    (2, 300, 600, 0.12): (
        15771,
        3093,
        [(204, 15649), (217, 15692), (391, 15702), (1283, 15716), (1332, 15719), (1579, 15771)],
        "583576f162b927db99fd9b53c92a555234962bfe8a3d0bd6eefb22ecf60d607f",
    ),
    (1, 300, 9000, 0.01): (
        3819,
        457,
        [
            (12, 3332), (26, 3516), (32, 3520), (76, 3565), (94, 3628), (271, 3632),
            (429, 3636), (519, 3696), (1242, 3703), (1339, 3708), (1344, 3747),
            (1352, 3781), (8400, 3819),
        ],
        "abbbf8442bea7c53728d1b4847491b3eca0ada896acd03fc75910ceb31682e93",
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
