"""Golden replay of the seeded search components.

Each (instance, call) pair pins what one seeded run with no deadline leaves
behind: the iteration count, the number of vertex moves on the working
solution (the sum of the visit frequencies) and the exact best set. Any change
to the RNG draws, their order or the search parameters shows up as a mismatch,
including changes that only alter the moves made after the last improvement.
A refactor that claims to preserve behaviour must leave every pinned value as
it is.
"""

import random

import pytest

from mwis import SolutionState, adaptive_descent, composite_search, region_search

from util import random_graph, random_maximal_is

try:
    # Before the search parameters became module constants, the descents took
    # a DescentConfig; passing its defaults lets this file replay both forms.
    from mwis.descent import DescentConfig

    _CFG: tuple = (DescentConfig(),)
except ImportError:
    _CFG = ()

# (seed, n, p): sparse and dense random graphs from 20 to 200 vertices.
INSTANCES = [(1, 20, 0.3), (2, 40, 0.5), (3, 80, 0.05), (4, 120, 0.2), (5, 200, 0.03), (6, 200, 0.3)]
CALLS = ["descent_global", "descent_40", "composite", "region_10"]


def replay(key, call):
    seed, n, p = key
    g = random_graph(random.Random(seed), n, p)
    state = SolutionState(g, random_maximal_is(random.Random(seed), g))
    rng = random.Random(seed)
    start = state.cs.copy()
    if call == "descent_global":
        best = adaptive_descent(state, start, -1, *_CFG, rng)
    elif call == "descent_40":
        best = adaptive_descent(state, start, 40, *_CFG, rng)
    elif call == "composite":
        best = composite_search(state, start, rng)
    else:
        best, _ = region_search(state, start, 2, 10, *_CFG, rng)
    return state.iter, sum(state.freq), sorted(best)


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
