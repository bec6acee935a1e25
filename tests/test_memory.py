"""Peak traced memory of the sparse set-up layers, relative to the input."""

import random
import tracemalloc

from mwis import build_initial_solution, density_radius, reduce_graph

from util import random_gnm_graph

# Reduction and construction may each peak at most this multiple of the
# input graph's traced size above what they were handed.
MAX_PEAK_RATIO = 1.25


def traced_peak_above_current(fn, *args):
    """(fn(*args), the traced peak during the call above the traced memory
    just before it)."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - base


def test_sparse_setup_peaks_stay_near_the_input_size():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = random_gnm_graph(random.Random(1), 12000, 36000)
        graph_size = tracemalloc.get_traced_memory()[0] - before
        kernel, reduce_peak = traced_peak_above_current(reduce_graph, g)
        radius = density_radius(kernel.graph)
        assert radius > 2  # the reduction-guided construction runs
        _, construct_peak = traced_peak_above_current(
            build_initial_solution, kernel.graph, radius
        )
    finally:
        tracemalloc.stop()
    assert reduce_peak <= MAX_PEAK_RATIO * graph_size, (reduce_peak, graph_size)
    assert construct_peak <= MAX_PEAK_RATIO * graph_size, (construct_peak, graph_size)
