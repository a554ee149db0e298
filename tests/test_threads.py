"""The README's thread-safety claim: results on 4 threads equal the serial ones."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from pinchjac.builders import random_config, random_unit_jet_vector
from pinchjac.curve_model import component_partition_without
from pinchjac.jacobian import class_reduce, jacobian_structure
from pinchjac.modification import modifiable_sites


def _inputs():
    rng = random.Random(89)
    out = []
    for _ in range(20):
        config = random_config(rng, max_components=8, max_singularities=12)
        out.append((config, random_unit_jet_vector(rng, config)))
    return out


def _graph_work(item):
    config, vector = item
    presentation = jacobian_structure(config)
    return (
        presentation,
        class_reduce(config, presentation, vector),
        modifiable_sites(config),
        tuple(component_partition_without(config, s.id) for s in config.singularities),
    )


def test_graph_layer_results_match_serial_on_four_threads():
    inputs = _inputs()
    serial = [_graph_work(item) for item in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that shared state would show
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # every config runs on several threads at once
            threaded = list(pool.map(_graph_work, inputs * 4))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4
