"""The README's thread-safety claim: results on 4 threads equal the serial ones.

Each configuration carries facts computed when it was built (violations,
fingerprint, id lookups); the threads share the configurations, and so
those facts. The package imports its submodules on first use, so threads
may also be the first to touch a name.
"""

from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

from pinchjac.abel_jacobi import SmoothDivisor, aj_eval, divisor_class
from pinchjac.builders import (
    random_config,
    random_modifiable_config,
    random_rational_aj_config,
    random_unit_jet_vector,
)
from pinchjac.curve_model import component_partition_without, smooth_sample
from pinchjac.errors import PinchjacError
from pinchjac.jacobian import class_reduce, jacobian_structure
from pinchjac.modification import modifiable_sites, modify
from pinchjac.obstruction import obstruction_witness


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


def _on_four_threads(work, inputs):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that shared state would show
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # every config runs on several threads at once
            return list(pool.map(work, inputs * 4))
    finally:
        sys.setswitchinterval(interval)


def test_graph_layer_results_match_serial_on_four_threads():
    inputs = _inputs()
    serial = [_graph_work(item) for item in inputs]
    assert _on_four_threads(_graph_work, inputs) == serial * 4


def _outcome(fn, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except PinchjacError as exc:
        return (type(exc).__name__, str(exc))


def _entry_point_work(config):
    presentation = jacobian_structure(config)
    out = []
    # the rational configs carry basepoints; the modifiable ones may have genus
    for component in config.components if config.basepoints else ():
        p, q = smooth_sample(config, component.id, 2)
        out.append(aj_eval(config, presentation, component.id, p))
        divisor = SmoothDivisor.of([(component.id, p, 1), (component.id, q, -1)])
        out.append(divisor_class(config, presentation, divisor))
    for site in modifiable_sites(config):
        out.append(modify(config, site))
    for s in config.singularities:
        for i in range(len(s.branches)):
            out.append(_outcome(obstruction_witness, config, s.id, i))
    return out


def test_entry_points_match_serial_on_four_threads():
    rng = random.Random(90)
    configs = [random_rational_aj_config(rng) for _ in range(12)]
    configs += [random_modifiable_config(rng) for _ in range(6)]
    serial = [_entry_point_work(config) for config in configs]
    assert _on_four_threads(_entry_point_work, configs) == serial * 4


# Run in a new interpreter, where no submodule is loaded yet. The four modules
# share dependencies (algebra, curve_model), so the threads meet in the imports.
FIRST_TOUCH = """
import importlib, json, sys, threading
import pinchjac
homes = {"Jet": "algebra", "aj_eval": "abel_jacobi", "contract_p1": "contraction",
         "obstruction_witness": "obstruction"}
preloaded = sorted(m for m in sys.modules if m.startswith("pinchjac."))
barrier = threading.Barrier(len(homes))
got = {}
def touch(name):
    barrier.wait()
    got[name] = getattr(pinchjac, name)
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=touch, args=(name,), daemon=True) for name in homes]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
wrong = [name for name, module in homes.items()
         if got.get(name) is not getattr(importlib.import_module("pinchjac." + module), name)]
print(json.dumps([preloaded, [t.is_alive() for t in threads], wrong]))
"""


def test_first_touch_of_names_on_four_threads(fresh_python):
    done = fresh_python("-c", FIRST_TOUCH)
    assert done.returncode == 0, done.stderr
    preloaded, alive, wrong = json.loads(done.stdout.splitlines()[-1])
    assert preloaded == []
    assert alive == [False] * 4
    assert wrong == []
