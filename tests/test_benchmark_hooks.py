"""The benchmark's tracer wraps gendervec functions by attribute name.

``perfbench/tracer.py`` patches module attributes such as
``pipeline.stratified_split``; renaming one breaks traced benchmark
runs.  Patching and restoring them here catches that in milliseconds.
"""

import importlib.util
import pathlib

from gendervec import classifier, dataset, pipeline

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_points_exist():
    tracer = _load_tracer()
    originals = (pipeline.stratified_split, dataset.join_with_embedding, classifier.dev_accuracy)
    restore = tracer.instrument(tracer.Tracer())
    try:
        patched = (pipeline.stratified_split, dataset.join_with_embedding, classifier.dev_accuracy)
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        restore()
    assert (pipeline.stratified_split, dataset.join_with_embedding,
            classifier.dev_accuracy) == originals
