import numpy as np
import pytest

from gendervec import classifier, corpus, metrics
from gendervec.dataset import CLASSES


@pytest.fixture
def chunk_reads(monkeypatch) -> list:
    """Paths passed to the one corpus chunk reader, wherever it is called from."""
    real_read = corpus.read_chunks
    reads = []

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(corpus, "read_chunks", counting_read)
    return reads


@pytest.fixture
def report_from_confusion():
    """``build_eval_report`` on predictions that hold ``cm[g, p]`` words of
    gold class ``g`` predicted as ``p``, indexed over ``CLASSES``: each
    word puts probability 1 on its predicted class."""

    def build(cm):
        cm = np.asarray(cm)
        gold, predicted = np.divmod(np.arange(cm.size), cm.shape[1])
        gold, predicted = np.repeat(gold, cm.ravel()), np.repeat(predicted, cm.ravel())
        n = gold.size
        return metrics.build_eval_report(classifier.Predictions(
            tuple(f"w{i}" for i in range(n)), np.eye(len(CLASSES))[predicted], gold,
            np.ones(n, dtype=np.int64),
        ))

    return build
