import pytest

from gendervec import corpus


@pytest.fixture
def chunk_reads(monkeypatch) -> list:
    """Paths passed to the one chunk decoder, wherever it is called from."""
    real_read = corpus.read_chunks
    reads = []

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(corpus, "read_chunks", counting_read)
    return reads
